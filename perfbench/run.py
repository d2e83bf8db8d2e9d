#!/usr/bin/env python3
"""The repository benchmark: one workload, one seed, one JSON record.

    python3 perfbench/run.py --workload predict_hot --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout. Builds the shipped binaries
(esm_serve, esm_cli) and the harness from source into $CARGO_TARGET_DIR
(default .bench_build) with the root CMakeLists.txt, runs the harness's
self-checks, then drives the workload. The last stdout line is
{"correct", "attempted", "failed", "metrics"}: the end-to-end metrics of
BENCHMARK.json with --trace 0, its per-layer metrics with --trace 1. Exit
status 0 only when every operation and correctness check passed.
See perfbench/BENCH.md for what each workload and metric means.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
TARGETS = ["esm_cli", "esm_serve_bin", "perfbench_harness", "perfbench_selftest"]
HARNESS_TIMEOUT_S = 150


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def run_logged(cmd, log):
    with open(log, "a") as out:
        return subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT).returncode


def build(build_dir):
    """Configures once, then builds incrementally; a no-op when current."""
    log = build_dir.parent / "build.log"
    build_dir.mkdir(parents=True, exist_ok=True)
    if not (build_dir / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(ROOT), "-B", str(build_dir),
               "-DCMAKE_BUILD_TYPE=Release", "-DESM_BUILD_TESTS=OFF",
               "-DESM_BUILD_BENCH=OFF", "-DESM_BUILD_EXAMPLES=ON",
               f"-DCMAKE_PROJECT_esm_INCLUDE={BENCH_DIR / 'build.cmake'}"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if run_logged(cmd, log) != 0:
            shutil.rmtree(build_dir, ignore_errors=True)
            fail(f"cmake configure failed, see {log}")
    cmd = ["cmake", "--build", str(build_dir), "-j", "4", "--target", *TARGETS]
    if run_logged(cmd, log) != 0:
        fail(f"build failed, see {log}")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"{ROOT} is not a source checkout (no CMakeLists.txt and src/)")

    out_root = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not out_root.is_absolute():
        out_root = ROOT / out_root
    work = out_root / "perfbench"
    build_dir = work / "build"
    # Compilers and children keep their temporary files inside the checkout.
    tmp = work / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    build(build_dir)
    if subprocess.run([str(build_dir / "perfbench" / "perfbench_selftest")],
                      stdout=subprocess.DEVNULL).returncode != 0:
        fail("harness self-checks failed")

    # A fresh directory per run: esm_cli pipeline replays a journal it
    # finds in a reused directory instead of measuring.
    run_dir = work / "runs" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        proc = subprocess.run(
            [str(build_dir / "perfbench" / "perfbench_harness"),
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--bin-dir", str(build_dir / "examples"), "--run-dir", str(run_dir)],
            stdout=subprocess.PIPE, text=True, timeout=HARNESS_TIMEOUT_S)
        trace = run_dir / "trace.json"
        if trace.exists():
            (work / "traces").mkdir(exist_ok=True)
            shutil.move(str(trace), str(work / "traces" / f"{args.workload}.json"))
    except subprocess.TimeoutExpired:
        fail(f"harness ran past {HARNESS_TIMEOUT_S} s")
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        fail(f"harness exited with {proc.returncode}")
    for line in lines[:-1]:
        print(line)
    result = json.loads(lines[-1])
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        value = result["values"].get(m["name"])
        if value is None:
            fail(f"harness did not report {m['name']}")
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    correct = proc.returncode == 0 and result["failed"] == 0
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
