#!/usr/bin/env bash
# Tiered CI for the ESM reproduction.
#
#   scripts/ci.sh         fast tier: build + sub-minute `ctest -L fast`
#   scripts/ci.sh full    fast tier, then the remaining (slow) suites, then
#                         a kill -9 resume smoke test of `esm_cli measure
#                         --journal/--resume`, then a loopback smoke test of
#                         the esm_serve server binary (both wire protocols
#                         on one port: newline esm1 and binary esm2, same
#                         prediction bytes; --max-batch 0 must be
#                         refused at startup), then the event-loop C10K smoke
#                         (10k concurrent connections on one reactor
#                         thread, zero drops, stats reconciled), then the
#                         overload + chaos smoke (the PR-9 headline pin:
#                         10k connections under seeded transport chaos with
#                         the admission queue capped, retry converging to
#                         100% goodput — plus an esm_serve run with --chaos
#                         and a --retries client riding out the injected
#                         faults), then a fleet smoke
#                         test (`esm_cli pipeline` publishing models into a
#                         manifest, kill -9 mid-pipeline converging to
#                         byte-identical artifacts, routed multi-model
#                         serving with atomic reload and clean drain), then
#                         a search determinism smoke (`esm_cli search
#                         --format serve` must print byte-identical front
#                         payloads to the served `search` verb for the same
#                         artifact and seed, at 16 x 4 and 64 x 10), then an
#                         hw_nas_search example
#                         smoke (every Pareto-front member it prints must
#                         meet its budget on the ground-truth simulator),
#                         then a scalar-fallback build (-DESM_SIMD=off) running
#                         the linalg + ml + encoding + fastpath + serve +
#                         surrogate-registry suites (the portable
#                         GEMM and training-step paths must stay green and
#                         bit-identical, trained golden digests and artifact
#                         CRCs through the MLP's save/load transpose
#                         included), then an FMA build
#                         (-DESM_FMA=ON) running the linalg + ml + fastpath
#                         suites (exact-equality pins switch to tight
#                         relative tolerances via gemm_fma_enabled()), then
#                         one ASan + UBSan build running the common +
#                         journal + linalg + encoding + surrogate + esm +
#                         fault + corruption-matrix + nets + nn + nas +
#                         search + ml + serve + frame + fleet + arch-fuzz +
#                         event-loop + overload + chaos suites (the
#                         measurement retry loop, the archive codec and the
#                         journal records it decodes under seeded generated
#                         input, the fleet manifest parser under the same, the
#                         encoding table that resolves every loaded
#                         artifact's esm.encoder string, graph
#                         lowering into either sink, the accuracy proxy, the
#                         constrained rank sort, the training step, the
#                         in-place scanners of untrusted request bytes, the
#                         epoll reactor, flush()'s expiry and shed
#                         paths, and the chaos decorator's offset
#                         arithmetic over gather writes), then a TSan build
#                         running the serve + fleet + frame + event-loop +
#                         overload + chaos + search suites (serve
#                         drives the reactor, its flush(), routing, and
#                         cache concurrently from many clients; the event loop
#                         adds backpressure, drain, and the 10k-connection
#                         pin; overload adds shedding and
#                         deadline expiry races; chaos adds the seeded
#                         fault decorators under the 10k-connection pin;
#                         serve and overload run five times each, so a
#                         schedule-dependent failure fails the tier)
#
# Every computation outside the server runs serially on its caller, so
# each suite runs once per tier; the TSan tier covers the server's reactor,
# search worker and client threads.
set -euo pipefail
cd "$(dirname "$0")/.."

TIER="${1:-fast}"
JOBS="$(nproc 2>/dev/null || echo 4)"

echo "== build (Release) =="
cmake -B build -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build build -j "$JOBS"

echo "== fast tier (ctest -L fast) =="
ctest --test-dir build -L fast --output-on-failure

if [ "$TIER" = "fast" ]; then
  echo "CI fast tier passed."
  exit 0
fi

echo "== slow tier (remaining suites) =="
ctest --test-dir build -LE fast --output-on-failure

echo "== kill -9 resume smoke test =="
# A journaled campaign killed at an arbitrary point and resumed must write
# the exact same dataset CSV as an uninterrupted run. Whatever the kill
# hits — before the header, mid-record, after completion — resume recovers:
# journaled batches replay, the rest re-measure, bit-identically. The
# uninterrupted run must exit 0 (or 2: some archs were quarantined) and
# the resumed run the same code, where its 3 (complete, some batches
# replayed) stands for 0; any other exit means a run itself failed.
SMOKE_DIR="$(mktemp -d)"
trap 'rm -rf "$SMOKE_DIR"' EXIT
MEASURE="build/examples/esm_cli measure --device rpi4 --count 48
  --batch-size 4 --fault-profile flaky"
GOLDEN_STATUS=0
$MEASURE --out "$SMOKE_DIR/golden.csv" >/dev/null 2>&1 || GOLDEN_STATUS=$?
timeout -s KILL 0.05 $MEASURE --journal "$SMOKE_DIR/campaign.journal" \
  >/dev/null 2>&1 || true
RESUMED_STATUS=0
$MEASURE --journal "$SMOKE_DIR/campaign.journal" --resume \
  --out "$SMOKE_DIR/resumed.csv" >/dev/null 2>&1 || RESUMED_STATUS=$?
case "$GOLDEN_STATUS" in
  0|2) ;;
  *) echo "kill -9 resume smoke test FAILED: golden run exited $GOLDEN_STATUS"
     exit 1 ;;
esac
[ "$RESUMED_STATUS" -eq 3 ] && RESUMED_STATUS=0
[ "$RESUMED_STATUS" -eq "$GOLDEN_STATUS" ] \
  || { echo "kill -9 resume smoke test FAILED: resumed run exited" \
       "$RESUMED_STATUS, golden run $GOLDEN_STATUS"; exit 1; }
cmp "$SMOKE_DIR/golden.csv" "$SMOKE_DIR/resumed.csv" \
  || { echo "kill -9 resume smoke test FAILED: dataset differs"; exit 1; }
echo "resumed dataset is byte-identical to the uninterrupted run"

echo "== esm_serve loopback smoke test =="
# Train a tiny artifact, serve it on a kernel-picked loopback port, then
# drive predict/stats/shutdown through the client mode. Checks the whole
# TCP path: bind, accept, framed protocol, drain on shutdown, exit codes.
# (train exit 2 = budget exhausted before Acc_TH; the artifact is saved.)
build/examples/esm_cli train --surrogate gbdt --n-initial 48 --n-step 16 \
  --max-iters 1 --model "$SMOKE_DIR/serve.esm" >/dev/null || [ $? -eq 2 ]
build/examples/esm_serve "$SMOKE_DIR/serve.esm" --port 0 \
  --port-file "$SMOKE_DIR/port" --summary-s 0 >/dev/null 2>&1 &
SERVE_PID=$!
for _ in $(seq 1 100); do
  [ -s "$SMOKE_DIR/port" ] && break
  sleep 0.1
done
[ -s "$SMOKE_DIR/port" ] || { echo "esm_serve never published its port"; exit 1; }
SERVE_PORT="$(cat "$SMOKE_DIR/port")"
# The esm1 client leaves the server running; the esm2 client below sends
# the shutdown, so both reach a live server.
printf 'predict 3,5,2,7\nstats\n' \
  | build/examples/esm_serve --connect "$SERVE_PORT" > "$SMOKE_DIR/serve.out" \
  || { echo "esm_serve client reported an error"; exit 1; }
grep -q "^esm1 ok predict " "$SMOKE_DIR/serve.out" \
  || { echo "loopback predict failed"; cat "$SMOKE_DIR/serve.out"; exit 1; }
grep -q "^esm1 ok stats .*requests=1" "$SMOKE_DIR/serve.out" \
  || { echo "loopback stats failed"; cat "$SMOKE_DIR/serve.out"; exit 1; }
# The same port speaks the binary esm2 protocol, negotiated per connection
# by the first byte; the esm2 client must see the identical prediction.
printf 'predict 3,5,2,7\nshutdown\n' \
  | build/examples/esm_serve --connect "$SERVE_PORT" --proto esm2 \
  > "$SMOKE_DIR/serve2.out" \
  || { echo "esm_serve esm2 client reported an error"; exit 1; }
grep -q "^esm2 ok predict " "$SMOKE_DIR/serve2.out" \
  || { echo "esm2 loopback predict failed"; cat "$SMOKE_DIR/serve2.out"; exit 1; }
ESM1_VALUE="$(sed -n 's/^esm1 ok predict //p' "$SMOKE_DIR/serve.out")"
grep -qF "esm2 ok predict $ESM1_VALUE" "$SMOKE_DIR/serve2.out" \
  || { echo "esm2 prediction differs from esm1"; cat "$SMOKE_DIR/serve2.out"; exit 1; }
wait "$SERVE_PID" \
  || { echo "esm_serve exited non-zero after shutdown"; exit 1; }
echo "loopback serve smoke test passed (esm1 + esm2)"
# A round of 0 archs would never drain the pending queue: the server
# must refuse --max-batch 0 at startup (exit non-zero) instead of serving
# requests it can never answer. timeout's 124 means it started serving.
ZERO_BATCH_STATUS=0
timeout 10 build/examples/esm_serve "$SMOKE_DIR/serve.esm" --port 0 \
  --summary-s 0 --max-batch 0 >/dev/null 2>&1 || ZERO_BATCH_STATUS=$?
if [ "$ZERO_BATCH_STATUS" -eq 0 ] || [ "$ZERO_BATCH_STATUS" -eq 124 ]; then
  echo "esm_serve --max-batch 0 was not refused (exit $ZERO_BATCH_STATUS)"
  exit 1
fi
echo "esm_serve refuses --max-batch 0"

echo "== event-loop C10K smoke test =="
# The reactor's headline pin, straight from the suite: 10k concurrent
# fd-less connections on one loop thread, both protocols, zero drops,
# every response bit-identical to offline predict_all, stats reconciling.
build/tests/event_loop_test \
  --gtest_filter='EventLoopTest.TenThousandConcurrentConnectionsZeroDrops' \
  || { echo "event-loop C10K smoke FAILED"; exit 1; }
echo "event-loop C10K smoke test passed"

echo "== overload + chaos smoke test =="
# The PR-9 headline pin straight from the suite: 10k mixed-protocol
# connections under seeded transport chaos with the admission queue capped
# well below the offered load. Every request must resolve correctly or
# with the structured retryable `overloaded` error, client retries must
# converge to 100% goodput, and the stats identities must reconcile.
build/tests/chaos_test \
  --gtest_filter='ChaosTest.TenThousandConnectionsUnderChaosAndOverloadConverge' \
  || { echo "overload + chaos C10K smoke FAILED"; exit 1; }
# The same story through the shipped binary: serve under an injected-fault
# transport (--chaos mild fragments and stalls but preserves every byte)
# with a tight admission queue, and drive it with the retrying client.
# The prediction must match the calm-transport esm1 value exactly.
build/examples/esm_serve "$SMOKE_DIR/serve.esm" --port 0 \
  --port-file "$SMOKE_DIR/chaos_port" --summary-s 0 \
  --chaos mild --chaos-seed 7 --max-queue 64 >/dev/null 2>&1 &
CHAOS_PID=$!
for _ in $(seq 1 100); do
  [ -s "$SMOKE_DIR/chaos_port" ] && break
  sleep 0.1
done
[ -s "$SMOKE_DIR/chaos_port" ] \
  || { echo "chaos esm_serve never published its port"; exit 1; }
CHAOS_PORT="$(cat "$SMOKE_DIR/chaos_port")"
printf 'predict 3,5,2,7\nshutdown\n' \
  | build/examples/esm_serve --connect "$CHAOS_PORT" --proto esm2 \
    --retries 8 --timeout-s 5 > "$SMOKE_DIR/chaos.out" \
  || { echo "chaos client reported an error"; cat "$SMOKE_DIR/chaos.out"; exit 1; }
grep -qF "esm2 ok predict $ESM1_VALUE" "$SMOKE_DIR/chaos.out" \
  || { echo "chaos-transport prediction differs"; cat "$SMOKE_DIR/chaos.out"; exit 1; }
wait "$CHAOS_PID" \
  || { echo "chaos esm_serve exited non-zero after shutdown"; exit 1; }
echo "overload + chaos smoke test passed"

echo "== fleet pipeline + routed serving smoke test =="
# The full fleet story end to end: pipeline-publish two models into one
# manifest, kill -9 a pipeline mid-run and converge to byte-identical
# published bytes, serve the manifest, route by model name, atomically
# reload to a three-model fleet, and drain cleanly.
FLEET_DIR="$SMOKE_DIR/fleet"
PIPELINE="build/examples/esm_cli pipeline --surrogate gbdt --n-initial 32
  --n-test 16 --acc-th 0.3 --batch-size 8 --manifest-dir $FLEET_DIR"
$PIPELINE --name edge --device rpi4 >/dev/null
$PIPELINE --name cloud --device rtx4090 >/dev/null

# kill -9 mid-pipeline: the rerun resumes from the stage journals (exit 3)
# or restarts from scratch (exit 0) — either way the published manifest and
# artifact must be byte-identical to an uninterrupted run's. At N_I 48 the
# worst depth bin fails the first gate, so the run extends its dataset and
# the kills can land in an extension round; a second kill lets the resumed
# run get further before it dies.
KILL_PIPE="build/examples/esm_cli pipeline --surrogate gbdt --n-initial 48
  --n-test 16 --acc-th 0.3 --batch-size 4 --device rpi4 --name edge"
$KILL_PIPE --manifest-dir "$SMOKE_DIR/fleet_ref" > "$SMOKE_DIR/fleet_ref.out"
grep -q " in [2-9][0-9]* iteration(s)" "$SMOKE_DIR/fleet_ref.out" \
  || { echo "fleet smoke FAILED: the reference pipeline did not extend"; \
       cat "$SMOKE_DIR/fleet_ref.out"; exit 1; }
for kill_s in 0.05 0.2; do
  timeout -s KILL "$kill_s" $KILL_PIPE --manifest-dir "$SMOKE_DIR/fleet_kill" \
    >/dev/null 2>&1 || true
done
$KILL_PIPE --manifest-dir "$SMOKE_DIR/fleet_kill" >/dev/null \
  || [ $? -eq 3 ]
cmp "$SMOKE_DIR/fleet_ref/manifest.esmf" "$SMOKE_DIR/fleet_kill/manifest.esmf" \
  || { echo "fleet smoke FAILED: resumed pipeline manifest differs"; exit 1; }
cmp "$SMOKE_DIR/fleet_ref/edge.esm" "$SMOKE_DIR/fleet_kill/edge.esm" \
  || { echo "fleet smoke FAILED: resumed pipeline artifact differs"; exit 1; }
# Out of iterations before the gate passes: exit 2, nothing published.
EXHAUST_STATUS=0
$KILL_PIPE --max-iters 1 --manifest-dir "$SMOKE_DIR/fleet_exhaust" >/dev/null \
  || EXHAUST_STATUS=$?
[ "$EXHAUST_STATUS" -eq 2 ] \
  || { echo "fleet smoke FAILED: an unconverged pipeline exited $EXHAUST_STATUS, not 2"; exit 1; }
[ ! -e "$SMOKE_DIR/fleet_exhaust/manifest.esmf" ] \
  || { echo "fleet smoke FAILED: an unconverged pipeline published"; exit 1; }
echo "killed pipeline converged to byte-identical published bytes"

build/examples/esm_serve --manifest "$FLEET_DIR/manifest.esmf" --port 0 \
  --port-file "$FLEET_DIR/port" --summary-s 0 >/dev/null 2>&1 &
FLEET_PID=$!
for _ in $(seq 1 100); do
  [ -s "$FLEET_DIR/port" ] && break
  sleep 0.1
done
[ -s "$FLEET_DIR/port" ] || { echo "fleet esm_serve never published its port"; exit 1; }
FLEET_PORT="$(cat "$FLEET_DIR/port")"
printf 'predict edge 3,5,2,7\npredict cloud 3,5,2,7\npredict 3,5,2,7\nmodels\nstats\n' \
  | build/examples/esm_serve --connect "$FLEET_PORT" > "$SMOKE_DIR/fleet1.out" \
  || { echo "fleet client reported an error"; exit 1; }
[ "$(grep -c '^esm1 ok predict ' "$SMOKE_DIR/fleet1.out")" = 3 ] \
  || { echo "fleet routed predicts failed"; cat "$SMOKE_DIR/fleet1.out"; exit 1; }
grep -q "^esm1 ok models edge cloud$" "$SMOKE_DIR/fleet1.out" \
  || { echo "fleet models verb failed"; cat "$SMOKE_DIR/fleet1.out"; exit 1; }
grep -q "model\.edge\.requests=2" "$SMOKE_DIR/fleet1.out" \
  || { echo "fleet per-model stats failed"; cat "$SMOKE_DIR/fleet1.out"; exit 1; }
# Publish a third model, reload the live server onto it, route to it, drain.
$PIPELINE --name tpu --device threadripper >/dev/null
printf 'reload %s\npredict tpu 3,5,2,7\nshutdown\n' "$FLEET_DIR/manifest.esmf" \
  | build/examples/esm_serve --connect "$FLEET_PORT" > "$SMOKE_DIR/fleet2.out" \
  || { echo "fleet reload client reported an error"; exit 1; }
grep -q "^esm1 ok reload models=3 default=edge" "$SMOKE_DIR/fleet2.out" \
  || { echo "fleet reload failed"; cat "$SMOKE_DIR/fleet2.out"; exit 1; }
grep -q "^esm1 ok predict " "$SMOKE_DIR/fleet2.out" \
  || { echo "fleet post-reload predict failed"; cat "$SMOKE_DIR/fleet2.out"; exit 1; }
wait "$FLEET_PID" \
  || { echo "fleet esm_serve exited non-zero after shutdown"; exit 1; }
echo "fleet smoke test passed"

echo "== search CLI vs served-verb smoke test =="
# The PR-10 determinism pin end to end through the shipped binaries: the
# same seeded search must produce byte-identical front payloads whether it
# runs offline (`esm_cli search --format serve`) or through the served
# `search` verb. --budget-ms 0 lifts the CLI's default latency limit so
# both sides run the same unconstrained query. The 64 x 10 search ranks
# 128-row tables and reprices nothing it has seen, so the per-search memo
# and the sorted rank path run in both binaries too.
SEARCH_SIZES="16:4 64:10"
for size in $SEARCH_SIZES; do
  build/examples/esm_cli search "$SMOKE_DIR/serve.esm" --budget-ms 0 \
    --population "${size%:*}" --generations "${size#*:}" --seed 42 \
    --format serve > "$SMOKE_DIR/search_cli_$size.out" 2>/dev/null \
    || { echo "esm_cli search $size reported an error"; exit 1; }
done
build/examples/esm_serve "$SMOKE_DIR/serve.esm" --port 0 \
  --port-file "$SMOKE_DIR/search_port" --summary-s 0 >/dev/null 2>&1 &
SEARCH_PID=$!
for _ in $(seq 1 100); do
  [ -s "$SMOKE_DIR/search_port" ] && break
  sleep 0.1
done
[ -s "$SMOKE_DIR/search_port" ] \
  || { echo "search esm_serve never published its port"; exit 1; }
{
  for size in $SEARCH_SIZES; do
    echo "search population=${size%:*} generations=${size#*:} seed=42"
  done
  echo shutdown
} | build/examples/esm_serve --connect "$(cat "$SMOKE_DIR/search_port")" \
  > "$SMOKE_DIR/search_served.out" \
  || { echo "search client reported an error"; exit 1; }
for size in $SEARCH_SIZES; do
  grep "^esm1 ok search .* population=${size%:*} generations=${size#*:} " \
    "$SMOKE_DIR/search_served.out" | sed 's/^esm1 ok search //' \
    > "$SMOKE_DIR/search_served_$size.payload"
  [ -s "$SMOKE_DIR/search_served_$size.payload" ] \
    || { echo "served search verb failed ($size)"; cat "$SMOKE_DIR/search_served.out"; exit 1; }
  cmp "$SMOKE_DIR/search_cli_$size.out" "$SMOKE_DIR/search_served_$size.payload" \
    || { echo "search smoke FAILED: CLI and served payloads differ ($size)"; exit 1; }
done
wait "$SEARCH_PID" \
  || { echo "search esm_serve exited non-zero after shutdown"; exit 1; }
echo "search smoke test passed (CLI front bytes == served front bytes, 16x4 and 64x10)"

echo "== hw_nas_search example smoke test =="
# The NAS example end to end: build an MLP predictor with ESM, search the
# MobileNetV3 space with the engine, and re-check every Pareto-front
# member it prints on the ground-truth simulator. A member marked NO (true
# latency over the budget) fails the smoke, as does a nonzero exit.
build/examples/hw_nas_search > "$SMOKE_DIR/hw_nas.out" \
  || { echo "hw_nas_search exited non-zero"; cat "$SMOKE_DIR/hw_nas.out"
       exit 1; }
grep -qE '\| yes +\|' "$SMOKE_DIR/hw_nas.out" \
  || { echo "hw_nas_search printed no candidate"; cat "$SMOKE_DIR/hw_nas.out"
       exit 1; }
if grep -qE '\| NO +\|' "$SMOKE_DIR/hw_nas.out"; then
  echo "hw_nas_search smoke FAILED: a front member misses its budget"
  cat "$SMOKE_DIR/hw_nas.out"
  exit 1
fi
echo "hw_nas_search smoke test passed"

echo "== scalar tier (ESM_SIMD=off: portable GEMM path) =="
# The vector microkernel and the scalar fallback must agree bit-for-bit;
# run the math-heavy suites against the fallback so it can never rot.
# ml_test's trained-bit digests were recorded on the vector build, so they
# also pin the vectorized training step to the portable one, and
# surrogate_registry_test's artifact CRC goldens and fit -> save -> load
# round trips pin the MLP's archive-boundary transpose on the portable path.
# (fastpath_test replaces operator new, so it runs here and in the plain
# build but stays out of the sanitizer tiers, which bring their own
# allocators.)
cmake -B build-scalar -S . -DCMAKE_BUILD_TYPE=Release \
  -DESM_SIMD=off >/dev/null
cmake --build build-scalar -j "$JOBS" \
  --target linalg_test ml_test encoding_test fastpath_test serve_test \
  surrogate_registry_test
ctest --test-dir build-scalar --output-on-failure \
  -R '^(linalg_test|ml_test|encoding_test|fastpath_test|serve_test|surrogate_registry_test)$'

echo "== fma tier (ESM_FMA=ON: contracted microkernel) =="
# FMA contraction changes mul+add rounding, in the GEMM kernel and in the
# training step alike, so the exact-equality pins in linalg_test, ml_test
# and fastpath_test switch to tight relative tolerances (they branch on
# gemm_fma_enabled()); the suites must still pass end to end.
cmake -B build-fma -S . -DCMAKE_BUILD_TYPE=Release -DESM_FMA=ON >/dev/null
cmake --build build-fma -j "$JOBS" --target linalg_test ml_test fastpath_test
ctest --test-dir build-fma --output-on-failure \
  -R '^(linalg_test|ml_test|fastpath_test)$'

echo "== asan+ubsan tier (common + journal + linalg + encoding + surrogate + esm + fault + corruption + nets + nn + nas + search + ml + serve + frame + fleet + arch fuzz + event loop + overload + chaos suites) =="
# One build carries both sanitizers. The wire arch scanner walks untrusted
# request bytes in place and the frame decoder slices them; serve_test and
# frame_test drive both, and arch_fuzz_test feeds the scanner 120k mutated
# requests. common_test and journal_test feed the one token-group codec
# mutated archive files and journal record bodies, and fleet_test feeds the
# manifest parser mutated manifests. ml_test hands Mlp::load damaged dims,
# which must be refused before anything is allocated, and
# DecisionTreeRegressor::load damaged node tables (a child that points back
# at its parent, a feature that is no index), which must be refused before
# a walk can cycle or read past its input. fault_test drives the
# measurement retry loop through every fault kind, an exhausted retry
# budget and the faulted-campaign golden. encoding_test drives the
# encoding table, which resolves the esm.encoder string of every loaded
# artifact (untrusted bytes) to a kind. The builders lower each
# space into a LayerGraph or a FLOPs accumulator, the accuracy proxy prices
# through the latter, the search engine ranks fronts by a presorted scan
# (the pairwise table for NaN scores), sorts crowding keys with NaN among
# them, and indexes its flat memo, and the training step indexes its
# workspace and the kernel's
# row-interleaved column tail.
# event_loop_test drives the epoll reactor's connection lifetimes, and
# overload_test flush()'s dequeue-time expiry and admission shedding,
# where every request is answered once. chaos_test drives the chaos
# decorator, which locates the buffer holding a gather write's offset and
# slices it, under its golden schedule and the 10k-connection pin. UBSan
# aborts on its first report here (-fno-sanitize-recover), so any finding
# fails the tier.
cmake -B build-asan-ubsan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DESM_SANITIZE=address,undefined >/dev/null
cmake --build build-asan-ubsan -j "$JOBS" \
  --target common_test journal_test linalg_test encoding_test surrogate_test \
  surrogate_registry_test esm_test fault_test corruption_test nets_test \
  nn_test \
  nas_test search_test ml_test serve_test frame_test fleet_test \
  arch_fuzz_test event_loop_test overload_test chaos_test
ctest --test-dir build-asan-ubsan --output-on-failure \
  -R '^(common_test|journal_test|linalg_test|encoding_test|surrogate_test|surrogate_registry_test|esm_test|fault_test|corruption_test|nets_test|nn_test|nas_test|search_test|ml_test|serve_test|frame_test|fleet_test|arch_fuzz_test|event_loop_test|overload_test|chaos_test)$'

echo "== tsan tier (serve + fleet + frame + event loop + overload + chaos + search) =="
# event_loop_test puts the reactor thread, which also prices every miss in
# its flush(), the search worker, and the client driver threads under TSan
# at once — including the 10k-connection headline test, which is the
# strongest cross-thread interleaving we have. serve_test drives the same
# reactor from eight concurrent clients, hot reloads under traffic, and
# routed fleet requests. overload_test adds admission shedding and
# dequeue-time deadline expiry, with Gate tests holding a round in a helper
# thread's flush() while the test thread admits and sheds; chaos_test adds
# the seeded fault decorators under the 10k chaos+overload pin, the widest
# interleaving in the repo. serve_test and overload_test run five times
# each (--repeat until-fail:5), so a failure that depends on the schedule
# fails the tier rather than one run in several.
# search_test runs long searches on the server's search worker while the
# server sheds and expires concurrent search requests.
cmake -B build-tsan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DESM_SANITIZE=thread >/dev/null
cmake --build build-tsan -j "$JOBS" \
  --target serve_test fleet_test frame_test event_loop_test overload_test \
  chaos_test search_test
ctest --test-dir build-tsan --output-on-failure \
  -R '^(fleet_test|frame_test|event_loop_test|chaos_test|search_test)$'
ctest --test-dir build-tsan --output-on-failure --repeat until-fail:5 \
  -R '^(serve_test|overload_test)$'

echo "CI full tier passed."
