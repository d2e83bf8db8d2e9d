// perfbench_harness — drives one workload of the benchmark against the
// shipped esm_serve / esm_cli binaries and prints its measurements.
//
//   perfbench_harness --workload predict_hot|predict_cold|search|build
//                     --seed N --seconds S --trace 0|1
//                     --bin-dir DIR --run-dir DIR
//
// The last stdout line is one JSON object: {"attempted", "failed",
// "values"}; perfbench/run.py turns it into the benchmark record. Exit
// status: 0 when every operation and check passed, 1 when any failed,
// 2 when the run could not complete.
#include <cstdio>
#include <iostream>
#include <stdexcept>
#include <string>

#include "bench.hpp"
#include "common/parallel.hpp"
#include "linalg/matrix.hpp"

namespace {

perfbench::Options parse(int argc, char** argv) {
  perfbench::Options opt;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      opt.workload = value;
    } else if (key == "--seed") {
      opt.seed = std::stoull(value);
    } else if (key == "--seconds") {
      opt.seconds = std::stod(value);
    } else if (key == "--trace") {
      opt.trace = value == "1";
    } else if (key == "--bin-dir") {
      opt.bin_dir = value;
    } else if (key == "--run-dir") {
      opt.run_dir = value;
    } else {
      throw std::invalid_argument("unknown argument " + key);
    }
  }
  if (opt.bin_dir.empty() || opt.run_dir.empty() || opt.seconds <= 0) {
    throw std::invalid_argument("--bin-dir, --run-dir and --seconds > 0 are required");
  }
  return opt;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const perfbench::Options opt = parse(argc, argv);
    // In-process work runs at the shipped default of one thread unless a
    // row says otherwise, whatever ESM_THREADS the caller has set.
    esm::set_thread_count(1);
    perfbench::Record rec;
    perfbench::Record host;
    perfbench::host_record(host, "");
    perfbench::host_record(host, ".before");
    const perfbench::HostCpu cpu0 = perfbench::read_host_cpu();

    if (opt.workload == "predict_hot") {
      perfbench::predict_workload(opt, true, rec);
    } else if (opt.workload == "predict_cold") {
      perfbench::predict_workload(opt, false, rec);
    } else if (opt.workload == "search") {
      perfbench::search_workload(opt, rec);
    } else if (opt.workload == "build") {
      perfbench::build_workload(opt, rec);
    } else {
      throw std::invalid_argument("unknown workload " + opt.workload);
    }

    const perfbench::HostCpu cpu1 = perfbench::read_host_cpu();
    perfbench::host_record(host, ".after");
    host.set("host.steal_frac", perfbench::steal_share(cpu0, cpu1));
    std::printf("host: gemm_backend=%s", esm::gemm_backend());
    for (const char* key : {"host.nproc", "host.simd_lanes", "host.fma",
                            "host.peak_gflops.before", "host.peak_gflops.after",
                            "host.steal_frac"}) {
      std::printf(" %s=%.6g", key + 5, host.get(key));
      if (opt.trace) rec.set(key, host.get(key));
    }
    std::printf("\n%s\n", rec.to_json().c_str());
    std::fflush(stdout);
    return rec.failed() == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "perfbench_harness: " << e.what() << "\n";
    return 2;
  }
}
