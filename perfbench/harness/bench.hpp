// The benchmark's workloads and the pieces they share: the fixture fleet
// published by the shipped `esm_cli pipeline`, a running `esm_serve`
// child with its client connections, and the per-layer suite.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "nas/search/engine.hpp"
#include "nas/search/wire.hpp"
#include "proc.hpp"
#include "serve/client.hpp"
#include "surrogate/trainable.hpp"
#include "trace.hpp"
#include "util.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string bin_dir;  ///< holds esm_serve and esm_cli
  std::string run_dir;  ///< fresh, empty directory owned by this run
};

// Fixed workload parameters (BENCH.md explains each choice).
inline constexpr int kSetupRepeats = 15;
inline constexpr std::size_t kHotPerModel = 1024;
inline constexpr std::size_t kDepth = 16;  ///< requests in flight per conn
inline constexpr std::size_t kPopulation = 128;
inline constexpr int kGenerations = 30;
inline constexpr int kBuildInitial = 4000;
inline constexpr int kBuildTest = 500;

/// One published model of a fleet, also loaded in-process.
struct FleetModel {
  std::string name;
  std::string device;
  std::string artifact;
  double gate_acc = 0.0;  ///< held-out accuracy (%) the pipeline printed
  std::shared_ptr<esm::TrainableSurrogate> model;
};

struct Fleet {
  std::string dir;
  std::string manifest;
  std::vector<FleetModel> models;
  double mean_gate_acc() const;
};

/// Runs `esm_cli pipeline` (MLP+FCC, default Acc_TH) once; returns the
/// exit info and fills `gate_acc` from its report (NaN when it printed
/// none).
ExitInfo run_pipeline(const Options& opt, const std::string& name,
                      const std::string& device, int n_initial, int n_test,
                      std::uint64_t seed, const std::string& dir,
                      double& gate_acc);

/// Publishes the two-model fixture fleet (gpu on rtx4090, edge on rpi4)
/// for the serve workloads and loads both artifacts in-process. The
/// fleet is the same for every run seed.
Fleet make_fixture(const Options& opt);

/// Loads every artifact of a fleet in-process.
void load_models(Fleet& fleet);

/// Counters from the `stats` verb.
struct Stats {
  double requests = 0, hits = 0, misses = 0, errors = 0, shed = 0,
         expired = 0, archs = 0, arch_hits = 0, arch_misses = 0,
         batches = 0, batched_archs = 0, searches = 0, search_evals = 0,
         p50_us = 0, p99_us = 0;
};

/// A running esm_serve child on a kernel-picked port.
class Server {
 public:
  Server(const Options& opt, const std::string& manifest, int index);

  std::unique_ptr<esm::serve::EsmClient> connect(
      esm::serve::Protocol protocol) const;

  /// Sends `shutdown` on `client`, then reaps the child.
  ExitInfo stop(esm::serve::EsmClient& client);

  pid_t pid() const { return child_->pid(); }
  int port() const { return port_; }

 private:
  std::unique_ptr<ChildProcess> child_;
  int port_ = 0;
};

Stats read_stats(esm::serve::EsmClient& client);

/// Checks the accounting identities the server promises; each violated
/// identity is one failure.
void reconcile(const Stats& s, Record& rec);

/// One predict request of a stream: which model, which wire arch.
struct PredictRequest {
  std::size_t model = 0;
  std::uint64_t arch = 0;  ///< index into the WireSpace
};

/// A served reply kept for the offline bit-equality check.
struct Sampled {
  PredictRequest request;
  std::string payload;
};

/// Compares sampled served replies with in-process predict_all on the
/// same artifacts (format_latency prints every bit of the double).
void check_predictions(const Fleet& fleet, const WireSpace& space,
                       const std::vector<Sampled>& samples, Record& rec);

/// One request of a closed loop: verb and payload, and what to do with
/// the payload of an ok reply.
struct LoopRequest {
  std::string verb;
  std::string payload;
  std::function<void(const std::string&)> on_ok;
};

/// Client-side view of a closed loop with one request in flight.
struct LoopResult {
  std::vector<double> latency_us;
  double submit_ns = 0.0;  ///< median time inside EsmClient::submit
  double await_ns = 0.0;   ///< median time inside EsmClient::await
  double wall_s = 0.0;
  double client_cpu_s = 0.0;
};

/// Sends one request at a time on `client` until `seconds` pass or
/// `max_requests` complete. Error replies count as failures. With a
/// tracer, each request gets a client span (trace id = request id).
LoopResult closed_loop(esm::serve::EsmClient& client,
                       const std::function<LoopRequest()>& next,
                       double seconds, std::size_t max_requests, Record& rec,
                       Tracer* tracer);

/// closed_loop over predict requests drawn from `next`; samples replies
/// for the correctness check and lists the requests in served order.
LoopResult run_unloaded(esm::serve::EsmClient& client, const Fleet& fleet,
                        const WireSpace& space,
                        const std::function<PredictRequest()>& next,
                        double seconds, std::size_t max_requests,
                        std::vector<Sampled>& samples,
                        std::vector<PredictRequest>& served, Record& rec,
                        Tracer* tracer);

/// The search request of stream position `i` for a run seeded by `seed`.
esm::search::SearchRequest search_request(const Fleet& fleet,
                                          const std::vector<double>& limits,
                                          std::uint64_t seed, std::size_t i);

/// Latency budget per model: the median true (hwsim) latency of its
/// device over a seeded sample, so roughly half the space is feasible on
/// each objective whatever the fixture models learned.
std::vector<double> search_limits(const Fleet& fleet, const WireSpace& space);

/// Runs a search request in-process, exactly as the served verb does.
esm::search::SearchOutcome run_search(const Fleet& fleet,
                                      const esm::search::SearchRequest& req,
                                      const std::vector<const esm::LatencyPredictor*>& predictors);

// The four workloads. Each fills `rec` with the end-to-end values, plus
// the per-layer values when opt.trace is set.
void predict_workload(const Options& opt, bool hot, Record& rec);
void search_workload(const Options& opt, Record& rec);
void build_workload(const Options& opt, Record& rec);

/// Inputs the per-layer suite and the traced replays work on.
struct LayerInputs {
  const Fleet* fleet = nullptr;
  const WireSpace* space = nullptr;
  /// Served predict stream to replay (cold stream when the workload sends
  /// no predicts), and the client-side unloaded p50 it is compared with.
  std::vector<PredictRequest> replay;
  std::vector<PredictRequest> hot_set;  ///< primed into the replay's caches
  double client_p50_us = 0.0;
  /// Search request to trace in-process, and the client-side latency the
  /// server took for that same request (0 = the workload serves no
  /// searches).
  esm::search::SearchRequest search;
  double search_client_us = 0.0;
};

/// Per-layer metrics: module micro-timings on seeded inputs, the traced
/// in-process replays of predict, search and build, and the threaded
/// rows. Spans go to `tracer`.
void layer_suite(const Options& opt, const LayerInputs& in, Tracer& tracer,
                 Record& rec);

/// Host record: nproc, GEMM backend, SIMD lanes, FMA, measured peak.
void host_record(Record& rec, const std::string& suffix);

}  // namespace perfbench
