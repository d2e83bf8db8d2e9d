// Live serving metrics: lock-free counters, a log-bucketed service-latency
// histogram with p50/p95/p99, uptime, the served-fleet identity, and a
// per-model counter section for every model the fleet has ever served.
// Surfaced through the protocol's `stats` verb and the server's periodic
// stderr summary.
//
// Counter accounting contract (pinned by tests/serve_test.cpp): every
// `predict`/`predict_batch`/`search` request line increments `requests`
// exactly once and is classified as exactly one of `hits` (answered
// entirely from cache), `misses` (at least one prediction computed), or
// `errors` (structured error reply) — so requests == hits + misses + errors
// always. Per-architecture accounting runs alongside: archs == arch_hits +
// arch_misses. A line's hits count when it is answered from cache or
// handed to the queue; its misses count in the predict_all batches that
// price them. The server queues, sheds and expires whole lines, and a
// shed or expired line prices none of its misses, so batched_archs ==
// arch_misses holds under overload too. Control verbs (info, stats,
// reload, shutdown, unknown) are tallied separately in control_requests /
// control_errors and never disturb the prediction identity.
//
// Errors are counted from their wire code, in one place (count_error):
// `shed` counts the error lines answered `overloaded` (admission control
// turned them away) and `expired` those answered `deadline_exceeded`, so
// shed + expired <= errors and the requests identity is untouched.
// `degraded` is a 0/1 gauge (flush() is currently halving its round cap
// while the admitted miss archs stay at half of max_queue or more) and
// `degraded_entries` counts transitions into that mode.
//
// Fleet extension of the contract: every prediction-line counter lives in
// exactly one per-model section — the model the request routed to, or the
// reserved "_unrouted" section when routing itself failed (unknown model
// name) — and the fleet-wide totals are the sums over every section, so
// totals == Σ model.* holds by construction. Sections are never dropped
// (a model removed by reload keeps its section and its share of the
// totals).
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "serve/error.hpp"

namespace esm::serve {

/// Log2-bucketed latency histogram over microseconds: bucket 0 holds
/// [0, 1) us, bucket i >= 1 holds [2^(i-1), 2^i) us. Recording is a single
/// relaxed atomic increment; percentiles are read from a snapshot and
/// report the bucket's upper bound (a deterministic, conservative value).
class LatencyHistogram {
 public:
  static constexpr std::size_t kBuckets = 40;

  void record_us(double us);
  std::uint64_t count() const;

  /// p in [0, 100]; 0 when nothing was recorded.
  double percentile_us(double p) const;

 private:
  std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
};

/// Reserved per-model section for requests whose routing failed before a
/// model could be identified (unknown model name).
inline constexpr const char* kUnroutedSection = "_unrouted";

/// Snapshot of one model's prediction counters.
struct ModelCounters {
  std::uint64_t requests = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t errors = 0;
  std::uint64_t shed = 0;     ///< errors answered `overloaded`
  std::uint64_t expired = 0;  ///< errors answered `deadline_exceeded`
  std::uint64_t archs = 0;
  std::uint64_t arch_hits = 0;
  std::uint64_t arch_misses = 0;
};

/// Live per-model counters. Owned by ServerMetrics for the process
/// lifetime; FleetModel handlers hold a stable pointer so the hot path
/// records without any name lookup.
class ModelMetrics {
 public:
  ModelCounters snapshot() const;

  /// Lists this section in snapshots from now on. Servers resolve a
  /// model's section when its fleet loads, ahead of any traffic, and mark
  /// it as each request routes to it, so stats list exactly the models
  /// requests have reached.
  void mark_routed() {
    if (!routed_.load(std::memory_order_relaxed)) {
      routed_.store(true, std::memory_order_relaxed);
    }
  }

 private:
  friend class ServerMetrics;

  std::atomic<bool> routed_{false};

  std::atomic<std::uint64_t> requests_{0};
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> errors_{0};
  std::atomic<std::uint64_t> shed_{0};
  std::atomic<std::uint64_t> expired_{0};
  std::atomic<std::uint64_t> archs_{0};
  std::atomic<std::uint64_t> arch_hits_{0};
  std::atomic<std::uint64_t> arch_misses_{0};
};

/// One coherent read of every counter plus derived fields.
struct MetricsSnapshot {
  std::uint64_t requests = 0;  ///< predict + predict_batch lines
  std::uint64_t hits = 0;      ///< lines answered entirely from cache
  std::uint64_t misses = 0;    ///< lines that computed >= 1 prediction
  std::uint64_t errors = 0;    ///< lines answered with a structured error
  std::uint64_t shed = 0;      ///< of errors: admission control (overloaded)
  std::uint64_t expired = 0;   ///< of errors: deadline_exceeded
  std::uint64_t degraded = 0;  ///< 0/1: flush() currently in degraded mode
  std::uint64_t degraded_entries = 0;  ///< transitions into degraded mode
  std::uint64_t archs = 0;     ///< individual architectures priced
  std::uint64_t arch_hits = 0;
  std::uint64_t arch_misses = 0;
  std::uint64_t control_requests = 0;  ///< info/stats/reload/shutdown lines
  std::uint64_t control_errors = 0;    ///< unknown verbs, malformed control
  std::uint64_t batches = 0;           ///< predict_all dispatches
  std::uint64_t batched_archs = 0;     ///< archs over all dispatches
  std::uint64_t max_batch = 0;         ///< largest single dispatch
  std::uint64_t reloads = 0;
  std::uint64_t searches = 0;      ///< NAS search lines answered ok
  std::uint64_t search_evals = 0;  ///< architectures scored inside them
  double p50_us = 0.0;
  double p95_us = 0.0;
  double p99_us = 0.0;
  double uptime_s = 0.0;
  std::string artifact;  ///< path of the served artifact or manifest
  std::string artifact_crc32;
  std::string kind;
  std::string encoder;
  std::string space;
  /// Per-model sections, sorted by name; includes "_unrouted" and models
  /// no longer in the fleet. Summing any counter over sections yields the
  /// matching fleet-wide total exactly.
  std::vector<std::pair<std::string, ModelCounters>> per_model;
};

/// Thread-safe metrics sink owned by the server; the reactor, in-process
/// flush() callers and the search worker record into it concurrently.
class ServerMetrics {
 public:
  ServerMetrics();

  /// The per-model section for `name`, created on first use; the returned
  /// pointer stays valid for the metrics object's lifetime. Sections are
  /// never removed, so summed per-model counters always reconcile with the
  /// fleet-wide totals. Snapshots list a section once it is marked routed
  /// (ModelMetrics::mark_routed).
  ModelMetrics* model_section(const std::string& name);

  /// The "_unrouted" section (always listed), without a name lookup.
  ModelMetrics* unrouted() const { return unrouted_; }

  /// Classifies one prediction line (predict, predict_batch, search) that
  /// was answered ok: a hit when `all_from_cache`, else a miss. `model` is
  /// the section the line routed to (never null).
  void count_predict_line(bool all_from_cache, ModelMetrics* model);

  /// Counts one line answered with `code`: a prediction line on `section`
  /// (the "_unrouted" section when routing failed), or a control line when
  /// `section` is null. A prediction error also counts as `shed` when the
  /// code is `overloaded` and as `expired` when it is `deadline_exceeded`.
  void count_error(ModelMetrics* section, ErrorCode code);

  /// Counts architectures of a prediction line answered from cache.
  void count_arch_hits(std::uint64_t hits, ModelMetrics* model);

  /// Counts one control line (info/models/stats/reload/shutdown) answered
  /// ok; failed ones go through count_error.
  void count_control_line();

  /// Records one dispatched predict_all batch of `n` architectures, all
  /// routed to `model`, as that model's arch misses: the misses of a line
  /// shed at admission or expired at dequeue are priced by no batch and
  /// count in neither counter.
  void count_batch(std::size_t n, ModelMetrics* model);

  void count_reload();

  /// Records one NAS search answered ok and how many architectures its
  /// engine scored. The request line itself goes through
  /// count_predict_line/count_error like any prediction line (so
  /// the requests identity holds); search evaluations deliberately stay
  /// out of the arch counters (archs == arch_hits + arch_misses ==
  /// batched_archs tracks flush() only).
  void count_search(std::uint64_t evaluations);

  /// Tracks flush()'s degraded mode: set_degraded(true) on entry (also
  /// counts the transition), set_degraded(false) on recovery. Idempotent.
  void set_degraded(bool degraded);

  /// Records end-to-end service time of one request line.
  void record_latency_us(double us);

  /// Sets the served-artifact identity shown by info/stats.
  void set_artifact(const std::string& path, const std::string& crc32_hex,
                    const std::string& kind, const std::string& encoder,
                    const std::string& space);

  MetricsSnapshot snapshot() const;

  /// Renders a snapshot as the `stats` verb's "k=v ..." payload.
  static std::string stats_payload(const MetricsSnapshot& snap);

  /// One-line human summary for the periodic stderr report.
  static std::string summary_line(const MetricsSnapshot& snap);

 private:
  std::atomic<bool> degraded_{false};
  std::atomic<std::uint64_t> degraded_entries_{0};
  std::atomic<std::uint64_t> control_requests_{0};
  std::atomic<std::uint64_t> control_errors_{0};
  std::atomic<std::uint64_t> batches_{0};
  std::atomic<std::uint64_t> batched_archs_{0};
  std::atomic<std::uint64_t> max_batch_{0};
  std::atomic<std::uint64_t> reloads_{0};
  std::atomic<std::uint64_t> searches_{0};
  std::atomic<std::uint64_t> search_evals_{0};
  LatencyHistogram latency_;
  std::chrono::steady_clock::time_point start_;

  mutable std::mutex identity_mutex_;
  std::string artifact_;
  std::string artifact_crc32_;
  std::string kind_;
  std::string encoder_;
  std::string space_;

  /// Name -> live section. unique_ptr keeps section addresses stable while
  /// the map grows; the mutex guards only lookup/insert, never recording.
  mutable std::mutex sections_mutex_;
  std::map<std::string, std::unique_ptr<ModelMetrics>> sections_;
  ModelMetrics* unrouted_ = nullptr;
};

}  // namespace esm::serve
