// Long-running prediction server over a fleet of named models: loads a
// fleet manifest (or a single `.esm` artifact, served as a one-model fleet
// named "default"), routes each request to a model by its optional key,
// coalesces pending predictions into per-model predict_all calls, answers
// repeats from each model's own sharded LRU cache, hot-swaps the whole
// fleet on `reload` between rounds, and drains in-flight requests before
// stopping. The server owns no transport: the epoll event loop
// (serve/event_loop.hpp) is its front end.
//
// Threading model:
//   - handle_request() is the transport-agnostic core: the front end hands
//     it a split request plus a completion callback. Cache hits, control
//     verbs, and errors complete inline on the calling thread; a predict
//     or predict_batch line with any miss parks on the pending queue as
//     ONE entry (its hits filled in, its misses listed) and completes from
//     flush().
//   - flush() prices one round on the calling thread: the queue's oldest
//     ServeConfig::max_batch miss archs, in one predict_all call per
//     model, and answers each line exactly once (finish()) as soon as its
//     last miss is priced. A line with more misses than max_batch is
//     priced across successive calls. The event loop calls flush() once
//     per wakeup, after reading every ready connection, so the misses of
//     one wakeup coalesce with no timer and no second thread, and the
//     completion never leaves the reactor. One mutex serializes flush()
//     for in-process callers.
//   - one search worker thread runs admitted `search` requests (whole NAS
//     queries, nas/search/engine.hpp) to completion one at a time, so a
//     long search never blocks point predictions. Admission control
//     (ServeConfig::max_search_queue) sheds with `overloaded`; deadlines
//     are enforced at admission, at dequeue, and between generations
//     (cancelled searches answer `deadline_exceeded`). Admitted searches
//     are answered on drain like every other admitted request.
//   - `reload` builds the next fleet completely — every manifest entry
//     read, CRC-checked, and parsed — before swapping one shared_ptr under
//     a mutex; any failure keeps the old fleet serving (all-or-nothing).
//     Queue entries carry their model's shared_ptr, so requests already
//     routed finish on the fleet they were routed against. Each model's
//     cache travels with it: an unchanged entry (same name, same artifact
//     CRC) keeps its warm cache across the swap, while replaced models get
//     a fresh generation and an empty cache.
//   - request_stop()/wait() drain: wait() flushes until the queue is
//     empty, the search worker finishes every admitted search, then every
//     thread is joined. No admitted request is dropped. The front end
//     drains first (the event loop answers every request already on the
//     wire), then stops the server.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "nas/search/engine.hpp"
#include "serve/fleet.hpp"
#include "serve/metrics.hpp"
#include "serve/protocol.hpp"
#include "surrogate/trainable.hpp"

namespace esm::serve {

/// Invoked exactly once with the outcome of one request handled through
/// PredictionServer::handle_request — inline on the calling thread for
/// cache hits, control verbs, and errors, from flush() for predictions
/// that had to be computed, or from the search worker. Must not throw:
/// the server gives the callback up before invoking it and swallows a
/// throw, so a callback that throws is still invoked only once, but its
/// reply is lost.
using ReplyCallback = std::function<void(Reply&&)>;

struct ServeConfig {
  /// Loaded at construction: a fleet manifest (first line "esm-fleet v1")
  /// or a bare surrogate artifact, distinguished by content.
  std::string artifact_path;
  std::size_t cache_capacity = 4096;    ///< per model; 0 disables caching
  std::size_t cache_shards = 8;
  std::size_t max_line_bytes = 64 * 1024;  ///< longer request lines error
  /// Miss archs one flush() prices, oldest first, in one predict_all call
  /// per model; a line with more is priced across calls. >= 1.
  std::size_t max_batch = 64;
  std::size_t max_batch_archs = 1024;   ///< archs per predict_batch request
  double summary_period_s = 0.0;        ///< >0: periodic stderr summary

  // Overload protection. Both default off, which keeps the pre-overload
  // behaviour (and wire bytes) exactly.
  /// Cap on miss archs admitted but not yet answered. A line that would
  /// cross it is answered `overloaded` at once, whole, unless nothing else
  /// is admitted. 0 = unbounded.
  std::size_t max_queue = 0;
  /// Deadline applied to prediction requests that carry none of their own
  /// (esm2 v2 header field or esm1 "deadline=<ms>" token). 0 = none.
  std::uint32_t default_deadline_ms = 0;

  // NAS search serving. Searches run on one dedicated worker thread so a
  // long-running NAS query can never stall the reactor's predictions.
  /// Cap on searches admitted but not yet answered (queued plus running);
  /// one beyond it is answered `overloaded` immediately. 0 = unbounded.
  std::size_t max_search_queue = 0;
  /// Cap on one search's evaluation budget, population x (generations+1);
  /// a request above it is rejected `bad_request` at admission. Bounds how
  /// long a single request can hold the search worker.
  std::size_t max_search_evals = 1 << 20;
};

class PredictionServer {
 public:
  /// Loads the fleet (each artifact read once: identity CRC32 + parse
  /// share the buffer) and starts the search worker. Throws esm::ConfigError
  /// when max_batch is 0 or the manifest or any artifact cannot be loaded.
  explicit PredictionServer(ServeConfig config);

  /// Stops and joins everything (equivalent to request_stop() + wait()).
  ~PredictionServer();

  PredictionServer(const PredictionServer&) = delete;
  PredictionServer& operator=(const PredictionServer&) = delete;

  /// Begins the drain: wait() unblocks once every admitted request was
  /// answered. Idempotent, callable from any thread.
  void request_stop();

  /// Blocks until a stop was requested, then flushes until no line is
  /// left and joins the search worker and the summary thread.
  void wait();

  /// Prices one round on the calling thread: the oldest max_batch miss
  /// archs queued (half that in degraded mode), in one predict_all call
  /// per model, answering each line whose last miss is priced. Returns whether admitted lines remain
  /// unanswered (call again). With nothing queued it takes no lock.
  /// Callable from any thread; one mutex serializes concurrent calls.
  bool flush();

  MetricsSnapshot metrics() const { return metrics_.snapshot(); }

  /// The configuration the server was constructed with (front ends read
  /// the line/batch limits from here).
  const ServeConfig& config() const { return config_; }

  /// The live metrics sink, for front ends (the event loop) that record
  /// their own service latency and connection counters.
  ServerMetrics& metrics_sink() { return metrics_; }

  /// The currently served fleet (snapshot; reload may swap it right after).
  std::shared_ptr<const ModelFleet> fleet() const;

  /// The current default model's surrogate (single-artifact convenience).
  std::shared_ptr<const TrainableSurrogate> model() const;

  /// Handles one already-split request, transport- and framing-agnostic:
  /// both wire protocols of the event loop route here.
  /// `wire_bytes` is the request's on-the-wire size (line or frame payload
  /// length), used for the oversized check. `done` fires exactly once —
  /// inline for cache hits, control verbs, and errors; from a later
  /// flush() for predictions that miss — and nothing throws out of this
  /// call: unexpected handler exceptions become server_error replies, and
  /// every error reply is counted once, from its code (fail()).
  void handle_request(const ParsedRequest& request, std::size_t wire_bytes,
                      ReplyCallback done);

 private:
  /// One architecture of a line that missed the cache: its slot in the
  /// line's values, its cache key, and the config flush() prices.
  struct Miss {
    std::size_t index = 0;
    std::string key;
    ArchConfig arch;
  };

  /// One predict or predict_batch line waiting for (or being priced by)
  /// flush(): the queue's one entry per request line.
  struct Pending {
    /// Aliased into the fleet snapshot the line was routed against; keeps
    /// that fleet (its cache and stats section) alive until it is answered.
    std::shared_ptr<const FleetModel> model;
    /// Absolute deadline; max() = none. A line whose deadline passed while
    /// queued is answered deadline_exceeded instead of being priced.
    std::chrono::steady_clock::time_point deadline =
        std::chrono::steady_clock::time_point::max();
    bool batch = false;  ///< answers predict_batch, else predict
    /// One value per arch of the line, its cache hits filled at admission.
    std::vector<double> values;
    std::vector<Miss> misses;
    std::size_t priced = 0;  ///< misses priced by earlier rounds
    std::exception_ptr error;  ///< the first failure while pricing
    ReplyCallback done;
  };

  /// One admitted NAS search waiting for (or running on) the search
  /// worker. Models alias their fleet snapshot, so a concurrent reload
  /// never invalidates a search in flight.
  struct SearchJob {
    search::EngineConfig config;
    std::vector<std::shared_ptr<const FleetModel>> models;
    std::vector<double> limits_ms;  ///< aligned with models; empty = none
    ModelMetrics* section = nullptr;  ///< the primary model's section
    std::chrono::steady_clock::time_point deadline =
        std::chrono::steady_clock::time_point::max();
    ReplyCallback done;
  };

  /// The one failure path: counts a failed request line once, from its
  /// code, on `section` (a prediction line; "_unrouted" when routing
  /// failed) or as a control line when `section` is null, and returns its
  /// reply. The reply is built before the count, so a throw counts nothing.
  Reply fail(ModelMetrics* section, ErrorCode code, std::string detail);

  /// The one exception -> code map, then fail(): a ConfigError is the
  /// request's own fault and answers the verb's `config_code` (bad_arch for
  /// predictions, bad_request for search), a cancelled search
  /// deadline_exceeded, anything else server_error.
  Reply fail(ModelMetrics* section, std::exception_ptr error,
             ErrorCode config_code);

  /// Routes one request. It and the handlers below return the reply to
  /// answer inline, or nullopt once they moved `done` into the queued line
  /// or search that took the request over. They never move it before a
  /// step that can throw, so while `done` is set, nobody answered or
  /// counted the line.
  /// `section` is where the line counts: "_unrouted" for a prediction verb
  /// (null for a control verb) until a handler routes it to its model.
  std::optional<Reply> dispatch_request(const ParsedRequest& request,
                                        std::size_t wire_bytes,
                                        ModelMetrics*& section,
                                        ReplyCallback& done);

  /// Resolves a request's optional model key against `fleet` and marks
  /// the model's stats section routed; null for an unknown key.
  static const FleetModel* route(const ModelFleet& fleet,
                                 std::string_view model_key);

  /// The unknown_model reply for `key`, counted on `section`.
  Reply unknown_model(ModelMetrics* section, std::string_view key);

  /// Handles one predict (`batch` false) or predict_batch line: answers
  /// it inline when every arch hits the cache, else queues it whole as one
  /// Pending whose misses flush() prices.
  std::optional<Reply> handle_predict(
      std::string_view payload, bool batch,
      std::chrono::steady_clock::time_point deadline, ModelMetrics*& section,
      ReplyCallback& done);
  /// Validates and admits one `search` request; the reply completes from
  /// the search worker thread (or inline on rejection). Counts into the
  /// prediction-line identity exactly like predict: one `requests`
  /// increment classified miss (the front was computed) or error.
  std::optional<Reply> handle_search(
      const std::string& payload,
      std::chrono::steady_clock::time_point deadline, ModelMetrics*& section,
      ReplyCallback& done);
  Reply handle_info(const std::string& payload);
  Reply handle_models();
  Reply handle_stats();
  Reply handle_reload(const std::string& path);

  /// Admits `line` whole and moves `done` into it, or returns the reply
  /// that answers it inline: `overloaded` when its misses would take the
  /// admitted archs, if any, past max_queue, server_error when the queue
  /// cannot grow.
  std::optional<Reply> enqueue(Pending& line, ReplyCallback& done);

  /// Prices the round's next `cap` unpriced misses, in line order, into
  /// their lines' values: one predict_all call per model, each miss priced
  /// alone when its call fails.
  void price_round(std::size_t cap);
  /// Answers one line exactly once and releases its admission slots:
  /// caches its priced values and replies, or replies its expiry or first
  /// failure through fail().
  void finish(Pending& line, bool expired = false) noexcept;
  void search_loop();
  void summary_loop();

  /// Loads the manifest-or-artifact at `path` into a complete fleet and
  /// swaps it in (construction and reload share this). Serialized so
  /// concurrent reloads cannot interleave generation assignment.
  void install_source(const std::string& path);

  ServeConfig config_;
  ServerMetrics metrics_;

  mutable std::mutex fleet_mutex_;
  std::shared_ptr<const ModelFleet> fleet_;

  /// Monotone over every model instance ever loaded; guarded by
  /// install_mutex_ (only install_source touches it).
  std::mutex install_mutex_;
  std::uint64_t generation_counter_ = 0;

  std::mutex search_mutex_;
  std::condition_variable search_cv_;
  std::deque<SearchJob> search_queue_;
  /// Jobs dequeued and currently running; with search_queue_.size() this
  /// is the admitted-but-unanswered total max_search_queue caps. Guarded
  /// by search_mutex_.
  std::size_t search_inflight_ = 0;
  bool search_stop_ = false;

  std::mutex queue_mutex_;
  std::deque<Pending> queue_;
  /// Miss archs of the admitted lines not yet answered, the total that
  /// max_queue caps; 0 exactly when no line is. Raised under queue_mutex_
  /// as a line is queued, lowered once it is answered.
  std::atomic<std::size_t> admitted_archs_{0};

  /// flush()'s state, guarded by flush_mutex_: the lines of the round
  /// being priced (the last may be carried, partly priced, into the next
  /// call) and its predict_all batch, both keeping their capacity, and
  /// degraded mode with the rounds in a row that started under pressure.
  /// degraded_ is written under the lock and atomic only so an idle
  /// flush() can read it without one.
  std::mutex flush_mutex_;
  std::vector<Pending> round_;
  std::vector<ArchConfig> batch_;
  std::size_t pressure_rounds_ = 0;
  std::atomic<bool> degraded_{false};

  std::mutex stop_mutex_;
  std::condition_variable stop_cv_;
  bool stop_requested_ = false;
  bool joining_ = false;
  bool joined_ = false;

  std::thread search_thread_;
  std::thread summary_thread_;
};

}  // namespace esm::serve
