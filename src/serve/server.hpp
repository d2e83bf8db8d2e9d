// Long-running prediction server over a fleet of named models: loads a
// fleet manifest (or a single `.esm` artifact, served as a one-model fleet
// named "default"), routes each request to a model by its optional key,
// coalesces pending predictions into per-model batches dispatched through
// predict_all (and so the shared thread pool), answers repeats from each
// model's own sharded LRU cache, hot-swaps the whole fleet on `reload`
// between batches, and drains in-flight requests before stopping. The
// server owns no transport: the epoll event loop (serve/event_loop.hpp)
// is its front end.
//
// Threading model:
//   - handle_request() is the transport-agnostic core: the front end hands
//     it a split request plus a completion callback. Cache hits, control
//     verbs, and errors complete inline on the calling thread; predictions
//     that miss park on the shared pending queue and complete from the
//     batcher thread. The event loop posts completions back to its
//     reactor, so thousands of connections share one I/O thread.
//   - one batcher thread drains the pending queue: whatever accumulated
//     while the previous dispatch was in flight is grouped by model and
//     each group becomes one predict_all dispatch (the drain is capped at
//     ServeConfig::max_batch), so concurrent singles from different
//     clients coalesce automatically with no timer.
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
//   - request_stop()/wait() drain: the batcher finishes the queue and the
//     search worker every admitted search, then every thread is joined. No
//     admitted request is dropped. The front end drains first (the event
//     loop answers every request already on the wire), then stops the
//     server.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
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
/// cache hits, control verbs, and errors, or from the batcher thread for
/// predictions that had to be computed. Must not throw.
using ReplyCallback = std::function<void(Reply&&)>;

struct ServeConfig {
  /// Loaded at construction: a fleet manifest (first line "esm-fleet v1")
  /// or a bare surrogate artifact, distinguished by content.
  std::string artifact_path;
  std::size_t cache_capacity = 4096;    ///< per model; 0 disables caching
  std::size_t cache_shards = 8;
  std::size_t max_line_bytes = 64 * 1024;  ///< longer request lines error
  std::size_t max_batch = 64;           ///< pending drained per dispatch round
  std::size_t max_batch_archs = 1024;   ///< archs per predict_batch request
  double summary_period_s = 0.0;        ///< >0: periodic stderr summary

  // Overload protection (PR 9). All three default off, which keeps the
  // pre-overload behaviour (and wire bytes) exactly.
  /// Cap on the pending-prediction queue; a miss arriving at the cap is
  /// answered `overloaded` immediately instead of waiting. 0 = unbounded.
  std::size_t max_queue = 0;
  /// Cap on predictions admitted but not yet answered (queued plus the
  /// batch currently dispatching); misses beyond it shed. 0 = unbounded.
  std::size_t max_inflight = 0;
  /// Deadline applied to prediction requests that carry none of their own
  /// (esm2 v2 header field or esm1 "deadline=<ms>" token). 0 = none.
  std::uint32_t default_deadline_ms = 0;

  // NAS search serving (PR 10). Searches run on one dedicated worker
  // thread so a long-running NAS query can never stall the prediction
  // batcher or the reactor.
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
  /// share the buffer) and starts the batcher. Throws esm::ConfigError
  /// when the manifest or any artifact cannot be loaded.
  explicit PredictionServer(ServeConfig config);

  /// Stops and joins everything (equivalent to request_stop() + wait()).
  ~PredictionServer();

  PredictionServer(const PredictionServer&) = delete;
  PredictionServer& operator=(const PredictionServer&) = delete;

  /// Begins the drain: wait() unblocks once every admitted request was
  /// answered. Idempotent, callable from any thread.
  void request_stop();

  /// Blocks until a stop was requested and the batcher, the search worker,
  /// and the summary thread have been joined.
  void wait();

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
  /// inline for cache hits, control verbs, and errors; from the batcher
  /// thread for predictions that miss — and never throws out of this call:
  /// unexpected handler exceptions become server_error replies.
  void handle_request(const ParsedRequest& request, std::size_t wire_bytes,
                      ReplyCallback done);

 private:
  /// One prediction waiting for the batcher. `done` is invoked from the
  /// batcher thread with the value, or with the per-arch failure.
  struct Pending {
    ArchConfig arch;
    /// Aliased into the fleet snapshot the request was routed against;
    /// keeps that fleet (and its caches) alive until `done` resolves.
    std::shared_ptr<const FleetModel> model;
    /// Absolute deadline; max() = none. The batcher answers entries whose
    /// deadline passed with deadline_exceeded instead of predicting them.
    std::chrono::steady_clock::time_point deadline =
        std::chrono::steady_clock::time_point::max();
    std::function<void(double value, std::exception_ptr error)> done;
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

  std::shared_ptr<const ModelFleet> current_fleet() const;

  /// Routes one request. It and the handlers below borrow `done`: they
  /// answer through it, or move it into the completion that takes the
  /// request over, and a throw before that handoff leaves it for
  /// handle_request's backstop to answer.
  void dispatch_request(const ParsedRequest& request, std::size_t wire_bytes,
                        ReplyCallback& done);

  /// Resolves a request's optional model key against `fleet` and marks
  /// the model's stats section routed; on an unknown key, answers
  /// unknown_model through `done` and returns null.
  const FleetModel* route(const ModelFleet& fleet, std::string_view model_key,
                          ReplyCallback& done);

  void handle_predict(std::string_view payload,
                      std::chrono::steady_clock::time_point deadline,
                      ReplyCallback& done);
  /// Validates and admits one `search` request; the reply completes from
  /// the search worker thread (or inline on rejection). Counts into the
  /// prediction-line identity exactly like predict: one `requests`
  /// increment classified miss (the front was computed) or error.
  void handle_search(const std::string& payload,
                     std::chrono::steady_clock::time_point deadline,
                     ReplyCallback& done);
  void handle_predict_batch(std::string_view payload,
                            std::chrono::steady_clock::time_point deadline,
                            ReplyCallback& done);
  Reply handle_info(const std::string& payload);
  Reply handle_models();
  Reply handle_stats();
  Reply handle_reload(const std::string& path);

  /// Queues one architecture for the batcher against `model`; `done` is
  /// invoked from the batcher thread — or inline with an OverloadedError
  /// when admission control sheds the entry (queue or in-flight cap hit),
  /// or with the exception when the queue cannot grow. Only wrapping
  /// `done` into the parameter can throw out of this call.
  void enqueue(ArchConfig arch, std::shared_ptr<const FleetModel> model,
               std::chrono::steady_clock::time_point deadline,
               std::function<void(double, std::exception_ptr)> done);

  void batcher_loop();
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
  std::condition_variable queue_cv_;
  std::deque<Pending> queue_;
  /// Entries drained into the dispatch round currently running; together
  /// with queue_.size() this is the admitted-but-unanswered total that
  /// max_inflight caps. Guarded by queue_mutex_.
  std::size_t inflight_ = 0;
  bool batcher_stop_ = false;

  std::mutex stop_mutex_;
  std::condition_variable stop_cv_;
  bool stop_requested_ = false;
  bool joining_ = false;
  bool joined_ = false;

  std::thread batcher_thread_;
  std::thread search_thread_;
  std::thread summary_thread_;
};

}  // namespace esm::serve
