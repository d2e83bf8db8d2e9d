#include "serve/server.hpp"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "common/checksum.hpp"
#include "common/error.hpp"
#include "common/fsio.hpp"
#include "common/strings.hpp"
#include "nas/search/wire.hpp"
#include "surrogate/registry.hpp"

namespace esm::serve {
namespace {

using Clock = std::chrono::steady_clock;

Reply ok_reply(std::string verb, std::string payload) {
  Reply reply;
  reply.verb = std::move(verb);
  reply.payload = std::move(payload);
  return reply;
}

Reply error_reply(ErrorCode code, std::string detail) {
  Reply reply;
  reply.ok = false;
  reply.code = code;
  reply.payload = std::move(detail);
  return reply;
}

// Internal signals travelling through the (value, exception_ptr) completion
// callbacks; the completion catch chains map them to their wire error code
// and metrics ErrorKind.
struct OverloadedError : std::runtime_error {
  OverloadedError()
      : std::runtime_error("server overloaded: admission queue full") {}
};

struct DeadlineExceededError : std::runtime_error {
  DeadlineExceededError()
      : std::runtime_error("deadline passed before the request was served") {}
};

bool deadline_passed(Clock::time_point deadline, Clock::time_point now) {
  return deadline != Clock::time_point::max() && now >= deadline;
}

/// The predict_batch ok payload: the count, then every value.
std::string batch_payload(const std::vector<double>& values) {
  std::string payload = std::to_string(values.size());
  for (double v : values) {
    payload += ' ';
    append_g17(payload, v);
  }
  return payload;
}

}  // namespace

PredictionServer::PredictionServer(ServeConfig config)
    : config_(std::move(config)) {
  // Throws before any thread starts when the fleet cannot be loaded, so a
  // failed construction needs no teardown.
  install_source(config_.artifact_path);
  batcher_thread_ = std::thread([this] { batcher_loop(); });
  search_thread_ = std::thread([this] { search_loop(); });
  if (config_.summary_period_s > 0.0) {
    summary_thread_ = std::thread([this] { summary_loop(); });
  }
}

PredictionServer::~PredictionServer() {
  request_stop();
  wait();
}

void PredictionServer::install_source(const std::string& path) {
  // Serialized: concurrent reloads must not interleave their generation
  // assignment or race the carry-over inspection of the previous fleet.
  std::lock_guard<std::mutex> install_lock(install_mutex_);
  std::shared_ptr<const ModelFleet> previous = current_fleet();

  // One read serves both routing and parsing: the content decides whether
  // this is a fleet manifest or a bare artifact, and single-artifact loads
  // parse the same buffer instead of re-reading the file.
  const std::string bytes = read_file(path, "artifact or fleet manifest");
  std::shared_ptr<const ModelFleet> next;
  if (FleetManifest::looks_like_manifest(bytes)) {
    next = ModelFleet::load(path, previous.get(), generation_counter_,
                            config_.cache_capacity, config_.cache_shards,
                            metrics_);
  } else {
    next = ModelFleet::single("default", path, crc32_hex(crc32(bytes)),
                              load_surrogate(path, bytes),
                              generation_counter_, config_.cache_capacity,
                              config_.cache_shards, metrics_);
  }
  {
    std::lock_guard<std::mutex> lock(fleet_mutex_);
    fleet_ = next;
  }
  // The stats identity shows the served source; kind/encoder/space are the
  // default model's (the one keyless requests hit).
  const FleetModel& def = next->default_model();
  metrics_.set_artifact(path,
                        next->from_manifest() ? next->manifest_crc32()
                                              : def.crc32_hex,
                        def.model->kind(), def.model->encoder_key(),
                        def.model->spec().name);
}

std::shared_ptr<const ModelFleet> PredictionServer::current_fleet() const {
  std::lock_guard<std::mutex> lock(fleet_mutex_);
  return fleet_;
}

std::shared_ptr<const ModelFleet> PredictionServer::fleet() const {
  return current_fleet();
}

std::shared_ptr<const TrainableSurrogate> PredictionServer::model() const {
  return current_fleet()->default_model().model;
}

void PredictionServer::handle_request(const ParsedRequest& request,
                                      std::size_t wire_bytes,
                                      ReplyCallback done) {
  try {
    dispatch_request(request, wire_bytes, done);
  } catch (const std::exception& e) {
    // Backstop: no request, however malformed, may take down its
    // transport. Handlers borrow `done` and move it out only where a
    // completion takes it over, never before a step that can throw, so an
    // exception escaping here means `done` is still ours to answer.
    if (done) done(error_reply(ErrorCode::server_error, e.what()));
  }
}

void PredictionServer::dispatch_request(const ParsedRequest& request,
                                        std::size_t wire_bytes,
                                        ReplyCallback& done) {
  const bool is_search = request.verb == "search";
  const bool is_predict = request.verb == "predict" ||
                          request.verb == "predict_batch" || is_search;

  if (wire_bytes > config_.max_line_bytes) {
    is_predict ? metrics_.count_predict_error(metrics_.unrouted())
               : metrics_.count_control_line(true);
    done(error_reply(ErrorCode::oversized,
                     "request of " + std::to_string(wire_bytes) +
                         " bytes exceeds the " +
                         std::to_string(config_.max_line_bytes) +
                         "-byte limit"));
    return;
  }

  if (is_predict) {
    // Deadline sources, most specific first: the esm1 "deadline=<ms>"
    // payload token, the esm2 v2 frame field, then the server default.
    // Only a payload carrying the token is copied (to strip it).
    std::string_view payload = request.payload;
    std::uint32_t deadline_ms = request.deadline_ms;
    std::string stripped;
    if (payload.starts_with("deadline=")) {
      stripped = request.payload;
      std::string deadline_error;
      if (!extract_deadline_token(stripped, deadline_ms, deadline_error)) {
        metrics_.count_predict_error(metrics_.unrouted());
        done(error_reply(ErrorCode::bad_request, deadline_error));
        return;
      }
      payload = stripped;
    }
    if (deadline_ms == 0) deadline_ms = config_.default_deadline_ms;
    const Clock::time_point deadline =
        deadline_ms == 0 ? Clock::time_point::max()
                         : Clock::now() + std::chrono::milliseconds(
                                              deadline_ms);
    if (is_search) {
      // An empty payload is a valid search (every knob has a default).
      handle_search(std::string(payload), deadline, done);
      return;
    }
    if (payload.empty()) {
      metrics_.count_predict_error(metrics_.unrouted());
      done(error_reply(ErrorCode::bad_request,
                       request.verb == "predict"
                           ? "predict needs an architecture"
                           : "predict_batch needs ';'-separated "
                             "architectures"));
      return;
    }
    if (request.verb == "predict") {
      handle_predict(payload, deadline, done);
    } else {
      handle_predict_batch(payload, deadline, done);
    }
    return;
  }
  if (request.verb == "info") {
    // `info` takes an optional model key; validation happens inside.
    done(handle_info(request.payload));
    return;
  }
  if (request.verb == "models" || request.verb == "stats" ||
      request.verb == "shutdown") {
    if (!request.payload.empty()) {
      metrics_.count_control_line(true);
      done(error_reply(ErrorCode::bad_request,
                       request.verb + " takes no payload"));
      return;
    }
    metrics_.count_control_line(false);
    if (request.verb == "models") {
      done(handle_models());
      return;
    }
    if (request.verb == "stats") {
      done(handle_stats());
      return;
    }
    Reply reply = ok_reply("shutdown", "draining");
    reply.shutdown = true;
    done(std::move(reply));
    return;
  }
  if (request.verb == "reload") {
    if (request.payload.empty()) {
      metrics_.count_control_line(true);
      done(error_reply(ErrorCode::bad_request,
                       "reload needs a manifest or artifact path"));
      return;
    }
    done(handle_reload(request.payload));
    return;
  }
  metrics_.count_control_line(true);
  if (request.verb.empty()) {
    done(error_reply(ErrorCode::bad_request, "empty request line"));
    return;
  }
  done(error_reply(ErrorCode::unknown_verb,
                   "unknown verb '" + request.verb +
                       "' (predict, predict_batch, search, info, models, "
                       "stats, reload, shutdown)"));
}

const FleetModel* PredictionServer::route(
    const ModelFleet& fleet, std::string_view model_key,
    ReplyCallback& done) {
  const FleetModel* model = model_key.empty() ? &fleet.default_model()
                                              : fleet.find(model_key);
  if (model == nullptr) {
    metrics_.count_predict_error(metrics_.unrouted());
    done(error_reply(ErrorCode::unknown_model,
                     "unknown model '" + std::string(model_key) +
                         "' (see the models verb)"));
    return nullptr;
  }
  model->metrics->mark_routed();
  return model;
}

void PredictionServer::handle_predict(
    std::string_view payload, std::chrono::steady_clock::time_point deadline,
    ReplyCallback& done) {
  // A hit goes payload -> packed key -> cache -> reply: no ArchConfig and
  // no string beyond the reply's own payload.
  const RoutedPayload routed = split_model_key(payload);
  const std::shared_ptr<const ModelFleet> fleet = current_fleet();
  const FleetModel* model = route(*fleet, routed.model, done);
  if (model == nullptr) return;
  ModelMetrics* section = model->metrics;
  std::string key;
  try {
    key = arch_cache_key(model->model->spec(), model->generation, routed.rest);
  } catch (const ConfigError& e) {
    metrics_.count_predict_error(section);
    done(error_reply(ErrorCode::bad_arch, e.what()));
    return;
  }
  // Admission-time expiry: a dead-on-arrival request must not take a cache
  // or batch slot from live ones.
  if (deadline_passed(deadline, Clock::now())) {
    metrics_.count_predict_error(section, ServerMetrics::ErrorKind::expired);
    done(error_reply(ErrorCode::deadline_exceeded,
                     DeadlineExceededError().what()));
    return;
  }
  if (const std::optional<double> hit = model->cache->get(key)) {
    metrics_.count_archs(1, 0, section);
    metrics_.count_predict_line(true, section);
    done(ok_reply("predict", format_latency(*hit)));
    return;
  }
  metrics_.count_archs(0, 1, section);
  // Only a miss builds the ArchConfig, from the same text, for the batcher.
  ArchConfig arch = parse_arch_request(model->model->spec(), routed.rest);
  auto completion = [this, section, key, cache = model->cache,
                     done = std::move(done)](double value,
                                             std::exception_ptr error) {
    if (error == nullptr) {
      cache->put(key, value);
      metrics_.count_predict_line(false, section);
      done(ok_reply("predict", format_latency(value)));
      return;
    }
    try {
      std::rethrow_exception(error);
    } catch (const OverloadedError& e) {
      metrics_.count_predict_error(section, ServerMetrics::ErrorKind::shed);
      done(error_reply(ErrorCode::overloaded, e.what()));
    } catch (const DeadlineExceededError& e) {
      metrics_.count_predict_error(section,
                                   ServerMetrics::ErrorKind::expired);
      done(error_reply(ErrorCode::deadline_exceeded, e.what()));
    } catch (const ConfigError& e) {
      metrics_.count_predict_error(section);
      done(error_reply(ErrorCode::bad_arch, e.what()));
    } catch (const std::exception& e) {
      metrics_.count_predict_error(section);
      done(error_reply(ErrorCode::server_error, e.what()));
    }
  };
  try {
    enqueue(std::move(arch), std::shared_ptr<const FleetModel>(fleet, model),
            deadline, std::move(completion));
  } catch (const std::exception&) {
    // Wrapping the completion allocates before it moves from it, so a
    // failed wrap leaves `completion` (and the reply it owns) intact;
    // enqueue itself answers every failure once it holds the completion.
    completion(0.0, std::current_exception());
  }
}

void PredictionServer::handle_predict_batch(
    std::string_view payload, std::chrono::steady_clock::time_point deadline,
    ReplyCallback& done) {
  const RoutedPayload routed = split_model_key(payload);
  const std::shared_ptr<const ModelFleet> fleet = current_fleet();
  const FleetModel* model = route(*fleet, routed.model, done);
  if (model == nullptr) return;
  ModelMetrics* section = model->metrics;
  std::vector<KeyedArch> keys;
  try {
    keys = arch_cache_keys(model->model->spec(), model->generation,
                           routed.rest, config_.max_batch_archs);
  } catch (const ConfigError& e) {
    metrics_.count_predict_error(section);
    done(error_reply(ErrorCode::bad_arch, e.what()));
    return;
  }
  if (deadline_passed(deadline, Clock::now())) {
    metrics_.count_predict_error(section, ServerMetrics::ErrorKind::expired);
    done(error_reply(ErrorCode::deadline_exceeded,
                     DeadlineExceededError().what()));
    return;
  }

  // Hits are read and every miss's ArchConfig is built up front, so once
  // `remaining` is set the loop below does nothing but enqueue.
  struct Miss {
    std::size_t index;
    std::string key;
    ArchConfig arch;
  };
  std::vector<double> values(keys.size(), 0.0);
  std::vector<Miss> misses;
  std::uint64_t hit_count = 0;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    if (const std::optional<double> hit = model->cache->get(keys[i].key)) {
      values[i] = *hit;
      ++hit_count;
    } else {
      misses.push_back(
          Miss{i, std::move(keys[i].key),
               parse_arch_request(model->model->spec(), keys[i].text)});
    }
  }

  // Join state shared by the per-miss completions. Each completion writes
  // its own slot, so the only cross-thread coordination is the remaining
  // counter (acq_rel: the finalizing thread observes every slot write) and
  // the error mutex.
  struct BatchJoin {
    std::vector<double> values;
    ModelMetrics* section = nullptr;
    std::shared_ptr<PredictionCache> cache;
    ReplyCallback done;
    std::atomic<std::size_t> remaining{0};
    std::mutex error_mutex;
    std::exception_ptr first_error;
  };

  metrics_.count_archs(hit_count, misses.size(), section);
  if (misses.empty()) {
    metrics_.count_predict_line(true, section);
    done(ok_reply("predict_batch", batch_payload(values)));
    return;
  }
  auto join = std::make_shared<BatchJoin>();
  join->values = std::move(values);
  join->section = section;
  join->cache = model->cache;

  auto finalize = [this](BatchJoin& state) {
    if (state.first_error != nullptr) {
      try {
        std::rethrow_exception(state.first_error);
      } catch (const OverloadedError& e) {
        metrics_.count_predict_error(state.section,
                                     ServerMetrics::ErrorKind::shed);
        state.done(error_reply(ErrorCode::overloaded, e.what()));
      } catch (const DeadlineExceededError& e) {
        metrics_.count_predict_error(state.section,
                                     ServerMetrics::ErrorKind::expired);
        state.done(error_reply(ErrorCode::deadline_exceeded, e.what()));
      } catch (const ConfigError& e) {
        metrics_.count_predict_error(state.section);
        state.done(error_reply(ErrorCode::bad_arch, e.what()));
      } catch (const std::exception& e) {
        metrics_.count_predict_error(state.section);
        state.done(error_reply(ErrorCode::server_error, e.what()));
      }
      return;
    }
    metrics_.count_predict_line(false, state.section);
    state.done(ok_reply("predict_batch", batch_payload(state.values)));
  };

  // From here on the join owns the reply. The counter must reach its
  // full value before any completion can fire, so every miss is enqueued
  // only after `remaining` is set.
  join->done = std::move(done);
  join->remaining.store(misses.size(), std::memory_order_relaxed);
  const auto settle = [finalize](BatchJoin& state, std::size_t count,
                                 std::exception_ptr error) {
    if (error != nullptr) {
      std::lock_guard<std::mutex> lock(state.error_mutex);
      if (state.first_error == nullptr) state.first_error = error;
    }
    if (state.remaining.fetch_sub(count, std::memory_order_acq_rel) ==
        count) {
      finalize(state);
    }
  };
  std::size_t enqueued = 0;
  try {
    for (Miss& miss : misses) {
      enqueue(std::move(miss.arch),
              std::shared_ptr<const FleetModel>(fleet, model), deadline,
              [join, settle, index = miss.index, key = std::move(miss.key)](
                  double value, std::exception_ptr error) {
                if (error == nullptr) {
                  join->values[index] = value;
                  join->cache->put(key, value);
                }
                settle(*join, 1, error);
              });
      ++enqueued;
    }
  } catch (const std::exception&) {
    // A completion that could not be wrapped never reached the batcher,
    // nor did the misses after it: they settle here, as one error.
    settle(*join, misses.size() - enqueued, std::current_exception());
  }
}

void PredictionServer::handle_search(
    const std::string& payload, std::chrono::steady_clock::time_point deadline,
    ReplyCallback& done) {
  // Parse + validate inline so malformed queries reject without touching
  // the worker. Anything failing before a model is resolved attributes to
  // the "_unrouted" section, same as predict routing failures.
  search::SearchRequest request;
  try {
    request = search::parse_search_request(payload);
  } catch (const ConfigError& e) {
    metrics_.count_predict_error(metrics_.unrouted());
    done(error_reply(ErrorCode::bad_request, e.what()));
    return;
  }
  const std::shared_ptr<const ModelFleet> fleet = current_fleet();
  SearchJob job;
  job.config = request.config;
  job.limits_ms = request.limits_ms;
  job.deadline = deadline;
  if (request.models.empty()) {
    job.models.push_back(std::shared_ptr<const FleetModel>(
        fleet, &fleet->default_model()));
  } else {
    for (const std::string& name : request.models) {
      const FleetModel* model = fleet->find(name);
      if (model == nullptr) {
        metrics_.count_predict_error(metrics_.unrouted());
        done(error_reply(ErrorCode::unknown_model,
                         "unknown model '" + name +
                             "' (see the models verb)"));
        return;
      }
      job.models.push_back(std::shared_ptr<const FleetModel>(fleet, model));
    }
  }
  // The search line is attributed to the primary (first) model's section.
  job.section = job.models.front()->metrics;
  job.section->mark_routed();
  const std::string& space = job.models.front()->model->spec().name;
  for (const std::shared_ptr<const FleetModel>& model : job.models) {
    if (model->model->spec().name != space) {
      metrics_.count_predict_error(job.section);
      done(error_reply(ErrorCode::bad_request,
                       "search models must share one space; '" +
                           model->name + "' serves " +
                           model->model->spec().name + ", not " + space));
      return;
    }
  }
  const std::size_t budget =
      request.config.population *
      (static_cast<std::size_t>(request.config.generations) + 1);
  if (config_.max_search_evals != 0 && budget > config_.max_search_evals) {
    metrics_.count_predict_error(job.section);
    done(error_reply(ErrorCode::bad_request,
                     "search budget of " + std::to_string(budget) +
                         " evaluations exceeds the server cap of " +
                         std::to_string(config_.max_search_evals)));
    return;
  }
  try {
    // Engine-config validation (probability ranges, fastest-mode floor)
    // happens here so the requester gets bad_request inline, not a
    // server_error from the worker.
    search::SearchEngine(job.models.front()->model->spec(), request.config);
  } catch (const ConfigError& e) {
    metrics_.count_predict_error(job.section);
    done(error_reply(ErrorCode::bad_request, e.what()));
    return;
  }
  // Admission-time expiry, same rule as predictions.
  if (deadline_passed(deadline, Clock::now())) {
    metrics_.count_predict_error(job.section,
                                 ServerMetrics::ErrorKind::expired);
    done(error_reply(ErrorCode::deadline_exceeded,
                     DeadlineExceededError().what()));
    return;
  }
  job.done = std::move(done);
  bool shed = false;
  try {
    std::lock_guard<std::mutex> lock(search_mutex_);
    if (config_.max_search_queue != 0 &&
        search_queue_.size() + search_inflight_ >= config_.max_search_queue) {
      shed = true;
    } else {
      search_queue_.push_back(std::move(job));  // strong guarantee
    }
  } catch (const std::exception& e) {
    metrics_.count_predict_error(job.section);
    job.done(error_reply(ErrorCode::server_error, e.what()));
    return;
  }
  if (shed) {
    metrics_.count_predict_error(job.section, ServerMetrics::ErrorKind::shed);
    job.done(error_reply(ErrorCode::overloaded,
                         "server overloaded: search queue full"));
    return;
  }
  search_cv_.notify_one();
}

void PredictionServer::search_loop() {
  for (;;) {
    SearchJob job;
    {
      std::unique_lock<std::mutex> lock(search_mutex_);
      search_cv_.wait(
          lock, [this] { return !search_queue_.empty() || search_stop_; });
      if (search_queue_.empty()) return;
      job = std::move(search_queue_.front());
      search_queue_.pop_front();
      ++search_inflight_;
    }
    try {
      // Dequeue-time expiry: a search whose deadline lapsed while waiting
      // behind another must not burn the worker.
      if (deadline_passed(job.deadline, Clock::now())) {
        throw DeadlineExceededError();
      }
      const SupernetSpec& spec = job.models.front()->model->spec();
      const search::SearchEngine engine(spec, job.config);
      const AccuracyProxy proxy(spec);
      std::vector<search::Objective> objectives;
      objectives.reserve(job.models.size());
      for (std::size_t i = 0; i < job.models.size(); ++i) {
        search::Objective objective;
        objective.name = job.models[i]->name;
        objective.predictor = job.models[i]->model.get();
        objective.limit_ms =
            job.limits_ms.empty() ? 0.0 : job.limits_ms[i];
        objectives.push_back(std::move(objective));
      }
      // Deadlines keep cutting between generations; a server drain does
      // NOT cancel an admitted search (drain answers everything admitted).
      const search::SearchOutcome outcome = engine.run(
          objectives, proxy, [deadline = job.deadline] {
            return deadline_passed(deadline, Clock::now());
          });
      metrics_.count_search(outcome.evaluations);
      metrics_.count_predict_line(false, job.section);
      job.done(ok_reply(
          "search", search::format_front_payload(spec, job.config, outcome)));
    } catch (const search::SearchCancelled&) {
      metrics_.count_predict_error(job.section,
                                   ServerMetrics::ErrorKind::expired);
      job.done(error_reply(ErrorCode::deadline_exceeded,
                           DeadlineExceededError().what()));
    } catch (const DeadlineExceededError& e) {
      metrics_.count_predict_error(job.section,
                                   ServerMetrics::ErrorKind::expired);
      job.done(error_reply(ErrorCode::deadline_exceeded, e.what()));
    } catch (const ConfigError& e) {
      metrics_.count_predict_error(job.section);
      job.done(error_reply(ErrorCode::bad_request, e.what()));
    } catch (const std::exception& e) {
      metrics_.count_predict_error(job.section);
      job.done(error_reply(ErrorCode::server_error, e.what()));
    }
    {
      std::lock_guard<std::mutex> lock(search_mutex_);
      --search_inflight_;
    }
  }
}

Reply PredictionServer::handle_info(const std::string& payload) {
  const std::shared_ptr<const ModelFleet> fleet = current_fleet();
  const FleetModel* model = nullptr;
  if (payload.empty()) {
    model = &fleet->default_model();
  } else {
    model = fleet->find(payload);
    if (model == nullptr) {
      metrics_.count_control_line(true);
      return error_reply(ErrorCode::unknown_model,
                         "unknown model '" + payload +
                             "' (see the models verb)");
    }
  }
  metrics_.count_control_line(false);
  const MetricsSnapshot snap = metrics_.snapshot();
  std::ostringstream os;
  os << "proto=1 model=" << model->name << " kind=" << model->model->kind()
     << " encoder=" << model->model->encoder_key()
     << " space=" << model->model->spec().name
     << " generation=" << model->generation
     << " models=" << fleet->models().size()
     << " default=" << fleet->default_model().name
     << " reloads=" << snap.reloads
     << " cache_capacity=" << config_.cache_capacity
     << " artifact_crc32=" << model->crc32_hex
     << " artifact=" << model->artifact_path;
  if (fleet->from_manifest()) {
    os << " manifest_crc32=" << fleet->manifest_crc32()
       << " manifest=" << fleet->source_path();
  }
  return ok_reply("info", os.str());
}

Reply PredictionServer::handle_models() {
  const std::shared_ptr<const ModelFleet> fleet = current_fleet();
  std::ostringstream os;
  for (std::size_t i = 0; i < fleet->models().size(); ++i) {
    if (i > 0) os << ' ';
    os << fleet->models()[i].name;
  }
  return ok_reply("models", os.str());
}

Reply PredictionServer::handle_stats() {
  const std::shared_ptr<const ModelFleet> fleet = current_fleet();
  std::size_t cache_size = 0;
  for (const FleetModel& model : fleet->models()) {
    cache_size += model.cache->size();
  }
  std::string payload = ServerMetrics::stats_payload(metrics_.snapshot());
  payload += " models=" + std::to_string(fleet->models().size()) +
             " cache_size=" + std::to_string(cache_size) +
             " cache_capacity=" + std::to_string(config_.cache_capacity);
  return ok_reply("stats", payload);
}

Reply PredictionServer::handle_reload(const std::string& path) {
  try {
    install_source(path);
  } catch (const std::exception& e) {
    // The old fleet keeps serving; install_source swaps only after every
    // entry of the new fleet loaded (all-or-nothing).
    metrics_.count_control_line(true);
    return error_reply(ErrorCode::reload_failed, e.what());
  }
  metrics_.count_control_line(false);
  metrics_.count_reload();
  const std::shared_ptr<const ModelFleet> fleet = current_fleet();
  const FleetModel& def = fleet->default_model();
  return ok_reply("reload",
                  "models=" + std::to_string(fleet->models().size()) +
                      " default=" + def.name + " generation=" +
                      std::to_string(def.generation) + " source=" + path);
}

void PredictionServer::enqueue(
    ArchConfig arch, std::shared_ptr<const FleetModel> model,
    std::chrono::steady_clock::time_point deadline,
    std::function<void(double, std::exception_ptr)> done) {
  Pending pending;
  pending.arch = std::move(arch);
  pending.model = std::move(model);
  pending.deadline = deadline;
  pending.done = std::move(done);
  std::exception_ptr rejected;
  try {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    // Admission control: shed instead of queueing unboundedly. The caller
    // gets the rejection inline (never a stall), and nothing was admitted,
    // so the drain guarantee ("every admitted entry is answered") holds.
    const bool queue_full =
        config_.max_queue != 0 && queue_.size() >= config_.max_queue;
    const bool inflight_full =
        config_.max_inflight != 0 &&
        queue_.size() + inflight_ >= config_.max_inflight;
    if (queue_full || inflight_full) {
      rejected = std::make_exception_ptr(OverloadedError());
    } else {
      queue_.push_back(std::move(pending));  // strong guarantee
    }
  } catch (const std::exception&) {
    rejected = std::current_exception();  // the queue could not grow
  }
  if (rejected != nullptr) {
    pending.done(0.0, rejected);
    return;
  }
  queue_cv_.notify_one();
}

void PredictionServer::batcher_loop() {
  // Degraded mode: under sustained queue pressure the dispatch cap halves,
  // so rounds turn around faster and deadline checks run more often; the
  // mode lifts once the queue falls well below the pressure threshold.
  const std::size_t pressure_threshold =
      config_.max_queue > 0
          ? std::max<std::size_t>(1, config_.max_queue / 2)
          : config_.max_batch * 2;
  constexpr std::size_t kPressureRoundsToDegrade = 4;
  std::size_t pressure_rounds = 0;
  bool degraded = false;
  for (;;) {
    std::vector<Pending> drained;
    {
      std::unique_lock<std::mutex> lock(queue_mutex_);
      queue_cv_.wait(lock,
                     [this] { return !queue_.empty() || batcher_stop_; });
      if (queue_.empty()) {
        // Stop requested and queue drained.
        if (degraded) metrics_.set_degraded(false);
        return;
      }
      const std::size_t depth = queue_.size();
      if (depth >= pressure_threshold) {
        if (++pressure_rounds >= kPressureRoundsToDegrade && !degraded) {
          degraded = true;
          metrics_.set_degraded(true);
        }
      } else {
        pressure_rounds = 0;
        if (degraded && depth <= pressure_threshold / 2) {
          degraded = false;
          metrics_.set_degraded(false);
        }
      }
      const std::size_t batch_cap =
          degraded ? std::max<std::size_t>(1, config_.max_batch / 2)
                   : config_.max_batch;
      // Everything that accumulated while the previous round was in
      // flight coalesces into this round (bounded by the round's cap).
      const std::size_t n = std::min(depth, batch_cap);
      drained.reserve(n);
      for (std::size_t i = 0; i < n; ++i) {
        drained.push_back(std::move(queue_.front()));
        queue_.pop_front();
      }
      inflight_ += n;
    }
    // Dequeue-time expiry: entries whose deadline passed while queued are
    // answered without spending a predict_all slot on them.
    const Clock::time_point now = Clock::now();
    std::vector<char> expired(drained.size(), 0);
    for (std::size_t i = 0; i < drained.size(); ++i) {
      if (deadline_passed(drained[i].deadline, now)) {
        expired[i] = 1;
        drained[i].done(0.0,
                        std::make_exception_ptr(DeadlineExceededError()));
      }
    }
    // Group by model: each group is one predict_all dispatch against the
    // model instance the requests were routed to. Entries keep their fleet
    // snapshot alive, so a concurrent reload never invalidates a group.
    std::vector<std::pair<const FleetModel*, std::vector<std::size_t>>>
        groups;
    for (std::size_t i = 0; i < drained.size(); ++i) {
      if (expired[i]) continue;
      const FleetModel* key = drained[i].model.get();
      bool found = false;
      for (auto& group : groups) {
        if (group.first == key) {
          group.second.push_back(i);
          found = true;
          break;
        }
      }
      if (!found) groups.emplace_back(key, std::vector<std::size_t>{i});
    }
    for (const auto& [model, indices] : groups) {
      std::vector<ArchConfig> archs;
      archs.reserve(indices.size());
      for (std::size_t i : indices) archs.push_back(drained[i].arch);
      metrics_.count_batch(indices.size());
      try {
        const std::vector<double> values = model->model->predict_all(archs);
        for (std::size_t k = 0; k < indices.size(); ++k) {
          drained[indices[k]].done(values[k], nullptr);
        }
      } catch (...) {
        // Per-arch fallback: one failing architecture (e.g. a layer a
        // device-less LUT never profiled) must not poison the coalesced
        // requests of other clients.
        for (std::size_t i : indices) {
          Pending& p = drained[i];
          double value = 0.0;
          std::exception_ptr error;
          try {
            value = model->model->predict_ms(p.arch);
          } catch (...) {
            error = std::current_exception();
          }
          p.done(value, error);
        }
      }
    }
    {
      std::lock_guard<std::mutex> lock(queue_mutex_);
      inflight_ -= drained.size();
    }
  }
}

void PredictionServer::summary_loop() {
  std::unique_lock<std::mutex> lock(stop_mutex_);
  const auto period = std::chrono::duration<double>(config_.summary_period_s);
  while (!stop_requested_) {
    stop_cv_.wait_for(lock, period, [this] { return stop_requested_; });
    if (stop_requested_) break;
    lock.unlock();
    std::fprintf(stderr, "%s\n",
                 ServerMetrics::summary_line(metrics_.snapshot()).c_str());
    lock.lock();
  }
}

void PredictionServer::request_stop() {
  {
    std::lock_guard<std::mutex> lock(stop_mutex_);
    stop_requested_ = true;
  }
  stop_cv_.notify_all();
}

void PredictionServer::wait() {
  {
    std::unique_lock<std::mutex> lock(stop_mutex_);
    stop_cv_.wait(lock, [this] { return stop_requested_; });
    if (joined_) return;
    if (joining_) {
      stop_cv_.wait(lock, [this] { return joined_; });
      return;
    }
    joining_ = true;
  }
  // The batcher finishes every queued prediction before exiting, so
  // completions a front end is still waiting on all fire.
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    batcher_stop_ = true;
  }
  queue_cv_.notify_all();
  if (batcher_thread_.joinable()) batcher_thread_.join();
  // The search worker finishes every admitted search before exiting, same
  // drain guarantee as the batcher.
  {
    std::lock_guard<std::mutex> lock(search_mutex_);
    search_stop_ = true;
  }
  search_cv_.notify_all();
  if (search_thread_.joinable()) search_thread_.join();
  if (summary_thread_.joinable()) summary_thread_.join();
  {
    std::lock_guard<std::mutex> lock(stop_mutex_);
    joined_ = true;
  }
  stop_cv_.notify_all();
}

}  // namespace esm::serve
