#include "serve/server.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <sstream>
#include <thread>
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

constexpr const char* kShedDetail = "server overloaded: admission queue full";
constexpr const char* kExpiredDetail =
    "deadline passed before the request was served";

Reply ok_reply(std::string verb, std::string payload) {
  Reply reply;
  reply.verb = std::move(verb);
  reply.payload = std::move(payload);
  return reply;
}

bool deadline_passed(Clock::time_point deadline, Clock::time_point now) {
  return deadline != Clock::time_point::max() && now >= deadline;
}

bool is_prediction_verb(const std::string& verb) {
  return verb == "predict" || verb == "predict_batch" || verb == "search";
}

/// Hands a callback its one answer. A callback that throws has nowhere
/// left to report to; swallowing it keeps the caller (the reactor or the
/// search thread) alive, and nothing answers it again.
template <typename Callback, typename... Args>
void answer(Callback& done, Args&&... args) noexcept {
  try {
    done(std::forward<Args>(args)...);
  } catch (...) {
  }
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
  // Throws before any thread starts when the config or the fleet cannot
  // be loaded, so a failed construction needs no teardown.
  ESM_REQUIRE(config_.max_batch >= 1,
              "max_batch must be at least 1: a round of 0 archs never "
              "drains the queue");
  install_source(config_.artifact_path);
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
  std::shared_ptr<const ModelFleet> previous = fleet();

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

std::shared_ptr<const ModelFleet> PredictionServer::fleet() const {
  std::lock_guard<std::mutex> lock(fleet_mutex_);
  return fleet_;
}

std::shared_ptr<const TrainableSurrogate> PredictionServer::model() const {
  return fleet()->default_model().model;
}

Reply PredictionServer::fail(ModelMetrics* section, ErrorCode code,
                             std::string detail) {
  Reply reply;
  reply.ok = false;
  reply.code = code;
  reply.payload = std::move(detail);
  metrics_.count_error(section, code);
  return reply;
}

Reply PredictionServer::fail(ModelMetrics* section, std::exception_ptr error,
                             ErrorCode config_code) {
  try {
    std::rethrow_exception(error);
  } catch (const ConfigError& e) {
    return fail(section, config_code, e.what());
  } catch (const search::SearchCancelled&) {
    return fail(section, ErrorCode::deadline_exceeded, kExpiredDetail);
  } catch (const std::exception& e) {
    return fail(section, ErrorCode::server_error, e.what());
  }
}

void PredictionServer::handle_request(const ParsedRequest& request,
                                      std::size_t wire_bytes,
                                      ReplyCallback done) {
  ModelMetrics* section =
      is_prediction_verb(request.verb) ? metrics_.unrouted() : nullptr;
  std::optional<Reply> reply;
  try {
    reply = dispatch_request(request, wire_bytes, section, done);
  } catch (const std::exception&) {
    // Backstop: no request, however malformed, may take down its
    // transport. While `done` is set nobody answered or counted the line,
    // and it counts on the section it routed to; once a queued line or
    // search took `done` over, its worker answers.
    if (!done) return;
    reply = fail(section, std::current_exception(),
                 ErrorCode::server_error);
  }
  // Invoked outside the try, so a callback that throws is never answered a
  // second time by the backstop.
  if (reply && done) answer(done, std::move(*reply));
}

std::optional<Reply> PredictionServer::dispatch_request(
    const ParsedRequest& request, std::size_t wire_bytes,
    ModelMetrics*& section, ReplyCallback& done) {
  const bool is_search = request.verb == "search";
  const bool is_predict = is_prediction_verb(request.verb);

  if (wire_bytes > config_.max_line_bytes) {
    return fail(section, ErrorCode::oversized,
                "request of " + std::to_string(wire_bytes) +
                    " bytes exceeds the " +
                    std::to_string(config_.max_line_bytes) + "-byte limit");
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
        return fail(section, ErrorCode::bad_request,
                    std::move(deadline_error));
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
      return handle_search(std::string(payload), deadline, section, done);
    }
    if (payload.empty()) {
      return fail(section, ErrorCode::bad_request,
                  request.verb == "predict"
                      ? "predict needs an architecture"
                      : "predict_batch needs ';'-separated architectures");
    }
    return handle_predict(payload, request.verb == "predict_batch",
                          deadline, section, done);
  }
  if (request.verb == "info") {
    // `info` takes an optional model key; validation happens inside.
    return handle_info(request.payload);
  }
  if (request.verb == "models" || request.verb == "stats" ||
      request.verb == "shutdown") {
    if (!request.payload.empty()) {
      return fail(nullptr, ErrorCode::bad_request,
                  request.verb + " takes no payload");
    }
    if (request.verb == "stats") return handle_stats();
    Reply reply = request.verb == "models" ? handle_models()
                                           : ok_reply("shutdown", "draining");
    reply.shutdown = request.verb == "shutdown";
    metrics_.count_control_line();
    return reply;
  }
  if (request.verb == "reload") {
    if (request.payload.empty()) {
      return fail(nullptr, ErrorCode::bad_request,
                  "reload needs a manifest or artifact path");
    }
    return handle_reload(request.payload);
  }
  if (request.verb.empty()) {
    return fail(nullptr, ErrorCode::bad_request, "empty request line");
  }
  return fail(nullptr, ErrorCode::unknown_verb,
              "unknown verb '" + request.verb +
                  "' (predict, predict_batch, search, info, models, "
                  "stats, reload, shutdown)");
}

const FleetModel* PredictionServer::route(const ModelFleet& fleet,
                                          std::string_view model_key) {
  const FleetModel* model = model_key.empty() ? &fleet.default_model()
                                              : fleet.find(model_key);
  if (model != nullptr) model->metrics->mark_routed();
  return model;
}

Reply PredictionServer::unknown_model(ModelMetrics* section,
                                      std::string_view key) {
  return fail(section, ErrorCode::unknown_model,
              "unknown model '" + std::string(key) +
                  "' (see the models verb)");
}

std::optional<Reply> PredictionServer::handle_predict(
    std::string_view payload, bool batch,
    std::chrono::steady_clock::time_point deadline, ModelMetrics*& section,
    ReplyCallback& done) {
  const RoutedPayload routed = split_model_key(payload);
  std::shared_ptr<const ModelFleet> fleet = this->fleet();
  const FleetModel* model = route(*fleet, routed.model);
  if (model == nullptr) return unknown_model(section, routed.model);
  section = model->metrics;
  const SupernetSpec& spec = model->model->spec();
  std::string key;
  std::vector<KeyedArch> keys;
  try {
    if (batch) {
      keys = arch_cache_keys(spec, model->generation, routed.rest,
                             config_.max_batch_archs);
    } else {
      key = arch_cache_key(spec, model->generation, routed.rest);
    }
  } catch (...) {
    return fail(section, std::current_exception(), ErrorCode::bad_arch);
  }
  // Admission-time expiry: a dead-on-arrival request must not take a cache
  // or batch slot from live ones.
  if (deadline_passed(deadline, Clock::now())) {
    return fail(section, ErrorCode::deadline_exceeded, kExpiredDetail);
  }

  // Hits are read and every miss's ArchConfig is built from the same text
  // here, so flush() only prices. A single predict's hit goes payload
  // -> packed key -> cache -> reply: no ArchConfig and no string beyond
  // the reply's own payload.
  Pending line;
  line.batch = batch;
  if (!batch) {
    if (const std::optional<double> hit = model->cache->get(key)) {
      Reply reply = ok_reply("predict", format_latency(*hit));
      metrics_.count_arch_hits(1, section);
      metrics_.count_predict_line(true, section);
      return reply;
    }
    line.values.assign(1, 0.0);
    line.misses.push_back(
        Miss{0, std::move(key), parse_arch_request(spec, routed.rest)});
  } else {
    line.values.assign(keys.size(), 0.0);
    for (std::size_t i = 0; i < keys.size(); ++i) {
      if (const std::optional<double> hit = model->cache->get(keys[i].key)) {
        line.values[i] = *hit;
      } else {
        line.misses.push_back(
            Miss{i, std::move(keys[i].key),
                 parse_arch_request(spec, keys[i].text)});
      }
    }
    const std::uint64_t hits = keys.size() - line.misses.size();
    if (line.misses.empty()) {
      Reply reply = ok_reply("predict_batch", batch_payload(line.values));
      metrics_.count_arch_hits(hits, section);
      metrics_.count_predict_line(true, section);
      return reply;
    }
    // The line's hits count now; each miss counts in the batch that
    // prices it, and a shed line's misses in none.
    metrics_.count_arch_hits(hits, section);
  }
  line.model = std::shared_ptr<const FleetModel>(std::move(fleet), model);
  line.deadline = deadline;
  return enqueue(line, done);
}

std::optional<Reply> PredictionServer::handle_search(
    const std::string& payload, std::chrono::steady_clock::time_point deadline,
    ModelMetrics*& section, ReplyCallback& done) {
  // Parse + validate inline so malformed queries reject without touching
  // the worker. Anything failing before a model is resolved attributes to
  // the "_unrouted" section, same as predict routing failures.
  search::SearchRequest request;
  try {
    request = search::parse_search_request(payload);
  } catch (...) {
    return fail(section, std::current_exception(),
                ErrorCode::bad_request);
  }
  const std::shared_ptr<const ModelFleet> fleet = this->fleet();
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
      if (model == nullptr) return unknown_model(section, name);
      job.models.push_back(std::shared_ptr<const FleetModel>(fleet, model));
    }
  }
  // The search line is attributed to the primary (first) model's section.
  job.section = job.models.front()->metrics;
  job.section->mark_routed();
  section = job.section;
  const std::string& space = job.models.front()->model->spec().name;
  for (const std::shared_ptr<const FleetModel>& model : job.models) {
    if (model->model->spec().name != space) {
      return fail(job.section, ErrorCode::bad_request,
                  "search models must share one space; '" + model->name +
                      "' serves " + model->model->spec().name + ", not " +
                      space);
    }
  }
  const std::size_t budget =
      request.config.population *
      (static_cast<std::size_t>(request.config.generations) + 1);
  if (config_.max_search_evals != 0 && budget > config_.max_search_evals) {
    return fail(job.section, ErrorCode::bad_request,
                "search budget of " + std::to_string(budget) +
                    " evaluations exceeds the server cap of " +
                    std::to_string(config_.max_search_evals));
  }
  try {
    // Engine-config validation (probability ranges, fastest-mode floor)
    // happens here so the requester gets bad_request inline, not a
    // server_error from the worker.
    search::SearchEngine(job.models.front()->model->spec(), request.config);
  } catch (...) {
    return fail(job.section, std::current_exception(),
                ErrorCode::bad_request);
  }
  // Admission-time expiry, same rule as predictions.
  if (deadline_passed(deadline, Clock::now())) {
    return fail(job.section, ErrorCode::deadline_exceeded, kExpiredDetail);
  }
  bool shed = false;
  try {
    std::lock_guard<std::mutex> lock(search_mutex_);
    shed = config_.max_search_queue != 0 &&
           search_queue_.size() + search_inflight_ >=
               config_.max_search_queue;
    if (!shed) {
      // The job takes `done` over only once the queue has grown.
      search_queue_.emplace_back();
      job.done = std::move(done);
      search_queue_.back() = std::move(job);
    }
  } catch (...) {
    return fail(job.section, std::current_exception(),
                ErrorCode::bad_request);
  }
  if (shed) {
    return fail(job.section, ErrorCode::overloaded,
                "server overloaded: search queue full");
  }
  search_cv_.notify_one();
  return std::nullopt;
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
    // The reply is decided in full before `done` runs, so a completion
    // that throws is never answered a second time.
    Reply reply;
    try {
      // Dequeue-time expiry: a search whose deadline lapsed while waiting
      // behind another must not burn the worker.
      if (deadline_passed(job.deadline, Clock::now())) {
        reply = fail(job.section, ErrorCode::deadline_exceeded,
                     kExpiredDetail);
      } else {
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
        // NOT cancel an admitted search (drain answers everything
        // admitted).
        const search::SearchOutcome outcome = engine.run(
            objectives, proxy, [deadline = job.deadline] {
              return deadline_passed(deadline, Clock::now());
            });
        reply = ok_reply("search", search::format_front_payload(
                                       spec, job.config, outcome));
        metrics_.count_search(outcome.evaluations);
        metrics_.count_predict_line(false, job.section);
      }
    } catch (...) {
      reply = fail(job.section, std::current_exception(),
                   ErrorCode::bad_request);
    }
    answer(job.done, std::move(reply));
    {
      std::lock_guard<std::mutex> lock(search_mutex_);
      --search_inflight_;
    }
  }
}

Reply PredictionServer::handle_info(const std::string& payload) {
  const std::shared_ptr<const ModelFleet> fleet = this->fleet();
  const FleetModel* model =
      payload.empty() ? &fleet->default_model() : fleet->find(payload);
  if (model == nullptr) return unknown_model(nullptr, payload);
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
  Reply reply = ok_reply("info", os.str());
  metrics_.count_control_line();
  return reply;
}

Reply PredictionServer::handle_models() {
  const std::shared_ptr<const ModelFleet> fleet = this->fleet();
  std::ostringstream os;
  for (std::size_t i = 0; i < fleet->models().size(); ++i) {
    if (i > 0) os << ' ';
    os << fleet->models()[i].name;
  }
  return ok_reply("models", os.str());
}

Reply PredictionServer::handle_stats() {
  const std::shared_ptr<const ModelFleet> fleet = this->fleet();
  std::size_t cache_size = 0;
  for (const FleetModel& model : fleet->models()) {
    cache_size += model.cache->size();
  }
  // The payload counts this stats line itself, which is recorded once
  // the reply is built.
  MetricsSnapshot snap = metrics_.snapshot();
  ++snap.control_requests;
  std::string payload = ServerMetrics::stats_payload(snap);
  payload += " models=" + std::to_string(fleet->models().size()) +
             " cache_size=" + std::to_string(cache_size) +
             " cache_capacity=" + std::to_string(config_.cache_capacity);
  Reply reply = ok_reply("stats", std::move(payload));
  metrics_.count_control_line();
  return reply;
}

Reply PredictionServer::handle_reload(const std::string& path) {
  try {
    install_source(path);
  } catch (const std::exception& e) {
    // The old fleet keeps serving; install_source swaps only after every
    // entry of the new fleet loaded (all-or-nothing).
    return fail(nullptr, ErrorCode::reload_failed, e.what());
  }
  metrics_.count_reload();
  const std::shared_ptr<const ModelFleet> fleet = this->fleet();
  const FleetModel& def = fleet->default_model();
  Reply reply =
      ok_reply("reload", "models=" + std::to_string(fleet->models().size()) +
                             " default=" + def.name + " generation=" +
                             std::to_string(def.generation) +
                             " source=" + path);
  metrics_.count_control_line();
  return reply;
}

std::optional<Reply> PredictionServer::enqueue(Pending& line,
                                               ReplyCallback& done) {
  ModelMetrics* section = line.model->metrics;
  const std::size_t archs = line.misses.size();
  bool shed = false;
  try {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    // Admission control: shed instead of queueing unboundedly. The cap
    // counts the miss archs admitted but not yet answered; a line is
    // admitted or shed whole, inline (never a stall), and one larger than
    // the cap is admitted when nothing else is. Nothing shed was admitted,
    // so the drain guarantee ("every admitted line is answered") holds.
    const std::size_t load = admitted_archs_.load(std::memory_order_relaxed);
    shed = config_.max_queue != 0 && load != 0 &&
           load + archs > config_.max_queue;
    if (!shed) {
      // The line takes `done` over only once the queue has grown.
      queue_.emplace_back();
      line.done = std::move(done);
      queue_.back() = std::move(line);
      admitted_archs_.fetch_add(archs, std::memory_order_release);
    }
  } catch (...) {
    return fail(section, std::current_exception(), ErrorCode::bad_arch);
  }
  if (shed) return fail(section, ErrorCode::overloaded, kShedDetail);
  return std::nullopt;
}

bool PredictionServer::flush() {
  // A wakeup with nothing admitted reads two atomics: no lock, no syscall.
  // Only a degraded gauge left set takes the lock when idle, so the lift
  // rule below can clear it at a load of 0.
  if (admitted_archs_.load(std::memory_order_acquire) == 0 &&
      !degraded_.load(std::memory_order_relaxed)) {
    return false;
  }
  std::lock_guard<std::mutex> flush_lock(flush_mutex_);
  // Degraded mode, under admission control: once four rounds in a row
  // start with the admitted misses at half of max_queue or more, the round
  // cap halves, so the reactor returns to its sockets sooner and admission
  // frees slots in smaller steps (DESIGN.md §6j measured the goodput this
  // buys); the mode lifts once the load falls to a quarter of the cap.
  bool degraded = degraded_.load(std::memory_order_relaxed);
  if (config_.max_queue != 0) {
    const std::size_t half = std::max<std::size_t>(1, config_.max_queue / 2);
    const std::size_t load = admitted_archs_.load(std::memory_order_relaxed);
    pressure_rounds_ = load >= half ? pressure_rounds_ + 1 : 0;
    if (!degraded && pressure_rounds_ >= 4) {
      degraded = true;
      degraded_.store(true, std::memory_order_relaxed);
      metrics_.set_degraded(true);
    } else if (degraded && load <= half / 2) {
      degraded = false;
      degraded_.store(false, std::memory_order_relaxed);
      metrics_.set_degraded(false);
    }
  }
  const std::size_t cap =
      degraded ? std::max<std::size_t>(1, config_.max_batch / 2)
               : config_.max_batch;
  // Whole lines, oldest first, until the round holds `cap` unpriced archs:
  // everything admitted since the last call coalesces into this one, and
  // only the last line may be priced in part.
  std::size_t archs = 0;
  for (const Pending& line : round_) archs += line.misses.size() - line.priced;
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    try {
      for (; !queue_.empty() && archs < cap; queue_.pop_front()) {
        round_.push_back(std::move(queue_.front()));
        archs += round_.back().misses.size();
      }
    } catch (...) {
      // No room in the round: the lines left wait for the next call.
    }
  }
  // Dequeue-time expiry: a line whose deadline passed while it waited is
  // answered before anything is priced, and spends no predict_all slot.
  const Clock::time_point now = Clock::now();
  std::size_t live = 0;
  for (std::size_t i = 0; i < round_.size(); ++i) {
    if (round_[i].priced == 0 && deadline_passed(round_[i].deadline, now)) {
      finish(round_[i], true);
    } else if (live++ != i) {
      round_[live - 1] = std::move(round_[i]);
    }
  }
  round_.resize(live);
  price_round(cap);
  // Every fully priced line is answered; a partly priced last one stays
  // for the next call.
  for (Pending& line : round_) {
    if (line.priced == line.misses.size()) finish(line);
  }
  if (!round_.empty() && round_.back().priced < round_.back().misses.size()) {
    round_.erase(round_.begin(), round_.end() - 1);
  } else {
    round_.clear();
  }
  return admitted_archs_.load(std::memory_order_acquire) != 0;
}

void PredictionServer::price_round(std::size_t cap) {
  // Every line but the last is priced whole: lines join a round only while
  // it holds fewer than `cap` archs. The last leaves `over` for later.
  std::size_t archs = 0;
  for (const Pending& line : round_) archs += line.misses.size() - line.priced;
  const std::size_t over = archs > cap ? archs - cap : 0;
  const auto end_of = [this, over](const Pending& line) {
    return line.misses.size() - (&line == &round_.back() ? over : 0);
  };
  try {
    batch_.reserve(archs - over);
  } catch (...) {
    // No room to batch the round: its lines take the failure, and none of
    // their misses counts as priced.
    for (Pending& line : round_) {
      if (!line.error) line.error = std::current_exception();
      line.priced = end_of(line);
    }
    return;
  }
  // One predict_all call per model, models in the order the round first
  // names them and each model's misses in line order: a group is priced
  // against the model instance its lines were routed to, which their fleet
  // snapshot keeps alive through a concurrent reload.
  for (auto first = round_.begin(); first != round_.end(); ++first) {
    const FleetModel* model = first->model.get();
    const auto routed_here = [model](const Pending& line) {
      return line.model.get() == model;
    };
    if (std::any_of(round_.begin(), first, routed_here)) continue;
    // The group's archs move into the batch, uncopied.
    batch_.clear();
    for (auto line = first; line != round_.end(); ++line) {
      if (!routed_here(*line)) continue;
      for (std::size_t m = line->priced; m < end_of(*line); ++m) {
        batch_.push_back(std::move(line->misses[m].arch));
      }
    }
    metrics_.count_batch(batch_.size(), model->metrics);
    std::vector<double> values;  // stays empty when the batch fails
    try {
      values = model->model->predict_all(batch_);
    } catch (...) {
      // Per-arch fallback below: one failing architecture (e.g. a layer a
      // device-less LUT never profiled) must not poison the coalesced
      // lines of other clients.
    }
    std::size_t k = 0;
    for (auto line = first; line != round_.end(); ++line) {
      if (!routed_here(*line)) continue;
      for (const std::size_t end = end_of(*line); line->priced < end; ++k) {
        const Miss& miss = line->misses[line->priced++];
        try {
          line->values[miss.index] =
              values.empty() ? model->model->predict_ms(batch_[k]) : values[k];
        } catch (...) {
          // Priced alone, the arch failed: its line keeps the first failure.
          if (!line->error) line->error = std::current_exception();
        }
      }
    }
  }
  batch_.clear();
}

void PredictionServer::finish(Pending& line, bool expired) noexcept {
  // The reply is decided in full before `done` runs, exactly once; a
  // failure to cache or format the values answers server_error.
  ModelMetrics* section = line.model->metrics;
  Reply reply;
  try {
    if (expired) {
      reply = fail(section, ErrorCode::deadline_exceeded, kExpiredDetail);
    } else if (line.error) {
      reply = fail(section, line.error, ErrorCode::bad_arch);
    } else {
      for (const Miss& miss : line.misses) {
        line.model->cache->put(miss.key, line.values[miss.index]);
      }
      reply = line.batch ? ok_reply("predict_batch", batch_payload(line.values))
                         : ok_reply("predict", format_latency(line.values[0]));
      metrics_.count_predict_line(false, section);
    }
  } catch (...) {
    reply = fail(section, std::current_exception(), ErrorCode::bad_arch);
  }
  answer(line.done, std::move(reply));
  // A line holds its admission slots until it is answered, and no longer:
  // a client that sends again on its reply finds them free.
  admitted_archs_.fetch_sub(line.misses.size(), std::memory_order_acq_rel);
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
  // Every queued prediction is answered before the workers stop, so
  // completions a front end is still waiting on all fire.
  while (flush()) {
  }
  // The search worker finishes every admitted search before exiting, same
  // drain guarantee as the queue.
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
