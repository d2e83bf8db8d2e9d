#include "esm/dataset_gen.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "common/stats.hpp"
#include "esm/journal.hpp"
#include "common/retry.hpp"
#include "nets/sampler.hpp"

namespace esm {
namespace {

/// Substream tags for retry machinery, derived from a task's first-attempt
/// noise stream without advancing it. Retry attempt `a` (1-based) measures
/// on split(kRetryNoiseStream + a) and draws its backoff jitter from
/// split(kBackoffStream + a), so enabling retries perturbs neither the
/// first attempt nor any other task.
constexpr std::uint64_t kRetryNoiseStream = 0x52e7291e5ull;
constexpr std::uint64_t kBackoffStream = 0xbac0ff5e77ull;

/// Substream tag for the journal's RNG fingerprint (non-advancing, so
/// journaling never perturbs the measurement stream).
constexpr std::uint64_t kJournalDigestStream = 0x6a0b2a1d16e57ull;

}  // namespace

DatasetGenerator::DatasetGenerator(const EsmConfig& config,
                                   SimulatedDevice& device, Rng rng)
    : config_(config), device_(&device), rng_(rng) {
  config_.validate();
  // 0 leaves whatever ESM_THREADS (or set_thread_count) set in place.
  if (config_.threads > 0) set_thread_count(config_.threads);

  // The config's fault profile (if any) governs the device from the first
  // baseline session on; a config without faults leaves whatever profile
  // the device already carries untouched.
  if (config_.faults.any()) device_->set_fault_profile(config_.faults);

  // Reference models are drawn randomly from the space (paper §II-C.2).
  RandomSampler sampler(config_.spec);
  references_ =
      sampler.sample_n(static_cast<std::size_t>(config_.n_reference_models),
                       rng_);
  reference_graphs_.reserve(references_.size());
  for (const ArchConfig& arch : references_) {
    reference_graphs_.push_back(build_graph(config_.spec, arch));
  }
  if (config_.journal.enabled()) {
    init_journal();
  } else {
    establish_baselines();
  }
}

DatasetGenerator::~DatasetGenerator() = default;

std::uint64_t DatasetGenerator::rng_digest() const {
  return rng_.split(kJournalDigestStream)();
}

void DatasetGenerator::init_journal() {
  journal_ = std::make_unique<CampaignJournal>(
      config_.journal.path, config_.journal.resume, config_.journal.durable);
  const std::uint32_t config_crc = campaign_config_crc(config_);
  if (journal_->header().has_value()) {
    // Resume: restore the journaled construction state instead of
    // re-measuring baselines. The device and generator streams are
    // fast-forwarded through exactly the draws the original baseline
    // sessions consumed, so every later draw lines up bit-identically.
    const CampaignHeader& header = *journal_->header();
    ESM_REQUIRE(header.config_crc == config_crc && header.seed == config_.seed,
                "journal " << config_.journal.path
                           << " was written by a different campaign "
                              "(config/seed mismatch); refusing to resume");
    ESM_REQUIRE(header.baselines.size() == reference_graphs_.size(),
                "journal " << config_.journal.path << " holds "
                           << header.baselines.size()
                           << " reference baselines, campaign needs "
                           << reference_graphs_.size());
    device_->replay_sessions(header.baseline_sessions);
    for (int s = 0; s < header.baseline_sessions; ++s) (void)rng_.split();
    baselines_ = header.baselines;
    device_->restore_measurement_cost(header.cost_seconds);
    ESM_REQUIRE(rng_digest() == header.rng_digest,
                "journal resume diverged while replaying baselines of "
                    << config_.journal.path);
    return;
  }
  establish_baselines();
  CampaignHeader header;
  header.config_crc = config_crc;
  header.seed = config_.seed;
  header.baseline_sessions = config_.qc_baseline_sessions;
  header.baselines = baselines_;
  header.cost_seconds = device_->measurement_cost_seconds();
  header.rng_digest = rng_digest();
  journal_->write_header(header);
}

void DatasetGenerator::establish_baselines() {
  // Establish per-reference baselines as the median over several sessions,
  // so a single bad session cannot poison the baseline. References within
  // a session are measured concurrently, each on its own noise substream;
  // failed attempts are retried like batch measurements, and a reference
  // that never yields a value falls back to its noise-free latency rather
  // than blocking construction.
  const std::size_t n_refs = reference_graphs_.size();
  std::vector<std::vector<double>> sessions(n_refs);
  for (int s = 0; s < config_.qc_baseline_sessions; ++s) {
    device_->begin_session();
    const Rng session_rng = rng_.split();
    int budget = config_.retry.batch_retry_budget;
    std::vector<TaskPlan> plans;
    plans.reserve(n_refs);
    for (std::size_t i = 0; i < n_refs; ++i) {
      plans.push_back(plan_task(session_rng, i, n_refs, budget));
    }
    const auto results = parallel_map(n_refs, [&](std::size_t i) {
      return run_task(reference_graphs_[i], plans[i], i, n_refs);
    });
    for (std::size_t i = 0; i < results.size(); ++i) {
      device_->add_measurement_cost(results[i].attempt_cost_s);
      const Rng task_rng =
          session_rng.split(static_cast<std::uint64_t>(i));
      for (std::size_t a = 1; a < plans[i].attempt_noise.size(); ++a) {
        device_->add_measurement_cost(retry_backoff_seconds(
            config_.retry, static_cast<int>(a),
            task_rng.split(kBackoffStream + a)));
      }
      if (results[i].final.ok()) {
        sessions[i].push_back(results[i].final.value);
      }
    }
  }
  baselines_.reserve(n_refs);
  for (std::size_t i = 0; i < n_refs; ++i) {
    baselines_.push_back(sessions[i].empty()
                             ? device_->true_latency_ms(reference_graphs_[i])
                             : median(sessions[i]));
  }
}

DatasetGenerator::TaskPlan DatasetGenerator::plan_task(const Rng& session_rng,
                                                       std::size_t slot,
                                                       std::size_t n_tasks,
                                                       int& budget) const {
  TaskPlan plan;
  const Rng task_rng = session_rng.split(static_cast<std::uint64_t>(slot));
  plan.attempt_noise.push_back(task_rng);

  MeasureOptions options;
  options.session_slot = static_cast<int>(slot);
  options.session_tasks = static_cast<int>(n_tasks);
  options.noise = task_rng;
  MeasureOutcome outcome = device_->fault_outcome(options);
  // Timeouts and read errors are transient; a lost device stays lost for
  // the rest of the session, so retrying it in-session is pointless — the
  // failure escalates to the QC re-measure loop instead.
  int retry = 1;
  while (outcome != MeasureOutcome::kOk &&
         outcome != MeasureOutcome::kDeviceLost &&
         retry < config_.retry.max_attempts && budget > 0) {
    --budget;
    const Rng retry_noise =
        task_rng.split(kRetryNoiseStream + static_cast<std::uint64_t>(retry));
    plan.attempt_noise.push_back(retry_noise);
    options.noise = retry_noise;
    outcome = device_->fault_outcome(options);
    ++retry;
  }
  return plan;
}

DatasetGenerator::TaskResult DatasetGenerator::run_task(
    const LayerGraph& graph, const TaskPlan& plan, std::size_t slot,
    std::size_t n_tasks) const {
  TaskResult result;
  for (const Rng& noise : plan.attempt_noise) {
    MeasureOptions options;
    options.session_slot = static_cast<int>(slot);
    options.session_tasks = static_cast<int>(n_tasks);
    options.noise = noise;
    MeasureResult attempt = device_->measure(graph, options);
    result.attempt_cost_s += attempt.cost_seconds;
    switch (attempt.outcome) {
      case MeasureOutcome::kTimeout: ++result.timeouts; break;
      case MeasureOutcome::kDeviceLost: ++result.device_losses; break;
      case MeasureOutcome::kReadError: ++result.read_errors; break;
      case MeasureOutcome::kOk: break;
    }
    result.final = std::move(attempt);
    if (result.final.ok()) break;
  }
  return result;
}

DatasetGenerator::SessionOutcome DatasetGenerator::run_session(
    const std::vector<ArchConfig>& archs, int& budget) {
  device_->begin_session();

  // All measurements of the session fan out concurrently, each on a noise
  // substream keyed by its position in the session — so the session's
  // results depend only on (device session state, session stream), never
  // on thread count or completion order. The reference models are
  // scheduled twice (the paper's canary-before/canary-after pattern);
  // because session drift is a per-session regime here, both passes probe
  // the same regime on independent substreams, doubling the QC evidence.
  const std::size_t n_refs = reference_graphs_.size();
  const std::size_t n_tasks = 2 * n_refs + archs.size();
  const Rng session_rng = rng_.split();

  // Retry planning is serial and happens before the fan-out: fault
  // outcomes depend only on session state and substreams, so the plan is
  // the same at every thread count, and the shared retry budget is drawn
  // down in deterministic task order.
  std::vector<TaskPlan> plans;
  plans.reserve(n_tasks);
  for (std::size_t t = 0; t < n_tasks; ++t) {
    plans.push_back(plan_task(session_rng, t, n_tasks, budget));
  }

  const auto measured = parallel_map(n_tasks, [&](std::size_t t) {
    if (t < n_refs) {
      return run_task(reference_graphs_[t], plans[t], t, n_tasks);
    }
    if (t < n_refs + archs.size()) {
      const LayerGraph graph =
          build_graph(config_.spec, archs[t - n_refs]);
      return run_task(graph, plans[t], t, n_tasks);
    }
    return run_task(reference_graphs_[t - n_refs - archs.size()], plans[t],
                    t, n_tasks);
  });

  // Deterministic reductions, all in task-index order: cost accounting
  // (attempts, then backoff), fault tallies, reference deviations, then
  // the batch samples.
  SessionOutcome outcome;
  for (std::size_t t = 0; t < n_tasks; ++t) {
    const TaskResult& r = measured[t];
    device_->add_measurement_cost(r.attempt_cost_s);
    const Rng task_rng = session_rng.split(static_cast<std::uint64_t>(t));
    for (std::size_t a = 1; a < plans[t].attempt_noise.size(); ++a) {
      const double backoff = retry_backoff_seconds(
          config_.retry, static_cast<int>(a),
          task_rng.split(kBackoffStream + a));
      device_->add_measurement_cost(backoff);
      outcome.backoff_seconds += backoff;
    }
    outcome.retries +=
        static_cast<int>(plans[t].attempt_noise.size()) - 1;
    outcome.timeouts += r.timeouts;
    outcome.device_losses += r.device_losses;
    outcome.read_errors += r.read_errors;
    if (!r.final.ok()) ++outcome.report.failed_measurements;
  }

  QcReport& report = outcome.report;
  std::vector<double>& deviations = report.reference_deviation;
  deviations.reserve(2 * n_refs);
  // A reference that failed to measure is QC evidence of the worst kind:
  // it cannot confirm the session, so it counts as an outlier.
  auto push_reference = [&](std::size_t task, std::size_t ref) {
    if (!measured[task].final.ok()) {
      ++report.outliers;
      return;
    }
    deviations.push_back(
        std::abs(measured[task].final.value - baselines_[ref]) /
        baselines_[ref]);
  };
  for (std::size_t i = 0; i < n_refs; ++i) push_reference(i, i);
  for (std::size_t i = 0; i < n_refs; ++i) {
    push_reference(n_refs + archs.size() + i, i);
  }

  outcome.samples.reserve(archs.size());
  for (std::size_t i = 0; i < archs.size(); ++i) {
    const TaskResult& r = measured[n_refs + i];
    if (r.final.ok()) {
      outcome.samples.push_back({archs[i], r.final.value});
    } else {
      outcome.failed.push_back(archs[i]);
    }
  }

  // Outliers (Fig. 6): individual readings outside the boundary. They are
  // excluded from the aggregate; QC fails when too many occur, when the
  // remaining aggregate still exceeds the boundary, or when too many of
  // the batch's own measurements failed outright.
  std::vector<double> in_tolerance;
  for (double d : deviations) {
    if (d <= config_.qc_variance_limit) {
      in_tolerance.push_back(d);
    } else {
      ++report.outliers;
    }
  }
  const std::size_t n_checks = 2 * n_refs;
  const double outlier_fraction =
      n_checks == 0 ? 0.0
                    : static_cast<double>(report.outliers) /
                          static_cast<double>(n_checks);
  report.reference_cv = in_tolerance.empty()
                            ? (n_checks == 0 ? 0.0 : 1.0)
                            : mean(in_tolerance);
  const double failed_fraction =
      archs.empty() ? 0.0
                    : static_cast<double>(outcome.failed.size()) /
                          static_cast<double>(archs.size());
  report.passed = outlier_fraction <= 0.25 &&
                  report.reference_cv <= config_.qc_variance_limit &&
                  failed_fraction <= 0.25;
  return outcome;
}

BatchResult DatasetGenerator::measure_batch(
    const std::vector<ArchConfig>& archs) {
  BatchResult out;
  out.report.requested = archs.size();

  std::vector<ArchConfig> todo;
  todo.reserve(archs.size());
  for (const ArchConfig& arch : archs) {
    if (quarantine_.count(arch.to_string()) != 0) {
      ++out.report.skipped_quarantined;
    } else {
      todo.push_back(arch);
    }
  }

  // A resumed campaign answers batches from the journal until the loaded
  // records run out, then seamlessly switches back to live measurement.
  if (journal_ && journal_->peek_batch() != nullptr) {
    return replay_batch(archs, todo, std::move(out));
  }

  bool measured_live = false;
  if (!todo.empty()) {
    measured_live = true;
    const double cost_before = device_->measurement_cost_seconds();
    int budget = config_.retry.batch_retry_budget;
    SessionOutcome kept;
    for (int attempt = 1; attempt <= config_.qc_max_attempts; ++attempt) {
      kept = run_session(todo, budget);
      kept.report.attempts = attempt;
      ++out.report.sessions;
      out.report.retries += kept.retries;
      out.report.timeouts += kept.timeouts;
      out.report.device_losses += kept.device_losses;
      out.report.read_errors += kept.read_errors;
      out.report.backoff_seconds += kept.backoff_seconds;
      if (kept.report.passed) break;
    }
    qc_history_.push_back(kept.report);
    out.qc = kept.report;
    out.samples = std::move(kept.samples);

    // Architectures that still failed in the kept session have exhausted
    // their chances for this batch; quarantine them so later batches do not
    // burn budget on them again.
    for (const ArchConfig& arch : kept.failed) {
      std::string key = arch.to_string();
      if (quarantine_.insert(key).second) {
        ++out.report.quarantined;
        out.report.quarantined_archs.push_back(std::move(key));
      }
    }

    out.report.measured = out.samples.size();
    out.report.qc_passed = kept.report.passed;
    out.report.cost_seconds =
        device_->measurement_cost_seconds() - cost_before;
  }
  // else: nothing measurable (empty request or fully quarantined) — no
  // session, no QC entry, but the call is still journaled so that record
  // sequence numbers stay aligned with measure_batch() call order.

  if (journal_) {
    BatchRecord record;
    record.requested = archs.size();
    record.request_crc = batch_request_crc(archs);
    record.sessions = out.report.sessions;
    record.has_qc = measured_live;
    record.qc = out.qc;
    record.report = out.report;
    record.quarantined = out.report.quarantined_archs;
    record.cost_total = device_->measurement_cost_seconds();
    record.rng_digest = rng_digest();
    // Samples arrive in todo order, so a single forward scan recovers each
    // sample's index into the batch's measurable list.
    std::size_t ti = 0;
    record.samples.reserve(out.samples.size());
    for (const MeasuredSample& sample : out.samples) {
      while (ti < todo.size() && !(todo[ti] == sample.arch)) ++ti;
      ESM_CHECK(ti < todo.size(),
                "batch samples are not a subsequence of the todo list");
      record.samples.push_back({ti, sample.latency_ms});
      ++ti;
    }
    journal_->append_batch(record);
  }
  return out;
}

BatchResult DatasetGenerator::replay_batch(
    const std::vector<ArchConfig>& archs, const std::vector<ArchConfig>& todo,
    BatchResult out) {
  const BatchRecord& record = *journal_->peek_batch();
  ESM_REQUIRE(record.requested == archs.size() &&
                  record.request_crc == batch_request_crc(archs),
              "journal record "
                  << replayed_batches_ + 1
                  << " was written for a different batch than the campaign "
                     "is requesting; refusing to resume");
  ESM_CHECK(record.report.skipped_quarantined ==
                out.report.skipped_quarantined,
            "replayed quarantine skip count diverged from the journal");

  // Fast-forward the device and generator streams through exactly the
  // draws the journaled sessions consumed (begin_session never overlaps
  // with measurement draws — those ride non-advancing substreams).
  device_->replay_sessions(record.sessions);
  for (int s = 0; s < record.sessions; ++s) (void)rng_.split();
  device_->restore_measurement_cost(record.cost_total);
  ESM_REQUIRE(rng_digest() == record.rng_digest,
              "journal resume diverged while replaying batch "
                  << replayed_batches_ + 1 << " of " << config_.journal.path);

  std::size_t newly_quarantined = 0;
  for (const std::string& key : record.quarantined) {
    if (quarantine_.insert(key).second) ++newly_quarantined;
  }
  ESM_CHECK(newly_quarantined == record.report.quarantined,
            "replayed quarantine set diverged from the journal");
  if (record.has_qc) qc_history_.push_back(record.qc);

  out.qc = record.qc;
  out.report = record.report;
  out.samples.reserve(record.samples.size());
  for (const JournalSample& sample : record.samples) {
    ESM_REQUIRE(sample.todo_index < todo.size(),
                "journal sample index " << sample.todo_index
                                        << " is out of range for a batch of "
                                        << todo.size());
    out.samples.push_back({todo[sample.todo_index], sample.latency_ms});
  }
  journal_->pop_batch();
  ++replayed_batches_;
  return out;
}

}  // namespace esm
