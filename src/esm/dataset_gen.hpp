// Dataset generation with reference-model quality control (paper §II-C.3,
// Fig. 6) and fault-tolerant measurement.
//
// Every measurement batch is executed in one device "session". Reference
// models — architectures drawn once at construction and re-measured in every
// batch — act as canaries: if a session's clocks drifted (thermal throttling,
// background load), the reference latencies deviate from their established
// baselines. A batch passes QC when the fraction of in-tolerance reference
// measurements is high enough and their aggregate deviation stays under the
// configured 3 % boundary; otherwise the whole batch is re-measured in a
// fresh session. Outlier reference readings are recorded (Fig. 6's dots
// outside the boundary) and excluded from the aggregate.
//
// Measurement attempts can also *fail* outright (hwsim/faults.hpp). The
// generator retries transient failures under the configured RetryPolicy
// (exponential backoff charged in simulated seconds, bounded by a per-batch
// budget), escalates sessions whose canaries or architectures failed too
// often to the QC re-measure loop, and quarantines architectures that still
// fail in the final session. measure_batch() therefore ALWAYS completes,
// returning whatever was measured plus a DatasetReport accounting of what
// happened. Retry schedules are planned serially from fault substreams
// before the parallel fan-out, so seeded runs stay bit-identical at any
// thread count (the PR-1 invariant).
//
// With EsmConfig::journal configured, the generator additionally writes
// every accepted batch through a CampaignJournal (esm/journal.hpp) and, on
// resume, answers already-journaled batches by replaying their records —
// restoring baselines, QC history, quarantine, simulated cost, and the
// exact RNG/session state — instead of re-measuring. A killed campaign
// resumed this way finishes bit-identically to an uninterrupted run.
#pragma once

#include <cstddef>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "esm/config.hpp"
#include "hwsim/measurement.hpp"
#include "nets/builder.hpp"

namespace esm {

class CampaignJournal;
struct BatchRecord;

/// One architecture with its measured latency.
struct MeasuredSample {
  ArchConfig arch;
  double latency_ms = 0.0;
};

/// QC outcome of one measurement batch.
struct QcReport {
  int attempts = 0;              ///< sessions tried (1 = first passed)
  bool passed = false;           ///< true if a session met the QC bound
  double reference_cv = 0.0;     ///< aggregate relative deviation (last attempt)
  std::vector<double> reference_deviation;  ///< per-reference |dev| (last attempt)
  int outliers = 0;              ///< reference readings outside the boundary
  int failed_measurements = 0;   ///< attempts that failed outright (last attempt)
};

/// Accounting of one measure_batch() call: what was requested, what was
/// actually measured, and what the fault tolerance did along the way.
/// Simulated costs (including backoff) are also accumulated on the device,
/// so Fig. 4a-style analyses see retry overhead automatically.
struct DatasetReport {
  std::size_t requested = 0;     ///< architectures asked for
  std::size_t measured = 0;      ///< samples actually delivered
  std::size_t quarantined = 0;   ///< archs newly quarantined by this batch
  std::size_t skipped_quarantined = 0;  ///< archs skipped as already quarantined
  int sessions = 0;              ///< device sessions run (QC attempts)
  int retries = 0;               ///< re-measure attempts after faults
  int timeouts = 0;              ///< attempts that hit the watchdog
  int device_losses = 0;         ///< attempts lost to mid-session dropouts
  int read_errors = 0;           ///< attempts lost to transient read errors
  bool qc_passed = false;        ///< final session met the QC bound
  double cost_seconds = 0.0;     ///< simulated cost of this batch, incl. retries
  double backoff_seconds = 0.0;  ///< simulated backoff charged before retries

  /// Stable keys (ArchConfig::to_string()) of the archs newly quarantined
  /// by this batch — one per `quarantined` count, so reports (and resumed
  /// runs reading the journal) can explain exactly which archs were given
  /// up on, not just how many.
  std::vector<std::string> quarantined_archs;
};

/// Everything measure_batch() produced: the surviving samples, the QC
/// outcome of the accepted (last) session, and the fault-tolerance ledger.
struct BatchResult {
  std::vector<MeasuredSample> samples;
  QcReport qc;
  DatasetReport report;
};

/// Measures architecture batches on a device under reference-model QC.
class DatasetGenerator {
 public:
  /// Draws the reference models and establishes their baseline latencies
  /// over several sessions (median per reference). Installs the config's
  /// fault profile on the device if the config declares one, and applies
  /// config.threads (when > 0) to the shared pool. With
  /// config.journal set, opens (and on resume, replays the header of) the
  /// campaign journal; a resumed construction restores the journaled
  /// baselines without re-measuring them.
  DatasetGenerator(const EsmConfig& config, SimulatedDevice& device,
                   Rng rng);
  ~DatasetGenerator();

  /// Measures every architecture in one QC-controlled session; re-measures
  /// (new session) until QC passes or attempts run out, keeping the last
  /// attempt in that case. Transient per-measurement faults are retried
  /// under the config's RetryPolicy; architectures still failing in the
  /// kept session are quarantined and omitted from later batches. Appends
  /// the QC outcome to qc_history(). Never throws for measurement faults.
  BatchResult measure_batch(const std::vector<ArchConfig>& archs);

  const std::vector<ArchConfig>& reference_models() const {
    return references_;
  }
  const std::vector<double>& reference_baselines() const {
    return baselines_;
  }
  const std::vector<QcReport>& qc_history() const { return qc_history_; }

  /// Stable keys (ArchConfig::to_string()) of quarantined architectures.
  const std::set<std::string>& quarantined() const { return quarantine_; }

  SimulatedDevice& device() { return *device_; }

  /// Batches answered from the journal instead of being measured (resume).
  std::size_t replayed_batches() const { return replayed_batches_; }

  /// True when a campaign journal is attached (config.journal.path set).
  bool journaling() const { return journal_ != nullptr; }

 private:
  /// Planned attempts for one measurement task of a session fan-out: the
  /// first attempt plus budget-bounded retries, each on its own noise
  /// substream. Planned serially (fault outcomes depend only on session
  /// state and substreams, never on measured values), then replayed
  /// identically by the parallel execution.
  struct TaskPlan {
    std::vector<Rng> attempt_noise;
  };

  /// Outcome of executing one task's plan.
  struct TaskResult {
    MeasureResult final;         ///< last attempt (first success, if any)
    double attempt_cost_s = 0.0; ///< simulated cost of all attempts
    int timeouts = 0;
    int device_losses = 0;
    int read_errors = 0;
  };

  /// Everything one session produced, before QC acceptance is decided.
  struct SessionOutcome {
    std::vector<MeasuredSample> samples;  ///< archs that measured OK
    std::vector<ArchConfig> failed;       ///< archs with no surviving value
    QcReport report;
    int retries = 0;
    int timeouts = 0;
    int device_losses = 0;
    int read_errors = 0;
    double backoff_seconds = 0.0;
  };

  TaskPlan plan_task(const Rng& session_rng, std::size_t slot,
                     std::size_t n_tasks, int& budget) const;
  TaskResult run_task(const LayerGraph& graph, const TaskPlan& plan,
                      std::size_t slot, std::size_t n_tasks) const;

  /// Runs one session over `archs` (plan, parallel fan-out, deterministic
  /// reductions, QC verdict), drawing retries from `budget`.
  SessionOutcome run_session(const std::vector<ArchConfig>& archs,
                             int& budget);

  void establish_baselines();

  /// Fingerprint of the generator's sequential stream, drawn from a
  /// non-advancing substream: journal records carry it so resume can
  /// verify that replay restored the exact stream position.
  std::uint64_t rng_digest() const;

  /// Opens the journal and, on resume, restores construction state from
  /// its campaign header (or measures baselines and writes the header).
  void init_journal();

  /// Answers one measure_batch() call from the next journaled record:
  /// replays the recorded sessions/RNG splits, restores cost, quarantine,
  /// and QC history, and reconstructs the samples from `todo`.
  BatchResult replay_batch(const std::vector<ArchConfig>& archs,
                           const std::vector<ArchConfig>& todo,
                           BatchResult out);

  EsmConfig config_;
  SimulatedDevice* device_;  // non-owning
  Rng rng_;
  std::vector<ArchConfig> references_;
  std::vector<LayerGraph> reference_graphs_;
  std::vector<double> baselines_;
  std::vector<QcReport> qc_history_;
  std::set<std::string> quarantine_;
  std::unique_ptr<CampaignJournal> journal_;
  std::size_t replayed_batches_ = 0;
};

}  // namespace esm
