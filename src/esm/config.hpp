// ESM framework configuration — the user inputs of paper §II-B, plus the
// dataset-quality-control and loop-control knobs of §II-C/§II-E.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "common/retry.hpp"
#include "hwsim/faults.hpp"
#include "ml/trainer.hpp"
#include "nets/sampler.hpp"
#include "nets/supernet.hpp"

namespace esm {

/// Predictor evaluation strategy: aggregate accuracy, or every depth bin
/// individually (paper input 7).
enum class EvalStrategy { kOverall, kBinWise };

const char* eval_strategy_name(EvalStrategy s);

/// Crash-safe campaign journaling (esm/journal.hpp). With a path set, the
/// DatasetGenerator write-ahead-logs every accepted measurement batch;
/// with `resume` also set, an existing journal is replayed first so a
/// killed campaign continues bit-identically without re-measuring.
struct JournalOptions {
  std::string path;     ///< journal file; empty = journaling off
  bool resume = false;  ///< replay an existing journal before appending
  bool durable = true;  ///< fsync each record (tests may disable for speed)

  bool enabled() const { return !path.empty(); }

  /// Throws esm::ConfigError if resume is requested without a path.
  void validate() const;
};

/// All user inputs of the ESM framework (paper Fig. 5, §II-B).
struct EsmConfig {
  SupernetSpec spec;                                   ///< architecture space
  SamplingStrategy strategy = SamplingStrategy::kBalanced;  ///< input 1
  std::string surrogate = "mlp";  ///< input 2: surrogate family key
  std::string encoder = "fcc";    ///< input 6 (eta): encoding key
  std::size_t ensemble_members = 4;  ///< width of the "ensemble" surrogate
  int n_initial = 300;                                 ///< input 3 (N_I)
  int n_step = 100;                                    ///< input 4 (N_Step)
  double w_below = 4.0;                                ///< input 5 (w1)
  double w_above = 1.0;                                ///< input 5 (w2)
  EvalStrategy eval_strategy = EvalStrategy::kBinWise; ///< input 7
  int n_bins = 5;                                      ///< input 8 (N_Bins)
  double acc_threshold = 0.95;                         ///< input 9 (Acc_TH)

  // --- loop control ---
  int max_iterations = 60;       ///< extension rounds before giving up
  int n_test = 500;              ///< held-out balanced evaluation set size

  // --- dataset quality control (paper §II-C.3, Fig. 6) ---
  int n_reference_models = 8;    ///< reference models per measurement batch
  double qc_variance_limit = 0.03;  ///< the paper's 3 % boundary
  int qc_max_attempts = 6;       ///< re-measure attempts before accepting
  int qc_baseline_sessions = 3;  ///< sessions used to establish baselines

  // --- measurement fault tolerance ---
  /// Fault profile installed on the device by DatasetGenerator. The default
  /// (all-zero) profile injects nothing and leaves every output
  /// bit-identical; parse_fault_profile() accepts preset names ("flaky",
  /// "harsh") or key=value pairs.
  FaultProfile faults;
  /// Retry/backoff behavior for failed measurement attempts.
  RetryPolicy retry;

  /// Write-ahead journal for crash-safe, resumable campaigns.
  JournalOptions journal;

  // --- predictor training ---
  TrainConfig train;             ///< paper defaults: 3x64 MLP, Adam 0.01/1e-4

  std::uint64_t seed = 42;

  /// Throws esm::ConfigError if any field is inconsistent.
  void validate() const;
};

}  // namespace esm
