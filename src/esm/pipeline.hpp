// The measure -> train/extend -> gate -> publish pipeline behind `esm_cli
// pipeline`: one command that takes a device and a model name to a
// manifest entry the fleet server can serve, crash-safe at every stage.
//
// Stage layout and the resume argument:
//   1. measure train set   journaled (esm/journal.hpp) under
//                          <manifest-dir>/.pipeline/<name>.train.journal
//   2. measure test set    journaled under .../<name>.test.journal
//   3. train/extend        run_esm_loop (esm/framework.hpp); each Algorithm 1
//                          round is measured as more train-journal records
//   4. gate                only a loop that passed Acc_TH publishes
//   5. publish             artifact via save_surrogate_atomic, then the
//                          manifest upserted via write_manifest_atomic
//
// All measurement is write-ahead journaled with resume always on: a rerun
// after kill -9 replays the accepted batches bit-identically and measures
// only the remainder. Fits are pure functions of the samples and config,
// and each extension round derives only from the eval report and the
// train campaign's seeded arch stream, so a rerun re-derives the journaled
// rounds; a different batch (say, --n-step changed) is refused, never
// measured over. Stage 5 writes both files atomically, artifact first: a
// crash between the two leaves the manifest pointing at the OLD artifact
// bytes, and the rerun converges to the same published state. Rerunning a
// completed pipeline therefore republishes a byte-identical artifact and
// manifest, no matter where (or whether) a previous attempt died.
#pragma once

#include <cstddef>
#include <string>

#include "esm/config.hpp"
#include "esm/evaluator.hpp"

namespace esm {

struct PipelineConfig {
  /// Space, surrogate/encoder kind, QC + fault tolerance, Acc_TH gate,
  /// training hyperparameters, seed. `esm.journal` is overridden per
  /// measurement stage (path derived from the model name, resume on);
  /// `esm.n_initial` sizes the train set, `esm.n_test` the test set, and
  /// `esm.n_step` / `esm.max_iterations` the extension rounds.
  EsmConfig esm;
  std::string device;        ///< simulated-device name
  std::string model_name;    ///< manifest entry to publish
  std::string manifest_dir;  ///< artifacts + manifest live here
  std::string manifest_file = "manifest.esmf";
  /// Archs per measurement batch / journal record (checkpoint
  /// granularity); 0 = one batch per stage and per extension round.
  std::size_t batch_size = 0;
  bool durable = true;  ///< fsync journal records (tests disable for speed)

  /// Throws esm::ConfigError on an invalid name, empty dir, or bad esm
  /// config.
  void validate() const;
};

struct PipelineResult {
  bool gate_passed = false;  ///< the loop converged within max_iterations
  bool published = false;
  int iterations = 0;  ///< train-evaluate rounds run (1 = no extension)
  std::size_t train_measured = 0;  ///< train samples, extensions included
  std::size_t test_measured = 0;   ///< test samples delivered by stage 2
  /// Journal-answered batches across both campaigns, extension rounds
  /// included; > 0 means this run resumed a previous attempt.
  std::size_t replayed_batches = 0;
  EvalReport eval;            ///< the last iteration's evaluation
  std::string artifact_path;  ///< written only when published
  std::string artifact_crc32;
  std::string manifest_path;
};

/// Runs the five stages. Throws esm::ConfigError on configuration or I/O
/// failures and on a journal written for different batches; a gate
/// failure is NOT an error (returns gate_passed=false, published=false).
PipelineResult run_pipeline(const PipelineConfig& config);

}  // namespace esm
