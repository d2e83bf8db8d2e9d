// Shared experiment plumbing for the paper-reproduction bench binaries:
// QC-controlled dataset generation, surrogate training/evaluation, and
// result-table helpers. Every fig*/table* binary builds on these so the
// experimental methodology is identical across figures.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/argparse.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "esm/config.hpp"
#include "esm/dataset_gen.hpp"
#include "hwsim/measurement.hpp"
#include "ml/trainer.hpp"
#include "nets/sampler.hpp"
#include "surrogate/lut_surrogate.hpp"
#include "surrogate/mlp_surrogate.hpp"
#include "surrogate/predictor.hpp"

namespace esm::bench {

/// Architecture/latency pairs plus the archs/latency split views the
/// surrogates consume.
struct LabeledSet {
  std::vector<ArchConfig> archs;
  std::vector<double> latencies_ms;

  void add(const MeasuredSample& sample) {
    archs.push_back(sample.arch);
    latencies_ms.push_back(sample.latency_ms);
  }
  std::size_t size() const { return archs.size(); }
};

/// Default experiment configuration for dataset generation (QC settings
/// follow the paper: 150-run protocol, 3 % reference boundary).
EsmConfig dataset_config(const SupernetSpec& spec);

/// Measures `n` architectures drawn by `strategy` under reference-model QC
/// (the paper's dataset-generation pipeline).
LabeledSet generate_dataset(const SupernetSpec& spec, SimulatedDevice& device,
                            SamplingStrategy strategy, std::size_t n,
                            std::uint64_t seed);

/// The paper's default trainer (3x64 MLP, Adam 0.01/1e-4), tunable epochs.
TrainConfig paper_train_config(int epochs = 150);

/// Outcome of one surrogate evaluation.
struct SurrogateResult {
  std::string name;
  double accuracy = 0.0;       ///< mean sample accuracy (100% - MAPE)
  double rmse_ms = 0.0;
  double kendall = 0.0;        ///< rank preservation
  double train_seconds = 0.0;  ///< wall-clock fit time (0 for LUT)
};

/// Trains an MLP surrogate with the given encoding and evaluates it.
SurrogateResult run_mlp_experiment(EncodingKind encoding,
                                   const SupernetSpec& spec,
                                   const LabeledSet& train,
                                   const LabeledSet& test,
                                   std::uint64_t seed, int epochs = 150);

/// Builds a LUT surrogate (optionally bias-corrected on `train`) and
/// evaluates it.
SurrogateResult run_lut_experiment(const SupernetSpec& spec,
                                   SimulatedDevice& device,
                                   const LabeledSet& train,
                                   const LabeledSet& test,
                                   bool bias_correction);

/// Evaluates any predictor against a labeled test set.
SurrogateResult evaluate_predictor(const LatencyPredictor& predictor,
                                   const LabeledSet& test);

/// Prints a short "predicted vs actual" scatter excerpt (text rendition of
/// the paper's scatter plots).
void print_scatter_sample(std::ostream& os, const LatencyPredictor& predictor,
                          const LabeledSet& test, std::size_t n_points);

}  // namespace esm::bench
