// Minibatch training loop for the MLP predictor: epoch shuffling, cosine or
// constant learning-rate schedule, and wall-clock accounting (the paper's
// Fig. 4a compares predictor training time against latency-measurement time,
// so the trainer reports real elapsed seconds).
#pragma once

#include <cstdint>
#include <span>

#include "linalg/matrix.hpp"
#include "ml/mlp.hpp"

namespace esm {

/// Learning-rate schedule across epochs.
enum class LrSchedule { kConstant, kCosine };

/// Training hyper-parameters (defaults follow the paper's setup).
struct TrainConfig {
  int epochs = 200;
  std::size_t batch_size = 256;
  AdamConfig adam{};                    ///< lr 0.01, weight decay 1e-4
  LrSchedule schedule = LrSchedule::kCosine;
  double min_lr_fraction = 0.01;        ///< cosine floor as fraction of lr
  std::uint64_t shuffle_seed = 1;
};

/// Outcome of one fit() call.
struct TrainResult {
  double final_train_mse = 0.0;  ///< mean batch MSE of the last epoch
  int epochs_run = 0;
  double train_seconds = 0.0;    ///< wall-clock time spent in fit()
};

/// Runs the minibatch Adam loop on a scalar-output MLP.
class MlpTrainer {
 public:
  explicit MlpTrainer(TrainConfig config = {});

  const TrainConfig& config() const { return config_; }

  /// Trains `mlp` in place on (x, y). Targets are used as-is; standardize
  /// them beforehand (the surrogate layer does).
  TrainResult fit(Mlp& mlp, const Matrix& x, std::span<const double> y) const;

 private:
  double epoch_lr(int epoch) const;

  TrainConfig config_;
};

}  // namespace esm
