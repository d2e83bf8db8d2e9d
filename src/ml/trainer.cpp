#include "ml/trainer.hpp"

#include <chrono>
#include <cmath>
#include <numeric>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace esm {

MlpTrainer::MlpTrainer(TrainConfig config) : config_(config) {
  ESM_REQUIRE(config_.epochs >= 1, "trainer needs >= 1 epoch");
  ESM_REQUIRE(config_.batch_size >= 1, "trainer needs a positive batch size");
}

double MlpTrainer::epoch_lr(int epoch) const {
  const double base = config_.adam.learning_rate;
  switch (config_.schedule) {
    case LrSchedule::kConstant:
      return base;
    case LrSchedule::kCosine: {
      const double floor = base * config_.min_lr_fraction;
      const double progress =
          config_.epochs > 1
              ? static_cast<double>(epoch) / (config_.epochs - 1)
              : 1.0;
      return floor + 0.5 * (base - floor) *
                         (1.0 + std::cos(3.14159265358979323846 * progress));
    }
  }
  return base;
}

TrainResult MlpTrainer::fit(Mlp& mlp, const Matrix& x,
                            std::span<const double> y) const {
  ESM_REQUIRE(x.rows() == y.size(), "trainer data mismatch");
  ESM_REQUIRE(x.rows() > 0, "trainer requires data");
  const auto start = std::chrono::steady_clock::now();

  const std::size_t n = x.rows();
  const std::size_t batch = std::min(config_.batch_size, n);
  Rng rng(config_.shuffle_seed);
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0u);

  TrainResult result;
  Matrix batch_x(batch, x.cols());
  std::vector<double> batch_y(batch);
  Mlp::TrainWorkspace workspace;
  for (int epoch = 0; epoch < config_.epochs; ++epoch) {
    rng.shuffle(order);
    const double lr = epoch_lr(epoch);
    double epoch_loss = 0.0;
    std::size_t batches = 0;
    for (std::size_t off = 0; off + batch <= n; off += batch) {
      for (std::size_t i = 0; i < batch; ++i) {
        const auto src = x.row(order[off + i]);
        auto dst = batch_x.row(i);
        for (std::size_t c = 0; c < x.cols(); ++c) dst[c] = src[c];
        batch_y[i] = y[order[off + i]];
      }
      epoch_loss += mlp.train_batch(batch_x, batch_y, config_.adam, lr,
                                     workspace);
      ++batches;
    }
    if (batches > 0) {
      result.final_train_mse = epoch_loss / static_cast<double>(batches);
    }
    ++result.epochs_run;
  }

  const auto end = std::chrono::steady_clock::now();
  result.train_seconds =
      std::chrono::duration<double>(end - start).count();
  return result;
}

}  // namespace esm
