// Multilayer-perceptron regressor with Adam, matching the paper's predictor:
// three fully-connected layers with hidden dimension 64, ReLU activations,
// MSE loss, Adam with learning rate 0.01 and weight decay 1e-4 (§III-A).
//
// The MLP operates on whatever feature space it is given; the surrogate
// layer (src/surrogate) composes it with an architecture encoder and
// input/target standardization.
#pragma once

#include <cmath>
#include <cstddef>
#include <span>
#include <vector>

#include "common/archive.hpp"
#include "common/rng.hpp"
#include "linalg/matrix.hpp"

namespace esm {

/// Adam hyper-parameters (defaults follow the paper).
struct AdamConfig {
  double learning_rate = 0.01;
  double beta1 = 0.9;
  double beta2 = 0.999;
  double epsilon = 1e-8;
  double weight_decay = 1e-4;  ///< L2 added to gradients (coupled, PyTorch-style)
};

/// Adam over n parameters, with the bias corrections 1 - beta^t of the
/// current step. With kDecay the coupled weight decay is folded into the
/// gradient first (grad + wd * param, PyTorch Adam). Per element this is
/// the same expression, in the same order, as the one-at-a-time update: no
/// reciprocal multiply, no reassociation.
template <bool kDecay>
void adam_update(double* __restrict param, const double* __restrict grad,
                 double* __restrict m, double* __restrict v, std::size_t n,
                 const AdamConfig& cfg, double lr, double bias1,
                 double bias2) {
  for (std::size_t i = 0; i < n; ++i) {
    double g = grad[i];
    if constexpr (kDecay) g += cfg.weight_decay * param[i];
    m[i] = cfg.beta1 * m[i] + (1.0 - cfg.beta1) * g;
    v[i] = cfg.beta2 * v[i] + (1.0 - cfg.beta2) * g * g;
    const double m_hat = m[i] / bias1;
    const double v_hat = v[i] / bias2;
    param[i] -= lr * m_hat / (std::sqrt(v_hat) + cfg.epsilon);
  }
}

/// Feed-forward ReLU network trained with minibatch Adam on MSE loss.
class Mlp {
 public:
  /// `dims` lists layer widths input-first, e.g. {36, 64, 64, 1}.
  /// Weights use He initialization drawn from `rng`.
  Mlp(std::vector<std::size_t> dims, Rng& rng);

  /// Paper architecture: in -> 64 -> 64 -> 1.
  static Mlp paper_predictor(std::size_t input_dim, Rng& rng);

  std::size_t input_dim() const { return dims_.front(); }
  std::size_t output_dim() const { return dims_.back(); }
  std::size_t parameter_count() const;

  /// Reusable activation buffers for the allocation-free forward path.
  /// Warm after one call at a given batch size; safe to share across calls
  /// on the same thread (the fused surrogate path keeps one per thread).
  struct Workspace {
    Matrix a, b;
  };

  /// Batched forward pass: returns an (x.rows() x output_dim) matrix.
  Matrix forward(const Matrix& x) const;

  /// Batched forward pass into caller-owned buffers; returns a reference
  /// to the workspace buffer holding the output (valid until the next call
  /// with the same workspace). Performs no heap allocation once `ws` has
  /// warmed to the batch size. Bit-identical to forward().
  const Matrix& forward_into(const Matrix& x, Workspace& ws) const;

  /// Convenience: forward for scalar-output networks.
  std::vector<double> predict(const Matrix& x) const;

  /// predict() into a caller-provided span (out.size() == x.rows());
  /// allocation-free once `ws` is warm.
  void predict_into(const Matrix& x, std::span<double> out,
                    Workspace& ws) const;

  double predict_one(std::span<const double> features) const;

  /// Reusable buffers for train_batch: every layer's output, the delta
  /// being back-propagated and the one below it, and the gradients. Warm
  /// after one step at a given batch size; later steps at that size
  /// allocate nothing. The input batch itself is read in place.
  struct TrainWorkspace {
    std::vector<Matrix> acts;  ///< acts[i] = output of layer i
    Matrix delta, prev_delta;
    Matrix grad_w;
    std::vector<double> grad_b;
  };

  /// One Adam step on a minibatch (MSE loss, scalar output) through `ws`.
  /// Returns the batch's mean squared error *before* the step.
  double train_batch(const Matrix& x, std::span<const double> y,
                     const AdamConfig& cfg, double lr_override,
                     TrainWorkspace& ws);

  /// Persists the network (dims + weights; optimizer state is not saved).
  void save(ArchiveWriter& archive, const std::string& prefix) const;

  /// Restores a network saved with save().
  static Mlp load(const ArchiveReader& archive, const std::string& prefix);

 private:
  // w is in x out, the layout gemm(x, w) reads, so the forward multiplies
  // it in place; the training step transposes it only to carry the delta
  // down a layer. save() and load() transpose at the archive boundary,
  // which lists weights out x in.
  struct Dense {
    Matrix w;  // in x out
    std::vector<double> b;
    Matrix m_w, v_w;  // Adam moments, laid out like w
    std::vector<double> m_b, v_b;
  };

  std::vector<std::size_t> dims_;
  std::vector<Dense> layers_;
  long long adam_step_ = 0;
};

}  // namespace esm
