// Graph convolutional network regressor over chain graphs.
//
// The paper's related work ([14], [19] — BRP-NAS-style predictors) encodes
// architectures as graphs and regresses latency with a GCN. This is that
// baseline: nodes are blocks in execution order (a chain), propagation is
// mean aggregation over {previous, self, next}, followed by two GCN layers,
// mean-pool readout, and a linear head. Trained with Adam on MSE, one graph
// per step, full manual backpropagation.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "linalg/matrix.hpp"

namespace esm {

/// GCN hyper-parameters.
struct GcnConfig {
  std::size_t hidden = 32;
  int epochs = 60;
  double learning_rate = 0.005;
  double weight_decay = 1e-4;
  std::uint64_t seed = 1;
};

/// Two-layer chain-graph GCN with mean-pool readout and scalar output.
class GcnRegressor {
 public:
  /// `input_dim` is the per-node feature width.
  GcnRegressor(std::size_t input_dim, GcnConfig config);

  /// Trains on graphs given as node-feature matrices (rows = chain nodes in
  /// execution order) with scalar targets. Standardize targets beforehand
  /// if their scale is large.
  void fit(const std::vector<Matrix>& graphs,
           const std::vector<double>& targets);

  /// Predicts the scalar for one graph.
  double predict(const Matrix& nodes) const;

  bool fitted() const { return fitted_; }
  std::size_t parameter_count() const;

  /// Mean aggregation over {prev, self, next} for a chain graph (public
  /// for tests).
  static Matrix propagate_chain(const Matrix& h);

 private:
  /// Transpose of the chain-averaging operator (for backprop).
  static Matrix propagate_chain_transpose(const Matrix& grad);

  double train_one(const Matrix& nodes, double target, double lr);

  struct AdamState {
    Matrix m, v;
  };

  std::size_t input_dim_;
  GcnConfig config_;
  Matrix w1_, w2_;       // input->hidden, hidden->hidden
  Matrix head_;          // hidden x 1
  double head_bias_ = 0.0;
  AdamState w1_state_, w2_state_, head_state_;
  double bias_m_ = 0.0, bias_v_ = 0.0;
  long long step_ = 0;
  bool fitted_ = false;
};

}  // namespace esm
