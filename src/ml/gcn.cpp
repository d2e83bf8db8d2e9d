#include "ml/gcn.hpp"

#include <cmath>
#include <numeric>

#include "common/error.hpp"
#include "ml/mlp.hpp"

namespace esm {

GcnRegressor::GcnRegressor(std::size_t input_dim, GcnConfig config)
    : input_dim_(input_dim), config_(config) {
  ESM_REQUIRE(input_dim_ >= 1, "GCN requires a positive input dim");
  ESM_REQUIRE(config_.hidden >= 1, "GCN requires a positive hidden dim");
  ESM_REQUIRE(config_.epochs >= 1, "GCN requires >= 1 epoch");
  Rng rng(config_.seed);
  auto init = [&rng](std::size_t rows, std::size_t cols) {
    Matrix m(rows, cols);
    const double he_std = std::sqrt(2.0 / static_cast<double>(rows));
    for (std::size_t r = 0; r < rows; ++r) {
      for (std::size_t c = 0; c < cols; ++c) m(r, c) = rng.normal(0.0, he_std);
    }
    return m;
  };
  w1_ = init(input_dim_, config_.hidden);
  w2_ = init(config_.hidden, config_.hidden);
  head_ = init(config_.hidden, 1);
  w1_state_ = {Matrix(input_dim_, config_.hidden),
               Matrix(input_dim_, config_.hidden)};
  w2_state_ = {Matrix(config_.hidden, config_.hidden),
               Matrix(config_.hidden, config_.hidden)};
  head_state_ = {Matrix(config_.hidden, 1), Matrix(config_.hidden, 1)};
}

std::size_t GcnRegressor::parameter_count() const {
  return w1_.size() + w2_.size() + head_.size() + 1;
}

Matrix GcnRegressor::propagate_chain(const Matrix& h) {
  const std::size_t n = h.rows(), d = h.cols();
  Matrix out(n, d);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t lo = i == 0 ? 0 : i - 1;
    const std::size_t hi = i + 1 < n ? i + 1 : i;
    const double norm = static_cast<double>(hi - lo + 1);
    auto dst = out.row(i);
    for (std::size_t j = lo; j <= hi; ++j) {
      const auto src = h.row(j);
      for (std::size_t c = 0; c < d; ++c) dst[c] += src[c];
    }
    for (std::size_t c = 0; c < d; ++c) dst[c] /= norm;
  }
  return out;
}

Matrix GcnRegressor::propagate_chain_transpose(const Matrix& grad) {
  // out = P^T grad where P is the row-normalized chain averaging:
  // out[j] += grad[i] / deg(i) for every i with j in N(i) u {i}.
  const std::size_t n = grad.rows(), d = grad.cols();
  Matrix out(n, d);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t lo = i == 0 ? 0 : i - 1;
    const std::size_t hi = i + 1 < n ? i + 1 : i;
    const double inv = 1.0 / static_cast<double>(hi - lo + 1);
    const auto src = grad.row(i);
    for (std::size_t j = lo; j <= hi; ++j) {
      auto dst = out.row(j);
      for (std::size_t c = 0; c < d; ++c) dst[c] += src[c] * inv;
    }
  }
  return out;
}

double GcnRegressor::train_one(const Matrix& nodes, double target,
                               double lr) {
  const std::size_t n = nodes.rows();
  // Forward.
  const Matrix m0 = propagate_chain(nodes);
  Matrix z1;
  gemm(m0, w1_, z1);
  Matrix h1 = z1;
  h1.apply([](double x) { return x > 0.0 ? x : 0.0; });
  const Matrix m1 = propagate_chain(h1);
  Matrix z2;
  gemm(m1, w2_, z2);
  Matrix h2 = z2;
  h2.apply([](double x) { return x > 0.0 ? x : 0.0; });
  std::vector<double> pooled(config_.hidden, 0.0);
  for (std::size_t r = 0; r < n; ++r) {
    const auto row = h2.row(r);
    for (std::size_t c = 0; c < config_.hidden; ++c) pooled[c] += row[c];
  }
  for (double& v : pooled) v /= static_cast<double>(n);
  double y = head_bias_;
  for (std::size_t c = 0; c < config_.hidden; ++c) {
    y += pooled[c] * head_(c, 0);
  }
  const double diff = y - target;
  const double loss = diff * diff;

  // Backward.
  ++step_;
  const double dy = 2.0 * diff;
  Matrix head_grad(config_.hidden, 1);
  for (std::size_t c = 0; c < config_.hidden; ++c) {
    head_grad(c, 0) = dy * pooled[c];
  }
  // dH2: every row gets dy * head / n, masked by ReLU'.
  Matrix dz2(n, config_.hidden);
  for (std::size_t r = 0; r < n; ++r) {
    auto dst = dz2.row(r);
    for (std::size_t c = 0; c < config_.hidden; ++c) {
      dst[c] = z2(r, c) > 0.0
                   ? dy * head_(c, 0) / static_cast<double>(n)
                   : 0.0;
    }
  }
  Matrix w2_grad;
  gemm_at_b(m1, dz2, w2_grad);
  Matrix dm1;
  gemm_a_bt(dz2, w2_, dm1);
  Matrix dh1 = propagate_chain_transpose(dm1);
  Matrix dz1 = dh1;
  for (std::size_t r = 0; r < n; ++r) {
    auto dst = dz1.row(r);
    for (std::size_t c = 0; c < config_.hidden; ++c) {
      if (z1(r, c) <= 0.0) dst[c] = 0.0;
    }
  }
  Matrix w1_grad;
  gemm_at_b(m0, dz1, w1_grad);

  AdamConfig adam;
  adam.weight_decay = config_.weight_decay;
  const double bias1 = 1.0 - std::pow(adam.beta1, static_cast<double>(step_));
  const double bias2 = 1.0 - std::pow(adam.beta2, static_cast<double>(step_));
  const auto step = [&](Matrix& param, const Matrix& grad, AdamState& state) {
    adam_update<true>(param.data(), grad.data(), state.m.data(),
                      state.v.data(), param.size(), adam, lr, bias1, bias2);
  };
  step(w1_, w1_grad, w1_state_);
  step(w2_, w2_grad, w2_state_);
  step(head_, head_grad, head_state_);
  adam_update<false>(&head_bias_, &dy, &bias_m_, &bias_v_, 1, adam, lr, bias1,
                     bias2);
  return loss;
}

void GcnRegressor::fit(const std::vector<Matrix>& graphs,
                       const std::vector<double>& targets) {
  ESM_REQUIRE(graphs.size() == targets.size(), "GCN data mismatch");
  ESM_REQUIRE(!graphs.empty(), "GCN requires data");
  for (const Matrix& g : graphs) {
    ESM_REQUIRE(g.cols() == input_dim_ && g.rows() >= 1,
                "GCN graph with wrong feature width");
  }
  Rng rng(config_.seed ^ 0x9e3779b9ull);
  std::vector<std::size_t> order(graphs.size());
  std::iota(order.begin(), order.end(), 0u);
  for (int epoch = 0; epoch < config_.epochs; ++epoch) {
    rng.shuffle(order);
    // Cosine decay to a tenth of the base rate.
    const double progress =
        config_.epochs > 1
            ? static_cast<double>(epoch) / (config_.epochs - 1)
            : 1.0;
    const double lr =
        config_.learning_rate *
        (0.1 + 0.45 * (1.0 + std::cos(3.14159265358979323846 * progress)));
    for (std::size_t i : order) {
      train_one(graphs[i], targets[i], lr);
    }
  }
  fitted_ = true;
}

double GcnRegressor::predict(const Matrix& nodes) const {
  ESM_REQUIRE(fitted_, "GCN used before fit()");
  ESM_REQUIRE(nodes.cols() == input_dim_, "GCN graph feature width mismatch");
  const Matrix m0 = propagate_chain(nodes);
  Matrix z1;
  gemm(m0, w1_, z1);
  z1.apply([](double x) { return x > 0.0 ? x : 0.0; });
  const Matrix m1 = propagate_chain(z1);
  Matrix z2;
  gemm(m1, w2_, z2);
  z2.apply([](double x) { return x > 0.0 ? x : 0.0; });
  double y = head_bias_;
  for (std::size_t c = 0; c < config_.hidden; ++c) {
    double pooled = 0.0;
    for (std::size_t r = 0; r < nodes.rows(); ++r) pooled += z2(r, c);
    y += head_(c, 0) * pooled / static_cast<double>(nodes.rows());
  }
  return y;
}

}  // namespace esm
