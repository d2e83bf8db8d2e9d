#include "ml/mlp.hpp"

#include <cmath>
#include <utility>

#include "common/error.hpp"

namespace esm {

Mlp::Mlp(std::vector<std::size_t> dims, Rng& rng) : dims_(std::move(dims)) {
  ESM_REQUIRE(dims_.size() >= 2, "MLP needs at least input and output dims");
  for (std::size_t d : dims_) {
    ESM_REQUIRE(d >= 1, "MLP layer widths must be positive");
  }
  layers_.reserve(dims_.size() - 1);
  for (std::size_t i = 0; i + 1 < dims_.size(); ++i) {
    const std::size_t fan_in = dims_[i];
    const std::size_t fan_out = dims_[i + 1];
    Dense layer;
    layer.w = Matrix(fan_in, fan_out);
    // Drawn unit by unit (out, then in), the order the archive lists them.
    const double he_std = std::sqrt(2.0 / static_cast<double>(fan_in));
    for (std::size_t r = 0; r < fan_out; ++r) {
      for (std::size_t c = 0; c < fan_in; ++c) {
        layer.w(c, r) = rng.normal(0.0, he_std);
      }
    }
    layer.b.assign(fan_out, 0.0);
    layer.m_w = Matrix(fan_in, fan_out);
    layer.v_w = Matrix(fan_in, fan_out);
    layer.m_b.assign(fan_out, 0.0);
    layer.v_b.assign(fan_out, 0.0);
    layers_.push_back(std::move(layer));
  }
}

Mlp Mlp::paper_predictor(std::size_t input_dim, Rng& rng) {
  return Mlp({input_dim, 64, 64, 1}, rng);
}

std::size_t Mlp::parameter_count() const {
  std::size_t total = 0;
  for (const Dense& l : layers_) total += l.w.size() + l.b.size();
  return total;
}

namespace {

// The element-wise loops below are written as selects over flat arrays, not
// as conditional stores, so they compile to vector code (this file takes
// the GEMM kernel's ISA flags, DESIGN.md §6g). Each element keeps its exact
// operation sequence — a select picks between the same two values the old
// branch did, including -0.0 and NaN — so vectorizing changes no bits.

/// h = x * w + b, then optional ReLU (`v < 0 ? 0 : v` keeps -0.0 and NaN).
void dense_forward(const Matrix& x, const Matrix& w,
                   const std::vector<double>& b, bool relu, Matrix& out) {
  gemm(x, w, out);
  const std::size_t cols = out.cols();
  const double* bias = b.data();
  for (std::size_t r = 0; r < out.rows(); ++r) {
    double* row = out.data() + r * cols;
    if (relu) {
      for (std::size_t c = 0; c < cols; ++c) {
        const double v = row[c] + bias[c];
        row[c] = v < 0.0 ? 0.0 : v;
      }
    } else {
      for (std::size_t c = 0; c < cols; ++c) row[c] += bias[c];
    }
  }
}

/// Backward ReLU: zero the delta wherever the layer's output was <= 0
/// (+0.0 and -0.0 included, NaN excluded).
void relu_mask(Matrix& delta, const Matrix& act) {
  double* d = delta.data();
  const double* a = act.data();
  for (std::size_t i = 0; i < delta.size(); ++i) {
    d[i] = a[i] <= 0.0 ? 0.0 : d[i];
  }
}

}  // namespace

Matrix Mlp::forward(const Matrix& x) const {
  Workspace ws;
  return forward_into(x, ws);  // copies the result out of the workspace
}

const Matrix& Mlp::forward_into(const Matrix& x, Workspace& ws) const {
  ESM_REQUIRE(x.cols() == input_dim(),
              "MLP input dim " << x.cols() << " != " << input_dim());
  // Ping-pong between the two workspace buffers: layer i reads the
  // previous layer's buffer (or x) and writes the other one, so no layer
  // ever aliases its input and no per-layer matrix is allocated.
  const Matrix* cur = &x;
  Matrix* bufs[2] = {&ws.a, &ws.b};
  std::size_t which = 0;
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    Matrix* next = bufs[which];
    which ^= 1;
    const bool relu = i + 1 < layers_.size();
    dense_forward(*cur, layers_[i].w, layers_[i].b, relu, *next);
    cur = next;
  }
  return *cur;
}

std::vector<double> Mlp::predict(const Matrix& x) const {
  Workspace ws;
  std::vector<double> y(x.rows());
  predict_into(x, y, ws);
  return y;
}

void Mlp::predict_into(const Matrix& x, std::span<double> out,
                       Workspace& ws) const {
  ESM_REQUIRE(output_dim() == 1, "predict() requires a scalar-output MLP");
  ESM_REQUIRE(out.size() == x.rows(), "predict_into output size mismatch");
  const Matrix& h = forward_into(x, ws);
  for (std::size_t r = 0; r < h.rows(); ++r) out[r] = h(r, 0);
}

double Mlp::predict_one(std::span<const double> features) const {
  Matrix x(1, features.size());
  auto row = x.row(0);
  for (std::size_t c = 0; c < features.size(); ++c) row[c] = features[c];
  return predict(x).front();
}

void Mlp::save(ArchiveWriter& archive, const std::string& prefix) const {
  std::vector<double> dims;
  for (std::size_t d : dims_) dims.push_back(static_cast<double>(d));
  archive.put_doubles(prefix + ".dims", dims);
  // The archive lists each layer's weights out x in, one unit's fan-in at a
  // time; memory holds them in x out, so they are transposed on the way out.
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    const Dense& layer = layers_[i];
    const Matrix wt = layer.w.transposed();
    archive.put_doubles(prefix + ".w" + std::to_string(i),
                        std::vector<double>(wt.data(), wt.data() + wt.size()));
    archive.put_doubles(prefix + ".b" + std::to_string(i), layer.b);
  }
}

Mlp Mlp::load(const ArchiveReader& archive, const std::string& prefix) {
  // Every dim and size is checked against the archived data before the
  // network is built, so damaged dims cannot ask for gigabytes of weights.
  constexpr double kMaxWidth = 1 << 20;
  const std::vector<double> raw_dims = archive.get_doubles(prefix + ".dims");
  ESM_REQUIRE(raw_dims.size() >= 2, "archived MLP needs at least two dims");
  std::vector<std::size_t> dims;
  for (double d : raw_dims) {
    ESM_REQUIRE(d >= 1.0 && d <= kMaxWidth && d == std::floor(d),
                "archived MLP dim " << d << " is not an integer in [1, 2^20]");
    dims.push_back(static_cast<std::size_t>(d));
  }
  std::vector<std::vector<double>> weights, biases;
  for (std::size_t i = 0; i + 1 < dims.size(); ++i) {
    const std::size_t in = dims[i], out = dims[i + 1];
    std::vector<double> w =
        archive.get_doubles(prefix + ".w" + std::to_string(i));
    // w.size() == out * in, without forming the product.
    ESM_REQUIRE(w.size() % out == 0 && w.size() / out == in,
                "archived MLP layer " << i << " weight size mismatch");
    std::vector<double> b =
        archive.get_doubles(prefix + ".b" + std::to_string(i));
    ESM_REQUIRE(b.size() == out,
                "archived MLP layer " << i << " bias size mismatch");
    weights.push_back(std::move(w));
    biases.push_back(std::move(b));
  }
  Rng init_rng(0);  // weights are overwritten below
  Mlp mlp(dims, init_rng);
  for (std::size_t i = 0; i < mlp.layers_.size(); ++i) {
    Dense& layer = mlp.layers_[i];
    const std::size_t in = layer.w.rows(), out = layer.w.cols();
    for (std::size_t r = 0; r < out; ++r) {
      for (std::size_t c = 0; c < in; ++c) {
        layer.w(c, r) = weights[i][r * in + c];
      }
    }
    layer.b = std::move(biases[i]);
  }
  return mlp;
}

double Mlp::train_batch(const Matrix& x, std::span<const double> y,
                        const AdamConfig& cfg, double lr_override,
                        TrainWorkspace& ws) {
  ESM_REQUIRE(output_dim() == 1, "train_batch requires a scalar-output MLP");
  ESM_REQUIRE(x.cols() == input_dim(),
              "MLP input dim " << x.cols() << " != " << input_dim());
  ESM_REQUIRE(x.rows() == y.size(), "train_batch batch-size mismatch");
  ESM_REQUIRE(x.rows() > 0, "train_batch requires a non-empty batch");
  const std::size_t batch = x.rows();
  const double lr = lr_override > 0.0 ? lr_override : cfg.learning_rate;

  // Forward, keeping every layer's output; layer i reads x (i == 0) or
  // the output of layer i - 1.
  ws.acts.resize(layers_.size());
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    const bool relu = i + 1 < layers_.size();
    dense_forward(i == 0 ? x : ws.acts[i - 1], layers_[i].w, layers_[i].b,
                  relu, ws.acts[i]);
  }

  // MSE loss and its gradient at the output.
  const Matrix& out = ws.acts.back();
  ws.delta.reshape(batch, 1);
  double loss = 0.0;
  for (std::size_t r = 0; r < batch; ++r) {
    const double diff = out(r, 0) - y[r];
    loss += diff * diff;
    ws.delta(r, 0) = 2.0 * diff / static_cast<double>(batch);
  }
  loss /= static_cast<double>(batch);

  ++adam_step_;
  const double bias1 = 1.0 - std::pow(cfg.beta1, static_cast<double>(adam_step_));
  const double bias2 = 1.0 - std::pow(cfg.beta2, static_cast<double>(adam_step_));

  // Backward pass, updating layer by layer from the top.
  for (std::size_t ii = layers_.size(); ii-- > 0;) {
    Dense& layer = layers_[ii];
    const Matrix& input = ii == 0 ? x : ws.acts[ii - 1];

    // Gradients: dW = input^T * delta (in x out, like w), db = column sums
    // of delta.
    gemm_at_b(input, ws.delta, ws.grad_w);
    ws.grad_b.assign(layer.b.size(), 0.0);
    double* grad_b = ws.grad_b.data();
    for (std::size_t r = 0; r < batch; ++r) {
      const auto row = ws.delta.row(r);
      for (std::size_t c = 0; c < row.size(); ++c) grad_b[c] += row[c];
    }

    // Propagate delta to the previous layer through the weights as they
    // were before this step, masked by that layer's ReLU.
    if (ii > 0) {
      gemm_a_bt(ws.delta, layer.w, ws.prev_delta);  // (B x out) * w^T
      relu_mask(ws.prev_delta, input);
    }

    if (cfg.weight_decay != 0.0) {
      adam_update<true>(layer.w.data(), ws.grad_w.data(), layer.m_w.data(),
                        layer.v_w.data(), layer.w.size(), cfg, lr, bias1,
                        bias2);
    } else {
      adam_update<false>(layer.w.data(), ws.grad_w.data(), layer.m_w.data(),
                         layer.v_w.data(), layer.w.size(), cfg, lr, bias1,
                         bias2);
    }
    adam_update<false>(layer.b.data(), grad_b, layer.m_b.data(),
                       layer.v_b.data(), layer.b.size(), cfg, lr, bias1,
                       bias2);

    if (ii > 0) std::swap(ws.delta, ws.prev_delta);
  }
  return loss;
}

}  // namespace esm
