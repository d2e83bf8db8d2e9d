// Unit tests for src/ml: metrics, the MLP + Adam trainer, linear
// regression, decision trees, and gradient boosting.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/archive.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "ml/gbdt.hpp"
#include "ml/gcn.hpp"
#include "ml/linreg.hpp"
#include "ml/metrics.hpp"
#include "ml/mlp.hpp"
#include "ml/trainer.hpp"
#include "ml/tree.hpp"

namespace esm {
namespace {

/// Builds a dataset y = f(x) over uniformly sampled inputs.
template <typename F>
void make_data(F f, std::size_t n, std::size_t d, Rng& rng, Matrix& x,
               std::vector<double>& y) {
  x = Matrix(n, d);
  y.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < d; ++j) x(i, j) = rng.uniform(-1.0, 1.0);
    y[i] = f(x.row(i));
  }
}

// -------------------------------------------------------------- metrics

TEST(MetricsTest, SampleAccuracyClampsAtZero) {
  EXPECT_DOUBLE_EQ(sample_accuracy(10.0, 10.0), 1.0);
  EXPECT_DOUBLE_EQ(sample_accuracy(9.0, 10.0), 0.9);
  EXPECT_DOUBLE_EQ(sample_accuracy(25.0, 10.0), 0.0);  // 150% error clamps
  EXPECT_THROW(sample_accuracy(1.0, 0.0), ConfigError);
}

TEST(MetricsTest, MeanAccuracyAveragesSamples) {
  const std::vector<double> pred{9.0, 11.0};
  const std::vector<double> actual{10.0, 10.0};
  EXPECT_DOUBLE_EQ(mean_accuracy(pred, actual), 0.9);
}

TEST(MetricsTest, MapeAndAccuracyAreComplementsWithoutClamp) {
  const std::vector<double> pred{9.0, 10.5};
  const std::vector<double> actual{10.0, 10.0};
  EXPECT_NEAR(mean_accuracy(pred, actual), 1.0 - mape(pred, actual), 1e-12);
}

TEST(MetricsTest, Rmse) {
  const std::vector<double> pred{1.0, 2.0};
  const std::vector<double> actual{2.0, 4.0};
  EXPECT_NEAR(rmse(pred, actual), std::sqrt((1.0 + 4.0) / 2.0), 1e-12);
}

TEST(MetricsTest, RSquared) {
  const std::vector<double> actual{1.0, 2.0, 3.0};
  EXPECT_DOUBLE_EQ(r_squared(actual, actual), 1.0);
  const std::vector<double> constant{2.0, 2.0, 2.0};
  EXPECT_LT(r_squared(constant, actual), 1.0);
}

// ------------------------------------------------------------------ MLP

TEST(MlpTest, ForwardShapeAndDeterminism) {
  Rng rng(1);
  Mlp mlp({3, 8, 1}, rng);
  Matrix x(5, 3, 0.5);
  const Matrix out1 = mlp.forward(x);
  const Matrix out2 = mlp.forward(x);
  ASSERT_EQ(out1.rows(), 5u);
  ASSERT_EQ(out1.cols(), 1u);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_DOUBLE_EQ(out1(i, 0), out2(i, 0));
  }
}

TEST(MlpTest, PaperPredictorShape) {
  Rng rng(2);
  Mlp mlp = Mlp::paper_predictor(36, rng);
  EXPECT_EQ(mlp.input_dim(), 36u);
  EXPECT_EQ(mlp.output_dim(), 1u);
  // 36*64+64 + 64*64+64 + 64*1+1 parameters.
  EXPECT_EQ(mlp.parameter_count(), 36u * 64 + 64 + 64 * 64 + 64 + 64 + 1);
}

TEST(MlpTest, RejectsBadDims) {
  Rng rng(3);
  EXPECT_THROW(Mlp({5}, rng), ConfigError);
  EXPECT_THROW(Mlp({5, 0, 1}, rng), ConfigError);
}

TEST(MlpTest, PredictOneMatchesBatch) {
  Rng rng(4);
  Mlp mlp({2, 4, 1}, rng);
  Matrix x = Matrix::from_rows({{0.3, -0.7}});
  EXPECT_DOUBLE_EQ(mlp.predict(x)[0], mlp.predict_one(x.row(0)));
}

TEST(MlpTest, LearnsLinearFunction) {
  Rng rng(5);
  Matrix x;
  std::vector<double> y;
  make_data([](std::span<const double> r) { return 2.0 * r[0] - r[1]; }, 512,
            2, rng, x, y);
  Mlp mlp({2, 16, 1}, rng);
  MlpTrainer trainer({.epochs = 150, .batch_size = 64});
  trainer.fit(mlp, x, y);
  const std::vector<double> pred = mlp.predict(x);
  EXPECT_LT(rmse(pred, y), 0.05);
}

TEST(MlpTest, LearnsNonlinearInteraction) {
  // The product x0*x1 is exactly the kind of joint interaction the FCC
  // encoding exposes; the MLP must be able to fit it.
  Rng rng(6);
  Matrix x;
  std::vector<double> y;
  make_data([](std::span<const double> r) { return r[0] * r[1]; }, 1024, 2,
            rng, x, y);
  Mlp mlp({2, 32, 32, 1}, rng);
  MlpTrainer trainer({.epochs = 300, .batch_size = 64});
  trainer.fit(mlp, x, y);
  EXPECT_LT(rmse(mlp.predict(x), y), 0.08);
}

TEST(MlpTest, TrainBatchReturnsDecreasingLoss) {
  Rng rng(7);
  Matrix x;
  std::vector<double> y;
  make_data([](std::span<const double> r) { return r[0]; }, 128, 1, rng, x, y);
  Mlp mlp({1, 8, 1}, rng);
  const AdamConfig adam;
  Mlp::TrainWorkspace ws;
  const double first = mlp.train_batch(x, y, adam, 0.0, ws);
  double last = first;
  for (int i = 0; i < 200; ++i) last = mlp.train_batch(x, y, adam, 0.0, ws);
  EXPECT_LT(last, first * 0.1);
}

TEST(MlpTest, WeightDecayShrinksWeights) {
  // With pure-noise targets and strong decay, weights shrink toward zero.
  Rng rng(8);
  Matrix x(64, 2);
  std::vector<double> y(64, 0.0);
  for (std::size_t i = 0; i < 64; ++i) {
    x(i, 0) = rng.normal();
    x(i, 1) = rng.normal();
  }
  Mlp strong({2, 4, 1}, rng);
  AdamConfig decay;
  decay.weight_decay = 1.0;
  Mlp::TrainWorkspace ws;
  for (int i = 0; i < 500; ++i) strong.train_batch(x, y, decay, 0.0, ws);
  Matrix probe = Matrix::from_rows({{1.0, 1.0}});
  EXPECT_NEAR(strong.predict(probe)[0], 0.0, 0.05);
}

// -------------------------------------------------------------- trainer

TEST(TrainerTest, ReportsEpochsAndTime) {
  Rng rng(9);
  Matrix x;
  std::vector<double> y;
  make_data([](std::span<const double> r) { return r[0]; }, 64, 1, rng, x, y);
  Mlp mlp({1, 4, 1}, rng);
  MlpTrainer trainer({.epochs = 10, .batch_size = 16});
  const TrainResult result = trainer.fit(mlp, x, y);
  EXPECT_EQ(result.epochs_run, 10);
  EXPECT_GE(result.train_seconds, 0.0);
  EXPECT_GT(result.final_train_mse, 0.0);
}

TEST(TrainerTest, BatchLargerThanDataIsClamped) {
  Rng rng(10);
  Matrix x;
  std::vector<double> y;
  make_data([](std::span<const double> r) { return r[0]; }, 10, 1, rng, x, y);
  Mlp mlp({1, 4, 1}, rng);
  MlpTrainer trainer({.epochs = 5, .batch_size = 256});
  EXPECT_NO_THROW(trainer.fit(mlp, x, y));
}

TEST(TrainerTest, ValidatesConfig) {
  EXPECT_THROW(MlpTrainer({.epochs = 0}), ConfigError);
  EXPECT_THROW(MlpTrainer({.epochs = 1, .batch_size = 0}), ConfigError);
}

TEST(TrainerTest, CosineScheduleConvergesLikeConstant) {
  Rng rng(11);
  Matrix x;
  std::vector<double> y;
  make_data([](std::span<const double> r) { return 3.0 * r[0] + 1.0; }, 256,
            1, rng, x, y);
  for (LrSchedule sched : {LrSchedule::kConstant, LrSchedule::kCosine}) {
    Rng init(12);
    Mlp mlp({1, 8, 1}, init);
    TrainConfig cfg{.epochs = 100, .batch_size = 32};
    cfg.schedule = sched;
    MlpTrainer trainer(cfg);
    trainer.fit(mlp, x, y);
    EXPECT_LT(rmse(mlp.predict(x), y), 0.1);
  }
}

// ------------------------------------------------- trained-bit pins

/// 64-bit FNV-1a over little-endian words.
struct Fnv1a {
  std::uint64_t h = 14695981039346656037ull;
  void fold(std::uint64_t v) {
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (v >> (8 * byte)) & 0xff;
      h *= 1099511628211ull;
    }
  }
  void fold(double v) { fold(std::bit_cast<std::uint64_t>(v)); }
};

/// Every weight and bias of `mlp`, layer by layer, as saved (%.17g text
/// round-trips every finite double exactly).
std::vector<std::vector<double>> mlp_parameters(const Mlp& mlp,
                                                std::size_t layers) {
  ArchiveWriter w;
  mlp.save(w, "m");
  const ArchiveReader r = ArchiveReader::from_string(w.to_string());
  std::vector<std::vector<double>> params;
  for (std::size_t i = 0; i < layers; ++i) {
    params.push_back(r.get_doubles("m.w" + std::to_string(i)));
    params.push_back(r.get_doubles("m.b" + std::to_string(i)));
  }
  return params;
}

struct GoldenFit {
  std::size_t input_dim;
  std::size_t batch_size;
  std::size_t samples;
  double weight_decay;
  std::uint64_t digest;
};

/// Seeded fit of the paper predictor: a cosine-scheduled multi-epoch fit,
/// then `kEpochs` single-epoch constant-rate fits that continue from it, so
/// each of those epochs reports its loss. Folds every loss the trainer
/// reports and every trained weight and bias bit.
std::uint64_t golden_fit_digest(const GoldenFit& g) {
  constexpr int kEpochs = 3;
  Rng rng(1000 + g.input_dim + g.batch_size);
  Matrix x;
  std::vector<double> y;
  make_data(
      [](std::span<const double> r) {
        double s = 0.0;
        for (std::size_t j = 0; j < r.size(); ++j) {
          s += (j % 3 == 0 ? 1.5 : -0.5) * r[j] + r[j] * r[(j + 1) % r.size()];
        }
        return s;
      },
      g.samples, g.input_dim, rng, x, y);
  Mlp mlp = Mlp::paper_predictor(g.input_dim, rng);
  TrainConfig cfg{.epochs = kEpochs, .batch_size = g.batch_size};
  cfg.adam.weight_decay = g.weight_decay;
  Fnv1a f;
  f.fold(MlpTrainer(cfg).fit(mlp, x, y).final_train_mse);
  cfg.epochs = 1;
  cfg.schedule = LrSchedule::kConstant;
  for (int e = 0; e < kEpochs; ++e) {
    cfg.shuffle_seed = 7 + static_cast<std::uint64_t>(e);
    f.fold(MlpTrainer(cfg).fit(mlp, x, y).final_train_mse);
  }
  for (const std::vector<double>& p : mlp_parameters(mlp, 3)) {
    for (double v : p) f.fold(v);
  }
  return f.h;
}

// Pins the exact bits seeded training produces: input dims 36 (FCC), 7 and
// 64; batch sizes 1, 7 and 256 plus one larger than the data (clamped);
// coupled weight decay on and off. The training step must keep every
// element's operation sequence (ascending-k products, separate multiply
// and add, the same Adam expression), so these digests hold on every SIMD
// backend. ESM_FMA=ON contracts mul+add in the training
// step too, so there the digests are not compared; the reference-step
// tests below bound the drift instead.
TEST(MlpTest, GoldenTrainedBitsDigest) {
  const GoldenFit golden[] = {
      {36, 256, 600, 1e-4, 0x0daa42224c6ec399ull},
      {36, 256, 600, 0.0, 0xb821fb721233e254ull},
      {36, 256, 100, 1e-4, 0xf342a1e1234b4261ull},  // batch > data
      {7, 7, 50, 1e-4, 0xb6fe45f8022b5926ull},
      {7, 7, 50, 0.0, 0x6bc29de398329558ull},
      {64, 1, 20, 1e-4, 0x138ae6ec83341c06ull},
      {64, 1, 20, 0.0, 0x59a68708cee7401full},
  };
  for (const GoldenFit& g : golden) {
    const std::uint64_t digest = golden_fit_digest(g);
    if (gemm_fma_enabled()) continue;
    EXPECT_EQ(digest, g.digest)
        << std::hex << "dim " << std::dec << g.input_dim << " batch "
        << g.batch_size << " n " << g.samples << " wd " << g.weight_decay
        << ": digest 0x" << std::hex << digest;
  }
}

// A test-local copy of the reference training step: naive ascending-k
// loops, a branchy ReLU and mask, and the Adam expression element by
// element. The shipped step must match it bit for bit (or, under ESM_FMA,
// to a tight relative tolerance).
struct RefDense {
  std::size_t out = 0, in = 0;
  std::vector<double> w, b, m_w, v_w, m_b, v_b;
};

std::vector<RefDense> ref_from(const Mlp& mlp, std::size_t layers) {
  const auto params = mlp_parameters(mlp, layers);
  std::vector<RefDense> net(layers);
  for (std::size_t i = 0; i < layers; ++i) {
    net[i].w = params[2 * i];
    net[i].b = params[2 * i + 1];
    net[i].out = net[i].b.size();
    net[i].in = net[i].w.size() / net[i].out;
    net[i].m_w.assign(net[i].w.size(), 0.0);
    net[i].v_w.assign(net[i].w.size(), 0.0);
    net[i].m_b.assign(net[i].out, 0.0);
    net[i].v_b.assign(net[i].out, 0.0);
  }
  return net;
}

double ref_train_batch(std::vector<RefDense>& net, long long& step,
                       const Matrix& x, std::span<const double> y,
                       const AdamConfig& cfg, double lr) {
  const std::size_t batch = x.rows();
  // acts[i] is the (batch x width) input of layer i; acts.back() the output.
  std::vector<std::vector<double>> acts;
  acts.emplace_back(x.data(), x.data() + x.size());
  for (std::size_t i = 0; i < net.size(); ++i) {
    const RefDense& l = net[i];
    const std::vector<double>& in = acts.back();
    std::vector<double> h(batch * l.out);
    for (std::size_t r = 0; r < batch; ++r) {
      for (std::size_t o = 0; o < l.out; ++o) {
        double acc = 0.0;
        for (std::size_t k = 0; k < l.in; ++k) {
          acc += in[r * l.in + k] * l.w[o * l.in + k];
        }
        acc += l.b[o];
        if (i + 1 < net.size() && acc < 0.0) acc = 0.0;
        h[r * l.out + o] = acc;
      }
    }
    acts.push_back(std::move(h));
  }
  std::vector<double> delta(batch);
  double loss = 0.0;
  for (std::size_t r = 0; r < batch; ++r) {
    const double diff = acts.back()[r] - y[r];
    loss += diff * diff;
    delta[r] = 2.0 * diff / static_cast<double>(batch);
  }
  loss /= static_cast<double>(batch);
  ++step;
  const double bias1 = 1.0 - std::pow(cfg.beta1, static_cast<double>(step));
  const double bias2 = 1.0 - std::pow(cfg.beta2, static_cast<double>(step));
  for (std::size_t ii = net.size(); ii-- > 0;) {
    RefDense& l = net[ii];
    const std::vector<double>& in = acts[ii];
    std::vector<double> gw(l.w.size()), gb(l.out, 0.0);
    for (std::size_t o = 0; o < l.out; ++o) {
      for (std::size_t k = 0; k < l.in; ++k) {
        double acc = 0.0;
        for (std::size_t r = 0; r < batch; ++r) {
          acc += delta[r * l.out + o] * in[r * l.in + k];
        }
        gw[o * l.in + k] = acc;
      }
    }
    for (std::size_t r = 0; r < batch; ++r) {
      for (std::size_t o = 0; o < l.out; ++o) gb[o] += delta[r * l.out + o];
    }
    if (cfg.weight_decay != 0.0) {
      for (std::size_t j = 0; j < gw.size(); ++j) {
        gw[j] += cfg.weight_decay * l.w[j];
      }
    }
    if (ii > 0) {
      std::vector<double> prev(batch * l.in);
      for (std::size_t r = 0; r < batch; ++r) {
        for (std::size_t k = 0; k < l.in; ++k) {
          double acc = 0.0;
          for (std::size_t o = 0; o < l.out; ++o) {
            acc += delta[r * l.out + o] * l.w[o * l.in + k];
          }
          if (in[r * l.in + k] <= 0.0) acc = 0.0;
          prev[r * l.in + k] = acc;
        }
      }
      delta = std::move(prev);
    }
    auto adam = [&](double& param, double grad, double& m, double& v) {
      m = cfg.beta1 * m + (1.0 - cfg.beta1) * grad;
      v = cfg.beta2 * v + (1.0 - cfg.beta2) * grad * grad;
      const double m_hat = m / bias1;
      const double v_hat = v / bias2;
      param -= lr * m_hat / (std::sqrt(v_hat) + cfg.epsilon);
    };
    for (std::size_t j = 0; j < l.w.size(); ++j) {
      adam(l.w[j], gw[j], l.m_w[j], l.v_w[j]);
    }
    for (std::size_t o = 0; o < l.out; ++o) {
      adam(l.b[o], gb[o], l.m_b[o], l.v_b[o]);
    }
  }
  return loss;
}

/// Saves `net` under the keys Mlp::save uses, so equal archive text means
/// equal bits for every finite value and the same sign for every NaN.
std::string ref_archive_text(const std::vector<RefDense>& net) {
  std::vector<double> dims{static_cast<double>(net.front().in)};
  for (const RefDense& l : net) dims.push_back(static_cast<double>(l.out));
  ArchiveWriter ref;
  ref.put_doubles("m.dims", dims);
  for (std::size_t i = 0; i < net.size(); ++i) {
    ref.put_doubles("m.w" + std::to_string(i), net[i].w);
    ref.put_doubles("m.b" + std::to_string(i), net[i].b);
  }
  return ref.to_string();
}

std::string mlp_archive_text(const Mlp& mlp) {
  ArchiveWriter w;
  mlp.save(w, "m");
  return w.to_string();
}

/// Builds an MLP from explicit weights and biases through the archive.
Mlp mlp_with(const std::vector<std::size_t>& dims,
             const std::vector<std::vector<double>>& w,
             const std::vector<std::vector<double>>& b) {
  ArchiveWriter a;
  std::vector<double> d(dims.begin(), dims.end());
  a.put_doubles("m.dims", d);
  for (std::size_t i = 0; i < w.size(); ++i) {
    a.put_doubles("m.w" + std::to_string(i), w[i]);
    a.put_doubles("m.b" + std::to_string(i), b[i]);
  }
  return Mlp::load(ArchiveReader::from_string(a.to_string()), "m");
}

void expect_step_matches_reference(Mlp& mlp, const Matrix& x,
                                   std::span<const double> y, int steps) {
  std::vector<RefDense> ref = ref_from(mlp, 3);
  long long ref_step = 0;
  AdamConfig cfg;
  Mlp::TrainWorkspace ws;
  for (int s = 0; s < steps; ++s) {
    const double lr = s == 1 ? 0.003 : 0.0;  // 0 = the config's rate
    const double got = mlp.train_batch(x, y, cfg, lr, ws);
    const double want = ref_train_batch(ref, ref_step, x, y, cfg,
                                        lr > 0.0 ? lr : cfg.learning_rate);
    if (std::isnan(want)) {
      EXPECT_TRUE(std::isnan(got)) << "step " << s;
    } else if (gemm_fma_enabled()) {
      EXPECT_NEAR(got, want, 1e-12 * std::max(1.0, std::abs(want)));
    } else {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(got),
                std::bit_cast<std::uint64_t>(want))
          << "loss bits differ at step " << s;
    }
  }
  if (gemm_fma_enabled()) {
    const auto got = mlp_parameters(mlp, 3);
    for (std::size_t i = 0; i < ref.size(); ++i) {
      for (std::size_t j = 0; j < ref[i].w.size(); ++j) {
        if (std::isnan(ref[i].w[j])) continue;
        EXPECT_NEAR(got[2 * i][j], ref[i].w[j], 1e-9);
      }
    }
    return;
  }
  EXPECT_EQ(mlp_archive_text(mlp), ref_archive_text(ref));
}

TEST(MlpTest, TrainBatchMatchesReferenceOnSignedZerosAtTheReluEdge) {
  // Forward sums start at +0.0, so a pre-activation can never be -0.0;
  // -0.0 reaches the step through the inputs and the biases instead.
  // Hidden units 0 and 3 have all-zero weights and a ±0 bias, so their
  // pre-activation is exactly +0.0 on every row: the ReLU keeps it and the
  // backward mask (`<= 0`) must zero its delta. Rows 0 and 1 are all-zero
  // inputs, which put every first-layer unit on the edge at once.
  const std::vector<std::size_t> dims{5, 6, 4, 1};
  Rng rng(31);
  std::vector<std::vector<double>> w(3), b(3);
  for (std::size_t i = 0; i + 1 < dims.size(); ++i) {
    for (std::size_t o = 0; o < dims[i + 1]; ++o) {
      for (std::size_t k = 0; k < dims[i]; ++k) {
        const bool dead = i < 2 && (o == 0 || o == 3);
        w[i].push_back(dead ? (k % 2 ? -0.0 : 0.0) : rng.normal(0.0, 0.7));
      }
      b[i].push_back(o % 2 ? -0.0 : 0.0);
    }
  }
  Mlp mlp = mlp_with(dims, w, b);
  Matrix x(9, 5);
  std::vector<double> y(9);
  for (std::size_t r = 0; r < 9; ++r) {
    for (std::size_t c = 0; c < 5; ++c) {
      x(r, c) = r < 2 ? ((r + c) % 2 ? -0.0 : 0.0)
                      : (c == r % 5 ? -0.0 : rng.uniform(-1.0, 1.0));
    }
    y[r] = rng.normal();
  }
  expect_step_matches_reference(mlp, x, y, 3);
}

TEST(MlpTest, TrainBatchMatchesReferenceWhenNanReachesTheMask) {
  // A NaN input poisons its row's pre-activations: `< 0` and `<= 0` are
  // both false on NaN, so the ReLU and the backward mask must pass it
  // through exactly as the branchy reference does.
  Rng rng(32);
  Mlp mlp({4, 8, 8, 1}, rng);
  Matrix x(5, 4);
  std::vector<double> y(5);
  for (std::size_t r = 0; r < 5; ++r) {
    for (std::size_t c = 0; c < 4; ++c) x(r, c) = rng.uniform(-1.0, 1.0);
    y[r] = rng.normal();
  }
  x(2, 1) = std::numeric_limits<double>::quiet_NaN();
  x(3, 0) = 0.0;
  x(3, 2) = -0.0;
  expect_step_matches_reference(mlp, x, y, 2);
}

// The forward multiplies the in x out weights in place; the archive lists
// them out x in. At each batch size, whose rows the kernel tiles
// differently (4-row micro tiles and their 1..3-row remainders, the 8-row
// column tail of the n = 1 output layer and its 4-, 2- and 1-row pieces),
// forward_into must equal gemm_a_bt over the archived layout plus bias and
// ReLU. Both sides run the same kernel on the same transposed values, so
// this holds bit for bit on every backend, FMA included.
TEST(MlpTest, ForwardMatchesArchivedLayoutAtEveryBatchSize) {
  Rng rng(33);
  const Mlp mlp = Mlp::paper_predictor(36, rng);
  const std::vector<std::size_t> dims{36, 64, 64, 1};
  const auto params = mlp_parameters(mlp, 3);
  std::vector<Matrix> w;
  for (std::size_t i = 0; i < 3; ++i) {
    ASSERT_EQ(params[2 * i].size(), dims[i + 1] * dims[i]);
    w.emplace_back(dims[i + 1], dims[i]);  // out x in, as archived
    std::copy(params[2 * i].begin(), params[2 * i].end(), w[i].data());
  }
  Mlp::Workspace ws;
  for (std::size_t m : {1, 2, 3, 4, 5, 6, 7, 8, 9, 16, 127, 128}) {
    Matrix x(m, 36);
    for (std::size_t j = 0; j < x.size(); ++j) {
      x.data()[j] = rng.uniform(-2.0, 2.0);
    }
    const Matrix& got = mlp.forward_into(x, ws);
    Matrix h = x, next;
    for (std::size_t i = 0; i < 3; ++i) {
      gemm_a_bt(h, w[i], next);
      const std::vector<double>& b = params[2 * i + 1];
      for (std::size_t r = 0; r < next.rows(); ++r) {
        for (std::size_t c = 0; c < next.cols(); ++c) {
          const double v = next(r, c) + b[c];
          next(r, c) = i + 1 < 3 && v < 0.0 ? 0.0 : v;
        }
      }
      std::swap(h, next);
    }
    ASSERT_EQ(got.rows(), m);
    ASSERT_EQ(got.cols(), 1u);
    for (std::size_t r = 0; r < m; ++r) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(got(r, 0)),
                std::bit_cast<std::uint64_t>(h(r, 0)))
          << "batch " << m << " row " << r;
    }
  }
  const std::string text = mlp_archive_text(mlp);
  EXPECT_EQ(mlp_archive_text(Mlp::load(ArchiveReader::from_string(text), "m")),
            text);
}

// Archived dims are checked before the network is built: a cast of 1e300
// to size_t is undefined, 2.5 would truncate, and {36, 40000, 40000, 1}
// would allocate and He-initialize ~12.8 GB per weight matrix before its
// short weight vector was noticed. Each must be a ConfigError.
TEST(MlpTest, LoadRejectsDamagedDims) {
  // One bias per layer, so only a layer with out == 1 is whole.
  const auto archive = [](const std::vector<double>& dims,
                          const std::vector<std::size_t>& weights) {
    ArchiveWriter a;
    a.put_doubles("m.dims", dims);
    for (std::size_t i = 0; i < weights.size(); ++i) {
      a.put_doubles("m.w" + std::to_string(i),
                    std::vector<double>(weights[i], 0.5));
      a.put_doubles("m.b" + std::to_string(i), std::vector<double>(1, 0.0));
    }
    return ArchiveReader::from_string(a.to_string());
  };
  EXPECT_NO_THROW(Mlp::load(archive({3.0, 1.0, 1.0}, {3, 1}), "m")
                      .predict_one(std::vector<double>{1.0, 2.0, 3.0}));
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  // 1.5 would truncate to a width the weight sizes agree with.
  for (double bad :
       {0.0, -1.0, 1.5, 2.5, nan, 1e300, inf, -inf, 1048577.0}) {
    EXPECT_THROW(Mlp::load(archive({3.0, bad, 1.0}, {3, 1}), "m"),
                 ConfigError)
        << "dim " << bad;
  }
  EXPECT_THROW(
      Mlp::load(archive({36.0, 40000.0, 40000.0, 1.0}, {36, 36, 36}), "m"),
      ConfigError);
  EXPECT_THROW(Mlp::load(archive({3.0}, {}), "m"), ConfigError);
  // A weight count other than out x in.
  EXPECT_THROW(Mlp::load(archive({3.0, 1.0, 1.0}, {4, 1}), "m"), ConfigError);
}

// ------------------------------------------------------- linear regression

TEST(LinRegTest, RecoversAffineModel) {
  Rng rng(13);
  Matrix x;
  std::vector<double> y;
  make_data([](std::span<const double> r) { return 4.0 * r[0] - 2.0 * r[1] + 7.0; },
            200, 2, rng, x, y);
  LinearRegression reg;
  reg.fit(x, y);
  EXPECT_NEAR(reg.weights()[0], 4.0, 1e-6);
  EXPECT_NEAR(reg.weights()[1], -2.0, 1e-6);
  EXPECT_NEAR(reg.intercept(), 7.0, 1e-6);
  EXPECT_NEAR(reg.predict_one(std::vector<double>{1.0, 1.0}), 9.0, 1e-6);
}

TEST(LinRegTest, PredictBeforeFitThrows) {
  LinearRegression reg;
  EXPECT_THROW(reg.predict_one(std::vector<double>{1.0}), ConfigError);
}

TEST(LinRegTest, BatchPredictMatchesSingle) {
  Rng rng(14);
  Matrix x;
  std::vector<double> y;
  make_data([](std::span<const double> r) { return r[0]; }, 50, 1, rng, x, y);
  LinearRegression reg;
  reg.fit(x, y);
  const std::vector<double> batch = reg.predict(x);
  for (std::size_t i = 0; i < x.rows(); ++i) {
    EXPECT_DOUBLE_EQ(batch[i], reg.predict_one(x.row(i)));
  }
}

// ----------------------------------------------------------------- tree

TEST(TreeTest, FitsPiecewiseConstantExactly) {
  Matrix x = Matrix::from_rows({{0.0}, {1.0}, {2.0}, {3.0}, {10.0},
                                {11.0}, {12.0}, {13.0}});
  std::vector<double> y{1, 1, 1, 1, 5, 5, 5, 5};
  DecisionTreeRegressor tree({.max_depth = 3, .min_samples_leaf = 1,
                              .min_samples_split = 2});
  tree.fit(x, y);
  EXPECT_DOUBLE_EQ(tree.predict_one(std::vector<double>{1.5}), 1.0);
  EXPECT_DOUBLE_EQ(tree.predict_one(std::vector<double>{11.5}), 5.0);
}

TEST(TreeTest, RespectsMaxDepth) {
  Rng rng(15);
  Matrix x;
  std::vector<double> y;
  make_data([](std::span<const double> r) { return std::sin(5.0 * r[0]); },
            500, 1, rng, x, y);
  DecisionTreeRegressor tree({.max_depth = 3, .min_samples_leaf = 1,
                              .min_samples_split = 2});
  tree.fit(x, y);
  EXPECT_LE(tree.depth(), 4);  // root at depth 1
}

TEST(TreeTest, RespectsMinSamplesLeaf) {
  Matrix x = Matrix::from_rows({{0.0}, {1.0}, {2.0}, {3.0}});
  std::vector<double> y{0, 1, 2, 3};
  DecisionTreeRegressor tree({.max_depth = 10, .min_samples_leaf = 2,
                              .min_samples_split = 2});
  tree.fit(x, y);
  // With min leaf 2 on 4 points the tree can split at most once.
  EXPECT_LE(tree.node_count(), 3u);
}

TEST(TreeTest, ConstantTargetYieldsSingleLeaf) {
  Matrix x = Matrix::from_rows({{0.0}, {1.0}, {2.0}});
  std::vector<double> y{4.0, 4.0, 4.0};
  DecisionTreeRegressor tree;
  tree.fit(x, y);
  EXPECT_DOUBLE_EQ(tree.predict_one(std::vector<double>{9.9}), 4.0);
}

TEST(TreeTest, PredictBeforeFitThrows) {
  DecisionTreeRegressor tree;
  EXPECT_THROW(tree.predict_one(std::vector<double>{0.0}), ConfigError);
}

TEST(TreeTest, ReducesErrorOnSmoothFunction) {
  Rng rng(16);
  Matrix x;
  std::vector<double> y;
  make_data([](std::span<const double> r) { return r[0] * r[0]; }, 1000, 1,
            rng, x, y);
  DecisionTreeRegressor tree({.max_depth = 8, .min_samples_leaf = 4,
                              .min_samples_split = 8});
  tree.fit(x, y);
  EXPECT_LT(rmse(tree.predict(x), y), 0.05);
}

// Archived node tables are checked before they are walked: a split whose
// child is not a later node can cycle (a one-node tree whose children are
// node 0 never returned from predict_one), and a feature that is not an
// index into the input reads past it. Each must be a ConfigError, and so
// must a stage count no ensemble could have.
TEST(TreeTest, LoadRejectsDamagedNodes) {
  // A stump on feature 0: node 0 splits at 0.5 into leaves 1 (value 1) and
  // 2 (value 2).
  struct Table {
    std::vector<double> feature{0.0, -1.0, -1.0};
    std::vector<double> left{1.0, -1.0, -1.0};
    std::vector<double> right{2.0, -1.0, -1.0};
  };
  const auto archive = [](const Table& t) {
    ArchiveWriter a;
    std::vector<double> value(t.feature.size());
    for (std::size_t i = 0; i < value.size(); ++i) {
      value[i] = static_cast<double>(i);
    }
    a.put_doubles("t.feature", t.feature);
    a.put_doubles("t.threshold", std::vector<double>(t.feature.size(), 0.5));
    a.put_doubles("t.value", value);
    a.put_doubles("t.left", t.left);
    a.put_doubles("t.right", t.right);
    return ArchiveReader::from_string(a.to_string());
  };
  const DecisionTreeRegressor stump =
      DecisionTreeRegressor::load(archive(Table{}), "t.", 2);
  EXPECT_DOUBLE_EQ(stump.predict_one(std::vector<double>{0.0, 9.0}), 1.0);
  EXPECT_DOUBLE_EQ(stump.predict_one(std::vector<double>{1.0, 9.0}), 2.0);

  EXPECT_THROW(DecisionTreeRegressor::load(
                   archive({.feature = {0.0}, .left = {0.0}, .right = {0.0}}),
                   "t.", 1),
               ConfigError);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (double bad : {-2.0, -0.5, 0.5, 2.0, nan, 1e300, -inf}) {
    Table t;
    t.feature[0] = bad;
    EXPECT_THROW(DecisionTreeRegressor::load(archive(t), "t.", 2),
                 ConfigError)
        << "feature " << bad;
  }
  for (double bad : {0.0, -1.0, 1.5, 3.0, nan, 1e300}) {
    Table t;
    t.left[0] = bad;
    EXPECT_THROW(DecisionTreeRegressor::load(archive(t), "t.", 2),
                 ConfigError)
        << "left child " << bad;
    t = Table{};
    t.right[0] = bad;
    EXPECT_THROW(DecisionTreeRegressor::load(archive(t), "t.", 2),
                 ConfigError)
        << "right child " << bad;
  }
  // A split below a split must point past itself too: node 1 -> node 1.
  EXPECT_THROW(DecisionTreeRegressor::load(
                   archive({.feature = {0.0, 0.0, -1.0},
                            .left = {1.0, 1.0, -1.0},
                            .right = {2.0, 2.0, -1.0}}),
                   "t.", 1),
               ConfigError);

  // The ensemble refuses a stage count that is not a positive int or
  // names stages the archive lacks, and hands the feature width down to
  // every stage.
  const auto ensemble = [](long long stages) {
    ArchiveWriter a;
    a.put_double("g.learning_rate", 0.1);
    a.put_double("g.base_prediction", 0.0);
    a.put_int("g.stages", stages);
    a.put_doubles("g.s0.feature", {0.0, -1.0, -1.0});
    a.put_doubles("g.s0.threshold", {0.5, 0.0, 0.0});
    a.put_doubles("g.s0.value", {0.0, 1.0, 2.0});
    a.put_doubles("g.s0.left", {1.0, -1.0, -1.0});
    a.put_doubles("g.s0.right", {2.0, -1.0, -1.0});
    return ArchiveReader::from_string(a.to_string());
  };
  EXPECT_NO_THROW(GradientBoostingRegressor::load(ensemble(1), "g.", 1));
  EXPECT_THROW(GradientBoostingRegressor::load(ensemble(1), "g.", 0),
               ConfigError);
  for (long long bad : {0LL, -1LL, (1LL << 16) + 1, 1LL << 40}) {
    EXPECT_THROW(GradientBoostingRegressor::load(ensemble(bad), "g.", 1),
                 ConfigError)
        << "stages " << bad;
  }
}

// ----------------------------------------------------------------- GBDT

TEST(GbdtTest, BeatsSingleShallowTree) {
  Rng rng(17);
  Matrix x;
  std::vector<double> y;
  make_data(
      [](std::span<const double> r) {
        return std::sin(3.0 * r[0]) + 0.5 * r[1];
      },
      1000, 2, rng, x, y);
  DecisionTreeRegressor shallow({.max_depth = 3, .min_samples_leaf = 4,
                                 .min_samples_split = 8});
  shallow.fit(x, y);
  GradientBoostingRegressor gbdt(
      {.n_estimators = 80,
       .learning_rate = 0.2,
       .tree = {.max_depth = 3, .min_samples_leaf = 4, .min_samples_split = 8}});
  gbdt.fit(x, y);
  EXPECT_LT(rmse(gbdt.predict(x), y), rmse(shallow.predict(x), y) * 0.7);
}

TEST(GbdtTest, StageCountMatchesConfig) {
  Rng rng(18);
  Matrix x;
  std::vector<double> y;
  make_data([](std::span<const double> r) { return r[0]; }, 100, 1, rng, x, y);
  GradientBoostingRegressor gbdt({.n_estimators = 25, .learning_rate = 0.1});
  gbdt.fit(x, y);
  EXPECT_EQ(gbdt.stage_count(), 25u);
}

TEST(GbdtTest, ValidatesConfig) {
  EXPECT_THROW(GradientBoostingRegressor({.n_estimators = 0}), ConfigError);
  EXPECT_THROW(
      GradientBoostingRegressor({.n_estimators = 1, .learning_rate = 0.0}),
      ConfigError);
}

TEST(GbdtTest, PredictBeforeFitThrows) {
  GradientBoostingRegressor gbdt;
  EXPECT_THROW(gbdt.predict_one(std::vector<double>{0.0}), ConfigError);
}

// ------------------------------------------------------------------ GCN

TEST(GcnTest, PropagateChainAveragesNeighbors) {
  // Chain of 3 nodes, 1 feature: [0, 3, 6].
  Matrix h = Matrix::from_rows({{0.0}, {3.0}, {6.0}});
  const Matrix p = GcnRegressor::propagate_chain(h);
  EXPECT_DOUBLE_EQ(p(0, 0), 1.5);  // (0 + 3) / 2
  EXPECT_DOUBLE_EQ(p(1, 0), 3.0);  // (0 + 3 + 6) / 3
  EXPECT_DOUBLE_EQ(p(2, 0), 4.5);  // (3 + 6) / 2
}

TEST(GcnTest, PropagateSingleNodeIsIdentity) {
  Matrix h = Matrix::from_rows({{5.0, -1.0}});
  const Matrix p = GcnRegressor::propagate_chain(h);
  EXPECT_DOUBLE_EQ(p(0, 0), 5.0);
  EXPECT_DOUBLE_EQ(p(0, 1), -1.0);
}

TEST(GcnTest, LearnsChainLengthFunction) {
  // Target = number of nodes: trivially learnable from mean-pooled
  // features if the GCN trains at all.
  Rng rng(19);
  std::vector<Matrix> graphs;
  std::vector<double> targets;
  for (int i = 0; i < 400; ++i) {
    const int n = rng.uniform_int(2, 12);
    Matrix g(static_cast<std::size_t>(n), 3);
    for (std::size_t r = 0; r < g.rows(); ++r) {
      g(r, 0) = 1.0;
      g(r, 1) = rng.uniform();
      g(r, 2) = 1.0 / static_cast<double>(n);
    }
    graphs.push_back(std::move(g));
    targets.push_back(static_cast<double>(n) / 12.0);
  }
  GcnRegressor gcn(3, {.hidden = 16, .epochs = 60, .seed = 3});
  gcn.fit(graphs, targets);
  double err = 0.0;
  for (std::size_t i = 0; i < graphs.size(); ++i) {
    err += std::abs(gcn.predict(graphs[i]) - targets[i]);
  }
  EXPECT_LT(err / static_cast<double>(graphs.size()), 0.08);
}

TEST(GcnTest, ValidatesInput) {
  EXPECT_THROW(GcnRegressor(0, {}), ConfigError);
  GcnRegressor gcn(2, {.hidden = 4, .epochs = 2});
  EXPECT_THROW(gcn.predict(Matrix(1, 2)), ConfigError);  // before fit
  std::vector<Matrix> graphs{Matrix(2, 3)};               // wrong width
  std::vector<double> targets{1.0};
  EXPECT_THROW(gcn.fit(graphs, targets), ConfigError);
}

TEST(GcnTest, DeterministicUnderSeed) {
  Rng rng(23);
  std::vector<Matrix> graphs;
  std::vector<double> targets;
  for (int i = 0; i < 50; ++i) {
    Matrix g(3, 2);
    g.fill(rng.uniform());
    graphs.push_back(std::move(g));
    targets.push_back(rng.uniform());
  }
  GcnRegressor a(2, {.hidden = 8, .epochs = 10, .seed = 5});
  GcnRegressor b(2, {.hidden = 8, .epochs = 10, .seed = 5});
  a.fit(graphs, targets);
  b.fit(graphs, targets);
  EXPECT_DOUBLE_EQ(a.predict(graphs[0]), b.predict(graphs[0]));
}

}  // namespace
}  // namespace esm
