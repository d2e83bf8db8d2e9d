// Unit tests for src/surrogate: the MLP surrogate and the layer-wise lookup
// table (with bias correction).
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>

#include "common/archive.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "hwsim/measurement.hpp"
#include "linalg/matrix.hpp"
#include "ml/metrics.hpp"
#include "nets/builder.hpp"
#include "nets/sampler.hpp"
#include "surrogate/ensemble_surrogate.hpp"
#include "surrogate/gbdt_surrogate.hpp"
#include "surrogate/gcn_surrogate.hpp"
#include "surrogate/lut_surrogate.hpp"
#include "surrogate/mlp_surrogate.hpp"
#include "surrogate/registry.hpp"

namespace esm {
namespace {

/// Small, fast training config for tests.
TrainConfig fast_train() {
  TrainConfig cfg;
  cfg.epochs = 120;
  cfg.batch_size = 64;
  return cfg;
}

/// Generates archs with noise-free latencies.
struct TestData {
  std::vector<ArchConfig> train_archs, test_archs;
  std::vector<double> train_y, test_y;
};

TestData make_data(const SupernetSpec& spec, const DeviceSpec& device,
                   std::size_t n_train, std::size_t n_test,
                   std::uint64_t seed) {
  LatencyModel model(device);
  Rng rng(seed);
  BalancedSampler sampler(spec, 5);
  TestData data;
  for (std::size_t i = 0; i < n_train + n_test; ++i) {
    const ArchConfig arch = sampler.sample(rng);
    const double y = model.true_latency_ms(build_graph(spec, arch));
    if (i < n_train) {
      data.train_archs.push_back(arch);
      data.train_y.push_back(y);
    } else {
      data.test_archs.push_back(arch);
      data.test_y.push_back(y);
    }
  }
  return data;
}

TEST(MlpSurrogateTest, RequiresEncoder) {
  EXPECT_THROW(MlpSurrogate(nullptr, fast_train(), 1), ConfigError);
}

TEST(MlpSurrogateTest, PredictBeforeFitThrows) {
  MlpSurrogate s(make_encoder(EncodingKind::kFcc, resnet_spec()),
                 fast_train(), 1);
  EXPECT_FALSE(s.fitted());
  ArchConfig arch;
  EXPECT_THROW(s.predict_ms(arch), ConfigError);
}

TEST(MlpSurrogateTest, NameIncludesEncoder) {
  MlpSurrogate s(make_encoder(EncodingKind::kFcc, resnet_spec()),
                 fast_train(), 1);
  EXPECT_EQ(s.name(), "MLP+fcc");
}

TEST(MlpSurrogateTest, FitsResNetLatencyWell) {
  const SupernetSpec spec = resnet_spec();
  const TestData data = make_data(spec, rtx4090_spec(), 1500, 300, 1);
  MlpSurrogate s(make_encoder(EncodingKind::kFcc, spec), fast_train(), 2);
  const TrainResult result = s.fit(data.train_archs, data.train_y);
  EXPECT_GT(result.train_seconds, 0.0);
  const std::vector<double> pred = s.predict_all(data.test_archs);
  EXPECT_GT(mean_accuracy(pred, data.test_y), 0.93);
}

TEST(MlpSurrogateTest, RefitReplacesModel) {
  const SupernetSpec spec = mobilenet_v3_spec();
  const TestData data = make_data(spec, rtx4090_spec(), 300, 50, 3);
  MlpSurrogate s(make_encoder(EncodingKind::kFcc, spec), fast_train(), 4);
  s.fit(data.train_archs, data.train_y);
  const double before = s.predict_ms(data.test_archs[0]);
  // Refit on shifted targets: predictions must follow.
  std::vector<double> shifted = data.train_y;
  for (double& y : shifted) y *= 10.0;
  s.fit(data.train_archs, shifted);
  const double after = s.predict_ms(data.test_archs[0]);
  EXPECT_GT(after, before * 3.0);
}

TEST(MlpSurrogateTest, DeterministicUnderSeed) {
  const SupernetSpec spec = resnet_spec();
  const TestData data = make_data(spec, rtx4090_spec(), 200, 20, 5);
  MlpSurrogate a(make_encoder(EncodingKind::kFcc, spec), fast_train(), 7);
  MlpSurrogate b(make_encoder(EncodingKind::kFcc, spec), fast_train(), 7);
  a.fit(data.train_archs, data.train_y);
  b.fit(data.train_archs, data.train_y);
  for (const ArchConfig& arch : data.test_archs) {
    EXPECT_DOUBLE_EQ(a.predict_ms(arch), b.predict_ms(arch));
  }
}

TEST(MlpSurrogateTest, MismatchedDataThrows) {
  const SupernetSpec spec = resnet_spec();
  MlpSurrogate s(make_encoder(EncodingKind::kFcc, spec), fast_train(), 1);
  Rng rng(1);
  RandomSampler sampler(spec);
  const auto archs = sampler.sample_n(3, rng);
  const std::vector<double> y{1.0, 2.0};
  EXPECT_THROW(s.fit(archs, y), ConfigError);
}

TEST(MlpSurrogateTest, SaveLoadRoundTripPredictsIdentically) {
  const SupernetSpec spec = resnet_spec();
  const TestData data = make_data(spec, rtx4090_spec(), 400, 40, 31);
  MlpSurrogate original(make_encoder(EncodingKind::kFcc, spec), fast_train(),
                        8);
  original.fit(data.train_archs, data.train_y);
  const std::string path = testing::TempDir() + "/esm_surrogate.esm";
  save_surrogate(original, path);

  const std::unique_ptr<TrainableSurrogate> restored = load_surrogate(path);
  EXPECT_TRUE(restored->fitted());
  EXPECT_EQ(restored->name(), original.name());
  EXPECT_EQ(restored->kind(), "mlp");
  EXPECT_EQ(restored->encoder_key(), "fcc");
  for (const ArchConfig& arch : data.test_archs) {
    EXPECT_DOUBLE_EQ(restored->predict_ms(arch), original.predict_ms(arch));
  }
  std::remove(path.c_str());
}

TEST(MlpSurrogateTest, SaveUnfittedThrows) {
  MlpSurrogate s(make_encoder(EncodingKind::kFcc, resnet_spec()),
                 fast_train(), 1);
  EXPECT_THROW(save_surrogate(s, testing::TempDir() + "/never.esm"),
               ConfigError);
}

TEST(MlpSurrogateTest, LoadRejectsForeignArchive) {
  const std::string path = testing::TempDir() + "/esm_bogus.txt";
  {
    ArchiveWriter writer;
    writer.put_string("model", "something-else");
    writer.save(path);
  }
  EXPECT_THROW(load_surrogate(path), ConfigError);
  std::remove(path.c_str());
}

// ----------------------------------------------------------------- GBDT

// A GBDT artifact whose split names a feature at or past its encoder's
// width would read past every encoding it predicts on; loading refuses it.
TEST(GbdtSurrogateTest, LoadRejectsFeaturePastEncoderWidth) {
  const auto archive = [](double feature) {
    ArchiveWriter a;
    a.put_double("gbdt.learning_rate", 0.1);
    a.put_double("gbdt.base_prediction", 1.0);
    a.put_int("gbdt.stages", 1);
    a.put_doubles("gbdt.s0.feature", {feature, -1.0, -1.0});
    a.put_doubles("gbdt.s0.threshold", {0.5, 0.0, 0.0});
    a.put_doubles("gbdt.s0.value", {0.0, 1.0, 2.0});
    a.put_doubles("gbdt.s0.left", {1.0, -1.0, -1.0});
    a.put_doubles("gbdt.s0.right", {2.0, -1.0, -1.0});
    return ArchiveReader::from_string(a.to_string());
  };
  const SupernetSpec spec = resnet_spec();
  const double width = static_cast<double>(
      make_encoder(EncodingKind::kFcc, spec)->dimension());
  const auto loaded = GbdtSurrogate::load_state(
      archive(width - 1.0), make_encoder(EncodingKind::kFcc, spec));
  EXPECT_TRUE(loaded->fitted());
  EXPECT_THROW(GbdtSurrogate::load_state(
                   archive(width), make_encoder(EncodingKind::kFcc, spec)),
               ConfigError);
}

// ------------------------------------------------------------------ LUT

TEST(LutSurrogateTest, TableMemoizesLayerTypes) {
  const SupernetSpec spec = resnet_spec();
  SimulatedDevice device(rtx4090_spec(), 1);
  LutSurrogate lut(spec, device);
  EXPECT_EQ(lut.table_size(), 0u);
  Rng rng(2);
  RandomSampler sampler(spec);
  const ArchConfig arch = sampler.sample(rng);
  (void)lut.lut_ms(arch);
  const std::size_t after_one = lut.table_size();
  EXPECT_GT(after_one, 0u);
  // Re-predicting the same arch adds no entries.
  (void)lut.lut_ms(arch);
  EXPECT_EQ(lut.table_size(), after_one);
}

TEST(LutSurrogateTest, PredictionIsAdditiveOverLayers) {
  // For a deterministic device the LUT prediction of an arch whose layers
  // all appear in the table equals the sum of isolated layer measurements,
  // which overcounts fused element-wise layers -> strictly greater than
  // the true fused latency.
  DeviceSpec dspec = rtx4090_spec();
  dspec.run_noise_cv = 0.0;
  dspec.outlier_prob = 0.0;
  dspec.session_drift_cv = 0.0;
  dspec.bad_session_prob = 0.0;
  dspec.warmup_amplitude = 0.0;
  const SupernetSpec spec = resnet_spec();
  SimulatedDevice device(dspec, 3);
  LutSurrogate lut(spec, device);
  Rng rng(4);
  RandomSampler sampler(spec);
  const ArchConfig arch = sampler.sample(rng);
  const double lut_pred = lut.lut_ms(arch);
  const double truth = device.true_latency_ms(build_graph(spec, arch));
  EXPECT_GT(lut_pred, truth * 1.05);
}

TEST(LutSurrogateTest, BiasCorrectionImprovesAccuracy) {
  const SupernetSpec spec = resnet_spec();
  SimulatedDevice device(rtx4090_spec(), 5);
  const TestData data = make_data(spec, rtx4090_spec(), 300, 100, 6);
  LutSurrogate lut(spec, device);
  const double raw_acc =
      mean_accuracy(lut.predict_all(data.test_archs), data.test_y);
  lut.fit_bias_correction(data.train_archs, data.train_y);
  EXPECT_TRUE(lut.bias_corrected());
  const double corrected_acc =
      mean_accuracy(lut.predict_all(data.test_archs), data.test_y);
  EXPECT_GT(corrected_acc, raw_acc);
  lut.clear_bias_correction();
  EXPECT_FALSE(lut.bias_corrected());
}

TEST(LutSurrogateTest, NameReflectsCorrectionState) {
  const SupernetSpec spec = resnet_spec();
  SimulatedDevice device(rtx4090_spec(), 7);
  LutSurrogate lut(spec, device);
  EXPECT_EQ(lut.name(), "LUT");
  const TestData data = make_data(spec, rtx4090_spec(), 50, 0, 8);
  lut.fit_bias_correction(data.train_archs, data.train_y);
  EXPECT_EQ(lut.name(), "LUT+BC");
}

TEST(LutSurrogateTest, WarmTablePreloadsEntries) {
  const SupernetSpec spec = mobilenet_v3_spec();
  SimulatedDevice device(rtx4090_spec(), 9);
  LutSurrogate lut(spec, device);
  Rng rng(10);
  RandomSampler sampler(spec);
  const auto archs = sampler.sample_n(5, rng);
  lut.warm_table(archs);
  const std::size_t warmed = lut.table_size();
  EXPECT_GT(warmed, 0u);
  for (const ArchConfig& arch : archs) (void)lut.lut_ms(arch);
  EXPECT_EQ(lut.table_size(), warmed);
}

TEST(LutSurrogateTest, ProfilingChargesMeasurementCost) {
  const SupernetSpec spec = resnet_spec();
  SimulatedDevice device(rtx4090_spec(), 11);
  LutSurrogate lut(spec, device);
  Rng rng(12);
  RandomSampler sampler(spec);
  const double before = device.measurement_cost_seconds();
  (void)lut.lut_ms(sampler.sample(rng));
  EXPECT_GT(device.measurement_cost_seconds(), before);
}

// ------------------------------------------------------------- ensemble

TEST(EnsembleSurrogateTest, RequiresTwoMembers) {
  EXPECT_THROW(EnsembleSurrogate("fcc", resnet_spec(),
                                 fast_train(), 1, 1),
               ConfigError);
}

TEST(EnsembleSurrogateTest, MeanTracksMembersAndUncertaintyIsFinite) {
  const SupernetSpec spec = resnet_spec();
  const TestData data = make_data(spec, rtx4090_spec(), 400, 50, 51);
  EnsembleSurrogate ensemble("fcc", spec, fast_train(), 3, 52);
  EXPECT_FALSE(ensemble.fitted());
  ensemble.fit(data.train_archs, data.train_y);
  EXPECT_TRUE(ensemble.fitted());
  EXPECT_EQ(ensemble.member_count(), 3u);
  EXPECT_EQ(ensemble.name(), "Ensemble(3)xMLP+fcc");
  for (const ArchConfig& arch : data.test_archs) {
    const EnsemblePrediction p = ensemble.predict_with_uncertainty(arch);
    EXPECT_GT(p.mean_ms, 0.0);
    EXPECT_GE(p.stddev_ms, 0.0);
    EXPECT_DOUBLE_EQ(ensemble.predict_ms(arch), p.mean_ms);
  }
}

TEST(EnsembleSurrogateTest, UncertaintyHigherOffDistribution) {
  // Train only on shallow architectures; the ensemble must disagree more
  // on deep ones than on further shallow ones.
  const SupernetSpec spec = resnet_spec();
  const LatencyModel model(rtx4090_spec());
  Rng rng(53);
  BalancedSampler sampler(spec, 5);
  std::vector<ArchConfig> train;
  std::vector<double> y;
  for (int i = 0; i < 400; ++i) {
    const ArchConfig arch = sampler.sample_in_bin(0, rng);  // shallow only
    train.push_back(arch);
    y.push_back(model.true_latency_ms(build_graph(spec, arch)));
  }
  EnsembleSurrogate ensemble("fcc", spec, fast_train(), 4, 54);
  ensemble.fit(train, y);

  double shallow_std = 0.0, deep_std = 0.0;
  const int probes = 30;
  for (int i = 0; i < probes; ++i) {
    shallow_std +=
        ensemble.predict_with_uncertainty(sampler.sample_in_bin(0, rng))
            .stddev_ms;
    deep_std +=
        ensemble.predict_with_uncertainty(sampler.sample_in_bin(4, rng))
            .stddev_ms;
  }
  EXPECT_GT(deep_std, shallow_std * 2.0);
}

// ------------------------------------------------------------------ GCN

TEST(GcnSurrogateTest, NodeFeaturesMatchStructure) {
  const SupernetSpec spec = resnet_spec();
  GcnSurrogate gcn(spec, {.hidden = 8, .epochs = 2});
  Rng rng(41);
  RandomSampler sampler(spec);
  const ArchConfig arch = sampler.sample(rng);
  const Matrix nodes = gcn.node_features(arch);
  EXPECT_EQ(nodes.rows(), static_cast<std::size_t>(arch.total_blocks()));
  EXPECT_EQ(nodes.cols(), gcn.node_feature_dim());
  // 4 units + 2 scalars + 3 kernels + 3 expansions = 12.
  EXPECT_EQ(gcn.node_feature_dim(), 12u);
  // Every row has exactly one unit bit and one kernel bit set.
  for (std::size_t r = 0; r < nodes.rows(); ++r) {
    double unit_bits = 0.0, kernel_bits = 0.0;
    for (std::size_t u = 0; u < 4; ++u) unit_bits += nodes(r, u);
    for (std::size_t k = 0; k < 3; ++k) kernel_bits += nodes(r, 6 + k);
    EXPECT_DOUBLE_EQ(unit_bits, 1.0);
    EXPECT_DOUBLE_EQ(kernel_bits, 1.0);
  }
}

TEST(GcnSurrogateTest, LearnsLatencyReasonably) {
  const SupernetSpec spec = resnet_spec();
  const TestData data = make_data(spec, rtx4090_spec(), 800, 150, 43);
  GcnSurrogate gcn(spec, {.hidden = 24, .epochs = 40, .seed = 9});
  gcn.fit(data.train_archs, data.train_y);
  EXPECT_TRUE(gcn.fitted());
  const double acc =
      mean_accuracy(gcn.predict_all(data.test_archs), data.test_y);
  EXPECT_GT(acc, 0.8);
}

// Pins the bits a seeded GCN fit predicts: every step of its Adam update
// (weights with coupled decay, the head bias without) must keep the same
// expression in the same order. ESM_FMA=ON contracts mul+add in the GEMM
// kernel, so there the digest is not compared.
TEST(GcnSurrogateTest, GoldenPredictionDigest) {
  const SupernetSpec spec = resnet_spec();
  const TestData data = make_data(spec, rtx4090_spec(), 120, 40, 47);
  GcnSurrogate gcn(spec, {.hidden = 12, .epochs = 8, .seed = 11});
  gcn.fit(data.train_archs, data.train_y);
  std::uint64_t digest = 14695981039346656037ull;  // 64-bit FNV-1a
  for (const double value : gcn.predict_all(data.test_archs)) {
    const std::uint64_t bits = std::bit_cast<std::uint64_t>(value);
    for (int byte = 0; byte < 8; ++byte) {
      digest ^= (bits >> (8 * byte)) & 0xff;
      digest *= 1099511628211ull;
    }
  }
  if (gemm_fma_enabled()) return;
  EXPECT_EQ(digest, 0xd8918c7b21f33d36ull) << std::hex << "digest 0x" << digest;
}

TEST(GcnSurrogateTest, PredictBeforeFitThrows) {
  GcnSurrogate gcn(resnet_spec(), {.hidden = 8, .epochs = 2});
  ArchConfig arch;
  EXPECT_THROW(gcn.predict_ms(arch), ConfigError);
}

}  // namespace
}  // namespace esm
