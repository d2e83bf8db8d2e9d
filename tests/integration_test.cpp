// Cross-module integration tests: full ESM runs, encoder quality ordering on
// measured data, balanced-vs-random data efficiency, and end-to-end NAS.
#include <gtest/gtest.h>

#include "common/stats.hpp"
#include "esm/framework.hpp"
#include "hwsim/measurement.hpp"
#include "ml/metrics.hpp"
#include "nas/accuracy_proxy.hpp"
#include "nas/search/engine.hpp"
#include "nets/builder.hpp"
#include "nets/sampler.hpp"
#include "surrogate/lut_surrogate.hpp"
#include "surrogate/mlp_surrogate.hpp"

namespace esm {
namespace {

TrainConfig fast_train() {
  TrainConfig cfg;
  cfg.epochs = 120;
  cfg.batch_size = 128;
  return cfg;
}

struct MeasuredSet {
  std::vector<ArchConfig> archs;
  std::vector<double> latencies;
};

MeasuredSet measure_random(const SupernetSpec& spec, SimulatedDevice& device,
                           std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  RandomSampler sampler(spec);
  MeasuredSet set;
  device.begin_session();
  for (std::size_t i = 0; i < n; ++i) {
    set.archs.push_back(sampler.sample(rng));
    set.latencies.push_back(
        device.measure(build_graph(spec, set.archs.back())).value);
  }
  return set;
}

TEST(IntegrationTest, FccBeatsStatisticalOnResNetMeasurements) {
  // The paper's core claim (Figs. 8-9) on a reduced budget, and Fig. 10's
  // ResNet / RTX 4090 ordering FCC > FC > statistical on the same data.
  const SupernetSpec spec = resnet_spec();
  SimulatedDevice device(rtx4090_spec(), 101);
  const MeasuredSet train = measure_random(spec, device, 1200, 1);
  const MeasuredSet test = measure_random(spec, device, 300, 2);

  const auto accuracy = [&](EncodingKind kind) {
    MlpSurrogate s(make_encoder(kind, spec), fast_train(), 3);
    s.fit(train.archs, train.latencies);
    return mean_accuracy(s.predict_all(test.archs), test.latencies);
  };
  const double acc_fcc = accuracy(EncodingKind::kFcc);
  const double acc_fc = accuracy(EncodingKind::kFeatureCount);
  const double acc_stat = accuracy(EncodingKind::kStatistical);
  EXPECT_GT(acc_fcc, acc_stat + 0.01);
  EXPECT_GT(acc_fcc, acc_fc);
  EXPECT_GT(acc_fc, acc_stat);
  EXPECT_GT(acc_fcc, 0.9);
}

TEST(IntegrationTest, LutUnderperformsFccOnResNet) {
  const SupernetSpec spec = resnet_spec();
  SimulatedDevice device(rtx4090_spec(), 103);
  const MeasuredSet train = measure_random(spec, device, 800, 4);
  const MeasuredSet test = measure_random(spec, device, 200, 5);

  MlpSurrogate mlp(make_encoder(EncodingKind::kFcc, spec), fast_train(), 6);
  mlp.fit(train.archs, train.latencies);
  const double acc_fcc =
      mean_accuracy(mlp.predict_all(test.archs), test.latencies);

  LutSurrogate lut(spec, device);
  lut.fit_bias_correction(train.archs, train.latencies);
  const double acc_lut =
      mean_accuracy(lut.predict_all(test.archs), test.latencies);
  EXPECT_GT(acc_fcc, acc_lut);
}

TEST(IntegrationTest, BalancedStrategyCoversCornerBinsBetter) {
  // Fig. 11's mechanism: with equal budgets, the balanced strategy yields a
  // far better worst-bin accuracy because random sampling starves corner
  // depth bins.
  EsmConfig cfg;
  cfg.spec = resnet_spec();
  cfg.n_initial = 250;
  cfg.n_step = 100;
  cfg.n_bins = 5;
  cfg.n_test = 150;
  cfg.acc_threshold = 0.999;  // force a fixed number of iterations
  cfg.max_iterations = 1;
  cfg.train = fast_train();
  cfg.seed = 7;

  cfg.strategy = SamplingStrategy::kBalanced;
  SimulatedDevice d1(rtx4090_spec(), 105);
  const EsmResult balanced = EsmFramework(cfg, d1).run();

  cfg.strategy = SamplingStrategy::kRandom;
  SimulatedDevice d2(rtx4090_spec(), 105);
  const EsmResult random = EsmFramework(cfg, d2).run();

  EXPECT_GT(balanced.iterations.back().eval.min_bin_accuracy,
            random.iterations.back().eval.min_bin_accuracy);
}

TEST(IntegrationTest, EsmLoopImprovesWorstBin) {
  EsmConfig cfg;
  cfg.spec = resnet_spec();
  cfg.strategy = SamplingStrategy::kBalanced;
  cfg.n_initial = 150;
  cfg.n_step = 100;
  cfg.n_bins = 5;
  cfg.n_test = 150;
  cfg.acc_threshold = 0.999;  // never met: observe the trend over iters
  cfg.max_iterations = 4;
  cfg.train = fast_train();
  cfg.seed = 9;
  SimulatedDevice device(rtx4090_spec(), 107);
  const EsmResult result = EsmFramework(cfg, device).run();
  ASSERT_EQ(result.iterations.size(), 4u);
  EXPECT_GT(result.iterations.back().eval.min_bin_accuracy,
            result.iterations.front().eval.min_bin_accuracy - 0.01);
  EXPECT_GT(result.iterations.back().eval.overall_accuracy, 0.85);
}

TEST(IntegrationTest, SurrogateDrivenNasRespectsRealConstraint) {
  // Build a predictor via ESM, search with it, and verify the winner on the
  // ground-truth simulator: the predictor must be accurate enough that the
  // chosen model actually meets the latency budget (Fig. 2's point).
  EsmConfig cfg;
  cfg.spec = mobilenet_v3_spec();
  cfg.strategy = SamplingStrategy::kBalanced;
  cfg.n_initial = 300;
  cfg.n_step = 100;
  cfg.n_bins = 5;
  cfg.n_test = 100;
  cfg.acc_threshold = 0.9;
  cfg.max_iterations = 3;
  cfg.train = fast_train();
  cfg.seed = 13;
  SimulatedDevice device(rtx4090_spec(), 109);
  const EsmResult esm = EsmFramework(cfg, device).run();
  ASSERT_NE(esm.predictor, nullptr);

  // Median measured latency as the budget.
  std::vector<double> lats;
  for (const MeasuredSample& s : esm.test_set) lats.push_back(s.latency_ms);
  const double limit = median(lats);

  search::EngineConfig scfg;
  scfg.mode = search::Mode::best;
  scfg.population = 32;
  scfg.generations = 10;
  scfg.seed = 17;
  const search::SearchEngine engine(cfg.spec, scfg);
  const AccuracyProxy proxy(cfg.spec);
  const search::SearchOutcome found = engine.run(
      {search::Objective{"rtx4090", esm.predictor.get(), limit}}, proxy);
  ASSERT_TRUE(found.found_feasible);

  const double actual = device.true_latency_ms(
      build_graph(cfg.spec, found.candidates[found.best].arch));
  EXPECT_LT(actual, limit * 1.1);  // within 10% of the budget
}

TEST(IntegrationTest, WholeRunIsSeedReproducible) {
  EsmConfig cfg;
  cfg.spec = resnet_spec();
  cfg.n_initial = 80;
  cfg.n_step = 40;
  cfg.n_bins = 5;
  cfg.n_test = 80;
  cfg.acc_threshold = 0.9;
  cfg.max_iterations = 2;
  cfg.train = fast_train();
  cfg.seed = 21;
  SimulatedDevice d1(rtx4090_spec(), 111), d2(rtx4090_spec(), 111);
  const EsmResult a = EsmFramework(cfg, d1).run();
  const EsmResult b = EsmFramework(cfg, d2).run();
  ASSERT_EQ(a.train_set.size(), b.train_set.size());
  for (std::size_t i = 0; i < a.train_set.size(); ++i) {
    EXPECT_EQ(a.train_set[i].arch, b.train_set[i].arch);
    EXPECT_DOUBLE_EQ(a.train_set[i].latency_ms, b.train_set[i].latency_ms);
  }
}

}  // namespace
}  // namespace esm
