// Unit tests for src/esm: configuration validation, QC-controlled dataset
// generation, bin-wise evaluation, Algorithm-1 dataset extension, and the
// train-evaluate-extend framework loop.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>

#include "common/archive.hpp"
#include "common/checksum.hpp"
#include "common/error.hpp"
#include "esm/config.hpp"
#include "esm/dataset_gen.hpp"
#include "esm/evaluator.hpp"
#include "esm/extension.hpp"
#include "esm/framework.hpp"
#include "hwsim/device.hpp"

namespace esm {
namespace {

EsmConfig small_config() {
  EsmConfig cfg;
  cfg.spec = resnet_spec();
  cfg.n_initial = 60;
  cfg.n_step = 30;
  cfg.n_bins = 5;
  cfg.n_test = 60;
  cfg.acc_threshold = 0.9;
  cfg.max_iterations = 4;
  cfg.n_reference_models = 4;
  cfg.train.epochs = 60;
  cfg.train.batch_size = 32;
  cfg.seed = 11;
  return cfg;
}

/// A predictor with a controllable constant relative error.
class FakePredictor final : public LatencyPredictor {
 public:
  explicit FakePredictor(double scale) : scale_(scale) {}
  double predict_ms(const ArchConfig& arch) const override {
    // "True" value keyed on depth so bins differ; scaled by the error knob.
    return scale_ * static_cast<double>(arch.total_blocks());
  }
  std::string name() const override { return "fake"; }

 private:
  double scale_;
};

std::vector<MeasuredSample> depth_keyed_samples(const SupernetSpec& spec,
                                                int per_depth) {
  // One sample per total-depth value: arch with latency == total_blocks.
  std::vector<MeasuredSample> samples;
  BalancedSampler sampler(spec, 5);
  Rng rng(3);
  for (int t = spec.min_total_blocks(); t <= spec.max_total_blocks(); ++t) {
    for (int i = 0; i < per_depth; ++i) {
      MeasuredSample s;
      s.arch = sampler.sample_with_total(t, rng);
      s.latency_ms = static_cast<double>(t);
      samples.push_back(std::move(s));
    }
  }
  return samples;
}

// --------------------------------------------------------------- config

TEST(EsmConfigTest, DefaultIsValid) {
  EsmConfig cfg;
  cfg.spec = resnet_spec();
  EXPECT_NO_THROW(cfg.validate());
}

TEST(EsmConfigTest, RejectsBadValues) {
  EsmConfig cfg = small_config();
  cfg.n_initial = 0;
  EXPECT_THROW(cfg.validate(), ConfigError);
  cfg = small_config();
  cfg.acc_threshold = 1.5;
  EXPECT_THROW(cfg.validate(), ConfigError);
  cfg = small_config();
  cfg.w_below = 0.0;
  EXPECT_THROW(cfg.validate(), ConfigError);
  cfg = small_config();
  cfg.n_bins = 100;  // more bins than distinct totals (25)
  EXPECT_THROW(cfg.validate(), ConfigError);
  cfg = small_config();
  cfg.n_test = 2;  // fewer than bins
  EXPECT_THROW(cfg.validate(), ConfigError);
}

TEST(EsmConfigTest, RejectsUnknownRegistryKeys) {
  EsmConfig cfg = small_config();
  cfg.surrogate = "svm";
  try {
    cfg.validate();
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    // The error must list what IS registered so the fix is obvious.
    EXPECT_NE(std::string(e.what()).find("mlp, lut, gbdt, ensemble"),
              std::string::npos)
        << e.what();
  }
  cfg = small_config();
  cfg.encoder = "binary";
  EXPECT_THROW(cfg.validate(), ConfigError);
  cfg = small_config();
  cfg.surrogate = "ensemble";
  cfg.ensemble_members = 1;
  EXPECT_THROW(cfg.validate(), ConfigError);
}

TEST(EsmConfigTest, EvalStrategyNames) {
  EXPECT_STREQ(eval_strategy_name(EvalStrategy::kOverall), "overall");
  EXPECT_STREQ(eval_strategy_name(EvalStrategy::kBinWise), "bin-wise");
}

// ----------------------------------------------------- dataset generator

TEST(DatasetGeneratorTest, MeasuresAllRequestedArchs) {
  const EsmConfig cfg = small_config();
  SimulatedDevice device(rtx4090_spec(), 21);
  DatasetGenerator gen(cfg, device, Rng(1));
  BalancedSampler sampler(cfg.spec, cfg.n_bins);
  Rng rng(2);
  const auto archs = sampler.sample_n(20, rng);
  const BatchResult batch = gen.measure_batch(archs);
  const auto& samples = batch.samples;
  ASSERT_EQ(samples.size(), archs.size());
  EXPECT_EQ(batch.report.requested, archs.size());
  EXPECT_EQ(batch.report.measured, archs.size());
  EXPECT_EQ(batch.report.retries, 0);
  EXPECT_EQ(batch.qc.attempts, gen.qc_history().back().attempts);
  for (std::size_t i = 0; i < samples.size(); ++i) {
    EXPECT_EQ(samples[i].arch, archs[i]);
    EXPECT_GT(samples[i].latency_ms, 0.0);
  }
  EXPECT_EQ(gen.qc_history().size(), 1u);
}

TEST(DatasetGeneratorTest, ReferenceBaselinesEstablished) {
  const EsmConfig cfg = small_config();
  SimulatedDevice device(rtx4090_spec(), 23);
  DatasetGenerator gen(cfg, device, Rng(1));
  EXPECT_EQ(gen.reference_models().size(),
            static_cast<std::size_t>(cfg.n_reference_models));
  EXPECT_EQ(gen.reference_baselines().size(), gen.reference_models().size());
  for (double b : gen.reference_baselines()) EXPECT_GT(b, 0.0);
}

TEST(DatasetGeneratorTest, MeasurementsTrackTrueLatency) {
  EsmConfig cfg = small_config();
  DeviceSpec dspec = rtx4090_spec();
  dspec.bad_session_prob = 0.0;
  SimulatedDevice device(dspec, 25);
  DatasetGenerator gen(cfg, device, Rng(1));
  BalancedSampler sampler(cfg.spec, cfg.n_bins);
  Rng rng(2);
  const auto archs = sampler.sample_n(10, rng);
  const auto samples = gen.measure_batch(archs).samples;
  for (const MeasuredSample& s : samples) {
    const double truth =
        device.true_latency_ms(build_graph(cfg.spec, s.arch));
    EXPECT_NEAR(s.latency_ms / truth, 1.0, 0.05);
  }
}

TEST(DatasetGeneratorTest, QcRetriesBadSessions) {
  // A device whose sessions are frequently bad: QC must retry and the
  // recorded attempts must exceed 1 at least sometimes.
  EsmConfig cfg = small_config();
  cfg.qc_max_attempts = 8;
  DeviceSpec dspec = rtx4090_spec();
  dspec.bad_session_prob = 0.7;
  dspec.bad_session_drift_cv = 0.15;  // drifts far outside the 3% boundary
  SimulatedDevice device(dspec, 27);
  DatasetGenerator gen(cfg, device, Rng(5));
  BalancedSampler sampler(cfg.spec, cfg.n_bins);
  Rng rng(6);
  int retried = 0, passed = 0;
  for (int batch = 0; batch < 6; ++batch) {
    const auto archs = sampler.sample_n(5, rng);
    gen.measure_batch(archs);
    const QcReport& report = gen.qc_history().back();
    if (report.attempts > 1) ++retried;
    if (report.passed) ++passed;
  }
  EXPECT_GT(retried, 0);
  EXPECT_GT(passed, 0);
}

TEST(DatasetGeneratorTest, QcDetectsOutliers) {
  EsmConfig cfg = small_config();
  cfg.qc_max_attempts = 1;  // no retries: observe raw QC outcome
  DeviceSpec dspec = rtx4090_spec();
  dspec.bad_session_prob = 1.0;
  dspec.bad_session_drift_cv = 0.2;
  SimulatedDevice device(dspec, 29);
  DatasetGenerator gen(cfg, device, Rng(7));
  BalancedSampler sampler(cfg.spec, cfg.n_bins);
  Rng rng(8);
  gen.measure_batch(sampler.sample_n(3, rng));
  const QcReport& report = gen.qc_history().back();
  EXPECT_FALSE(report.passed);
  EXPECT_GT(report.outliers, 0);
}

// -------------------------------------------------------------- evaluator

TEST(EvaluatorTest, PerfectPredictorPassesEverywhere) {
  const SupernetSpec spec = resnet_spec();
  const auto test_set = depth_keyed_samples(spec, 2);
  BinwiseEvaluator evaluator(spec, 5, 0.95);
  const FakePredictor perfect(1.0);
  const EvalReport report = evaluator.evaluate(perfect, test_set);
  EXPECT_NEAR(report.overall_accuracy, 1.0, 1e-9);
  EXPECT_TRUE(report.passed(EvalStrategy::kBinWise, 0.95));
  EXPECT_TRUE(report.passed(EvalStrategy::kOverall, 0.95));
  EXPECT_TRUE(report.bins_below().empty());
  EXPECT_EQ(report.bins_above().size(), 5u);
}

TEST(EvaluatorTest, BiasedPredictorFails) {
  const SupernetSpec spec = resnet_spec();
  const auto test_set = depth_keyed_samples(spec, 2);
  BinwiseEvaluator evaluator(spec, 5, 0.95);
  const FakePredictor biased(0.8);  // 20% error everywhere
  const EvalReport report = evaluator.evaluate(biased, test_set);
  EXPECT_NEAR(report.overall_accuracy, 0.8, 1e-9);
  EXPECT_FALSE(report.passed(EvalStrategy::kBinWise, 0.95));
  EXPECT_EQ(report.bins_below().size(), 5u);
}

TEST(EvaluatorTest, BinCountsPartitionTestSet) {
  const SupernetSpec spec = resnet_spec();
  const auto test_set = depth_keyed_samples(spec, 3);
  BinwiseEvaluator evaluator(spec, 5, 0.9);
  const EvalReport report = evaluator.evaluate(FakePredictor(1.0), test_set);
  std::size_t total = 0;
  for (const BinAccuracy& b : report.bins) total += b.count;
  EXPECT_EQ(total, test_set.size());
}

TEST(EvaluatorTest, EmptyBinsAreNotCountedInMin) {
  const SupernetSpec spec = resnet_spec();
  // Only shallow archs: deep bins empty.
  std::vector<MeasuredSample> test_set;
  BalancedSampler sampler(spec, 5);
  Rng rng(9);
  for (int i = 0; i < 10; ++i) {
    MeasuredSample s;
    s.arch = sampler.sample_with_total(5, rng);
    s.latency_ms = 5.0;
    test_set.push_back(s);
  }
  BinwiseEvaluator evaluator(spec, 5, 0.9);
  const EvalReport report = evaluator.evaluate(FakePredictor(1.0), test_set);
  EXPECT_EQ(report.bins[0].count, 10u);
  EXPECT_EQ(report.bins[4].count, 0u);
  EXPECT_GT(report.min_bin_accuracy, 0.95);  // only non-empty bins counted
}

TEST(EvaluatorTest, RejectsEmptyTestSet) {
  BinwiseEvaluator evaluator(resnet_spec(), 5, 0.9);
  EXPECT_THROW(evaluator.evaluate(FakePredictor(1.0), {}), ConfigError);
}

// -------------------------------------------------------------- extension

EvalReport report_with_failing_bins(const std::vector<int>& failing,
                                    int n_bins) {
  EvalReport report;
  report.bins.resize(static_cast<std::size_t>(n_bins));
  for (int i = 0; i < n_bins; ++i) {
    BinAccuracy& b = report.bins[static_cast<std::size_t>(i)];
    b.bin = i;
    b.count = 10;
    const bool fails =
        std::find(failing.begin(), failing.end(), i) != failing.end();
    b.accuracy = fails ? 0.5 : 0.99;
    b.below_threshold = fails;
  }
  return report;
}

TEST(ExtensionTest, QuotasFollowAlgorithmOne) {
  EsmConfig cfg = small_config();
  cfg.n_step = 100;
  cfg.w_below = 4.0;
  cfg.w_above = 1.0;
  // 2 failing bins, 3 passing: N_norm = 4*2 + 1*3 = 11.
  const EvalReport report = report_with_failing_bins({0, 1}, 5);
  const ExtensionPlan plan = plan_balanced_extension(cfg, report);
  // per failing bin: ceil(100*4/11) = 37; per passing: ceil(100*1/11) = 10.
  EXPECT_EQ(plan.per_bin[0], 37);
  EXPECT_EQ(plan.per_bin[1], 37);
  EXPECT_EQ(plan.per_bin[2], 10);
  EXPECT_EQ(plan.per_bin[3], 10);
  EXPECT_EQ(plan.per_bin[4], 10);
  EXPECT_EQ(plan.total(), 104);  // ceil rounding can exceed N_Step slightly
}

TEST(ExtensionTest, AllPassingBinsShareEvenly) {
  EsmConfig cfg = small_config();
  cfg.n_step = 100;
  const EvalReport report = report_with_failing_bins({}, 5);
  const ExtensionPlan plan = plan_balanced_extension(cfg, report);
  for (int q : plan.per_bin) EXPECT_EQ(q, 20);
}

TEST(ExtensionTest, EmptyBinsCountAsFailing) {
  EsmConfig cfg = small_config();
  cfg.n_step = 100;
  EvalReport report = report_with_failing_bins({}, 5);
  report.bins[3].count = 0;  // untested bin
  const ExtensionPlan plan = plan_balanced_extension(cfg, report);
  EXPECT_GT(plan.per_bin[3], plan.per_bin[0]);
}

TEST(ExtensionTest, BalancedSamplesLandInPlannedBins) {
  EsmConfig cfg = small_config();
  cfg.strategy = SamplingStrategy::kBalanced;
  cfg.n_step = 55;
  const EvalReport report = report_with_failing_bins({2}, 5);
  Rng rng(10);
  const auto archs = extend_dataset(cfg, report, rng);
  const ExtensionPlan plan = plan_balanced_extension(cfg, report);
  ASSERT_EQ(static_cast<int>(archs.size()), plan.total());
  // Count arrivals per bin and compare with the plan.
  const DepthBins bins(cfg.spec, cfg.n_bins);
  std::vector<int> got(5, 0);
  for (const ArchConfig& arch : archs) {
    ++got[static_cast<std::size_t>(bins.bin_of(arch.total_blocks()))];
  }
  for (int i = 0; i < 5; ++i) EXPECT_EQ(got[i], plan.per_bin[i]);
}

TEST(ExtensionTest, RandomStrategyIgnoresBins) {
  EsmConfig cfg = small_config();
  cfg.strategy = SamplingStrategy::kRandom;
  cfg.n_step = 40;
  const EvalReport report = report_with_failing_bins({0}, 5);
  Rng rng(11);
  const auto archs = extend_dataset(cfg, report, rng);
  EXPECT_EQ(archs.size(), 40u);
  for (const ArchConfig& arch : archs) {
    EXPECT_TRUE(cfg.spec.contains(arch));
  }
}

// -------------------------------------------------------------- framework

TEST(FrameworkTest, RunProducesPredictorAndTelemetry) {
  EsmConfig cfg = small_config();
  cfg.max_iterations = 3;
  SimulatedDevice device(rtx4090_spec(), 31);
  EsmFramework framework(cfg, device);
  const EsmResult result = framework.run();
  ASSERT_NE(result.predictor, nullptr);
  EXPECT_TRUE(result.predictor->fitted());
  EXPECT_FALSE(result.iterations.empty());
  EXPECT_LE(static_cast<int>(result.iterations.size()), cfg.max_iterations);
  EXPECT_EQ(result.test_set.size(), static_cast<std::size_t>(cfg.n_test));
  EXPECT_GE(result.final_train_set_size,
            static_cast<std::size_t>(cfg.n_initial));
  EXPECT_GT(result.total_measurement_seconds, 0.0);
  EXPECT_GT(result.total_train_seconds, 0.0);
}

TEST(FrameworkTest, DatasetGrowsByNStepEachIteration) {
  EsmConfig cfg = small_config();
  cfg.acc_threshold = 0.999;  // unreachable: force extensions
  cfg.max_iterations = 3;
  SimulatedDevice device(rtx4090_spec(), 33);
  const EsmResult result = EsmFramework(cfg, device).run();
  ASSERT_EQ(result.iterations.size(), 3u);
  EXPECT_EQ(result.iterations[0].train_set_size,
            static_cast<std::size_t>(cfg.n_initial));
  for (std::size_t i = 1; i < result.iterations.size(); ++i) {
    EXPECT_GE(result.iterations[i].train_set_size,
              result.iterations[i - 1].train_set_size +
                  static_cast<std::size_t>(cfg.n_step) / 2);
  }
  EXPECT_FALSE(result.converged);
}

TEST(FrameworkTest, ConvergesOnEasyThreshold) {
  EsmConfig cfg = small_config();
  cfg.acc_threshold = 0.5;  // trivially reachable
  SimulatedDevice device(rtx4090_spec(), 35);
  const EsmResult result = EsmFramework(cfg, device).run();
  EXPECT_TRUE(result.converged);
  EXPECT_EQ(result.iterations.size(), 1u);
  EXPECT_TRUE(result.iterations.back().passed);
}

TEST(FrameworkTest, DeterministicUnderSeed) {
  EsmConfig cfg = small_config();
  cfg.max_iterations = 2;
  SimulatedDevice d1(rtx4090_spec(), 37);
  SimulatedDevice d2(rtx4090_spec(), 37);
  const EsmResult r1 = EsmFramework(cfg, d1).run();
  const EsmResult r2 = EsmFramework(cfg, d2).run();
  ASSERT_EQ(r1.iterations.size(), r2.iterations.size());
  for (std::size_t i = 0; i < r1.iterations.size(); ++i) {
    EXPECT_DOUBLE_EQ(r1.iterations[i].eval.overall_accuracy,
                     r2.iterations[i].eval.overall_accuracy);
  }
}

TEST(FrameworkTest, SurrogateKeySelectsPredictorFamily) {
  EsmConfig cfg = small_config();
  cfg.surrogate = "gbdt";
  cfg.max_iterations = 1;
  SimulatedDevice device(rtx4090_spec(), 41);
  const EsmResult result = EsmFramework(cfg, device).run();
  ASSERT_NE(result.predictor, nullptr);
  EXPECT_EQ(result.predictor->kind(), "gbdt");
  EXPECT_EQ(result.predictor->encoder_key(), cfg.encoder);
}

TEST(FrameworkTest, RunWithSuppliedTestSetSkipsItsMeasurement) {
  EsmConfig cfg = small_config();
  cfg.max_iterations = 1;

  // Baseline run measures its own test set...
  SimulatedDevice d1(rtx4090_spec(), 43);
  const EsmResult full = EsmFramework(cfg, d1).run();
  ASSERT_EQ(full.test_set.size(), static_cast<std::size_t>(cfg.n_test));

  // ...an ablation run on a fresh device reuses it verbatim and pays less
  // simulated measurement cost.
  SimulatedDevice d2(rtx4090_spec(), 43);
  const EsmResult reused = EsmFramework(cfg, d2).run(full.test_set);
  ASSERT_EQ(reused.test_set.size(), full.test_set.size());
  for (std::size_t i = 0; i < full.test_set.size(); ++i) {
    EXPECT_EQ(reused.test_set[i].arch, full.test_set[i].arch);
    EXPECT_EQ(reused.test_set[i].latency_ms, full.test_set[i].latency_ms);
  }
  EXPECT_LT(reused.total_measurement_seconds,
            full.total_measurement_seconds);

  SimulatedDevice d3(rtx4090_spec(), 45);
  EXPECT_THROW(EsmFramework(cfg, d3).run({}), ConfigError);
}

TEST(FrameworkTest, ValidatesConfigAtConstruction) {
  EsmConfig cfg = small_config();
  cfg.n_step = 0;
  SimulatedDevice device(rtx4090_spec(), 39);
  EXPECT_THROW(EsmFramework(cfg, device), ConfigError);
}

// ------------------------------------------------------ framework goldens

/// Digest of everything a framework run produces that is not wall-clock
/// time: each iteration report, the final train and test sets, the
/// measurement-cost clock, and the saved artifact bytes. Doubles enter
/// as their bit patterns, so any drift in any bit changes the digest.
std::string run_digest(const EsmResult& result) {
  std::string text;
  const auto put = [&](double v) {
    text += std::to_string(std::bit_cast<std::uint64_t>(v));
    text += ' ';
  };
  text += std::to_string(result.converged) + ' ' +
          std::to_string(result.final_train_set_size) + '\n';
  for (const IterationReport& it : result.iterations) {
    text += std::to_string(it.iteration) + ' ' +
            std::to_string(it.train_set_size) + ' ' +
            std::to_string(it.passed) + ' ';
    put(it.measurement_seconds);
    put(it.eval.overall_accuracy);
    put(it.eval.min_bin_accuracy);
    for (const BinAccuracy& bin : it.eval.bins) {
      text += std::to_string(bin.count) + ' ';
      put(bin.accuracy);
    }
    text += '\n';
  }
  for (const auto* set : {&result.train_set, &result.test_set}) {
    for (const MeasuredSample& s : *set) {
      text += s.arch.to_string() + ' ';
      put(s.latency_ms);
    }
    text += '\n';
  }
  put(result.total_measurement_seconds);
  ArchiveWriter artifact;
  result.predictor->save(artifact);
  const std::string bytes = artifact.to_string();
  return std::to_string(result.iterations.size()) + ':' +
         crc32_hex(crc32(text)) + ':' + crc32_hex(crc32(bytes));
}

// Golden digests of three framework runs, which pin every bit the loop
// computes: restructuring it (the callback that measures, the seeds, the
// order of fits, profiling and extensions) must not change them.
TEST(FrameworkGoldenTest, MultiIterationRunIsBitIdentical) {
  EsmConfig cfg = small_config();
  cfg.acc_threshold = 0.74;  // passes after two extension rounds
  cfg.max_iterations = 4;
  SimulatedDevice device(rtx4090_spec(), 51);
  const EsmResult result = EsmFramework(cfg, device).run();
  EXPECT_TRUE(result.converged);
  EXPECT_EQ(run_digest(result), "3:3c719900:1819bf3b");
}

TEST(FrameworkGoldenTest, SuppliedTestSetRunIsBitIdentical) {
  EsmConfig cfg = small_config();
  cfg.surrogate = "gbdt";
  cfg.acc_threshold = 0.999;  // unreachable: every iteration extends
  cfg.max_iterations = 3;
  SimulatedDevice measured_on(rtx4090_spec(), 53);
  EsmConfig donor = cfg;
  donor.max_iterations = 1;
  const std::vector<MeasuredSample> test_set =
      EsmFramework(donor, measured_on).run().test_set;
  SimulatedDevice device(rtx4090_spec(), 55);
  const EsmResult result = EsmFramework(cfg, device).run(test_set);
  EXPECT_EQ(result.iterations.size(), 3u);
  EXPECT_EQ(run_digest(result), "3:dfc92285:b8ddc4b0");
}

TEST(FrameworkGoldenTest, LutRunProfilesOnTheMeasuringDevice) {
  // The LUT surrogate profiles its layers on the context device, which
  // in the framework is the measuring device: profiling between
  // extension rounds advances that device, and the digest pins the order.
  EsmConfig cfg = small_config();
  cfg.surrogate = "lut";
  cfg.acc_threshold = 0.999;
  cfg.max_iterations = 2;
  SimulatedDevice device(device_by_name("rpi4"), 57);
  const EsmResult result = EsmFramework(cfg, device).run();
  EXPECT_EQ(result.iterations.size(), 2u);
  EXPECT_EQ(run_digest(result), "2:7e6cc9c3:9436b606");
}

}  // namespace
}  // namespace esm
