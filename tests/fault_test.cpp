// Tests for the fault-injection and fault-tolerance subsystem: profile
// parsing, the unified measure() API and the session-replay hooks, the
// determinism invariants (zero-profile bit-identity, unperturbed
// survivors), retry/backoff accounting, and quarantine.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/error.hpp"
#include "esm/dataset_gen.hpp"
#include "esm/framework.hpp"
#include "common/retry.hpp"
#include "hwsim/device.hpp"
#include "hwsim/faults.hpp"
#include "hwsim/measurement.hpp"
#include "nets/builder.hpp"
#include "nets/sampler.hpp"

namespace esm {
namespace {

EsmConfig small_config() {
  EsmConfig cfg;
  cfg.spec = resnet_spec();
  cfg.n_initial = 40;
  cfg.n_step = 20;
  cfg.n_bins = 5;
  cfg.n_test = 40;
  cfg.acc_threshold = 0.9;
  cfg.max_iterations = 2;
  cfg.n_reference_models = 4;
  cfg.qc_baseline_sessions = 2;
  cfg.train.epochs = 30;
  cfg.train.batch_size = 32;
  cfg.seed = 11;
  return cfg;
}

std::vector<ArchConfig> sample_archs(const SupernetSpec& spec, std::size_t n,
                                     std::uint64_t seed) {
  RandomSampler sampler(spec);
  Rng rng(seed);
  return sampler.sample_n(n, rng);
}

// ------------------------------------------------------- profile parsing

TEST(FaultProfileTest, DefaultIsInertAndValid) {
  const FaultProfile p;
  EXPECT_FALSE(p.any());
  EXPECT_NO_THROW(p.validate());
}

TEST(FaultProfileTest, PresetsParse) {
  EXPECT_FALSE(parse_fault_profile("").any());
  EXPECT_FALSE(parse_fault_profile("none").any());
  const FaultProfile flaky = parse_fault_profile("flaky");
  EXPECT_TRUE(flaky.any());
  const FaultProfile harsh = parse_fault_profile("HARSH");
  EXPECT_GT(harsh.read_error_prob, flaky.read_error_prob);
  EXPECT_GT(harsh.dropout_prob, flaky.dropout_prob);
}

TEST(FaultProfileTest, KeyValuePairsParse) {
  const FaultProfile p =
      parse_fault_profile("read_error_prob=0.25,timeout_prob=0.5,"
                          "timeout_cost_s=9.5");
  EXPECT_DOUBLE_EQ(p.read_error_prob, 0.25);
  EXPECT_DOUBLE_EQ(p.timeout_prob, 0.5);
  EXPECT_DOUBLE_EQ(p.timeout_cost_s, 9.5);
  EXPECT_DOUBLE_EQ(p.dropout_prob, 0.0);
}

TEST(FaultProfileTest, RejectsBadInput) {
  EXPECT_THROW(parse_fault_profile("warp_speed"), ConfigError);
  EXPECT_THROW(parse_fault_profile("flux_prob=0.1"), ConfigError);
  EXPECT_THROW(parse_fault_profile("timeout_prob=maybe"), ConfigError);
  EXPECT_THROW(parse_fault_profile("timeout_prob=0.1x"), ConfigError);
  EXPECT_THROW(parse_fault_profile("timeout_prob=1.5"), ConfigError);
  FaultProfile p;
  p.dropout_prob = -0.1;
  EXPECT_THROW(p.validate(), ConfigError);
}

TEST(FaultProfileTest, OutcomeNames) {
  EXPECT_STREQ(measure_outcome_name(MeasureOutcome::kOk), "ok");
  EXPECT_STREQ(measure_outcome_name(MeasureOutcome::kTimeout), "timeout");
  EXPECT_STREQ(measure_outcome_name(MeasureOutcome::kDeviceLost),
               "device-lost");
  EXPECT_STREQ(measure_outcome_name(MeasureOutcome::kReadError),
               "read-error");
}

// ------------------------------------------------- retry policy / backoff

TEST(RetryPolicyTest, ValidatesBounds) {
  RetryPolicy p;
  EXPECT_NO_THROW(p.validate());
  p.max_attempts = 0;
  EXPECT_THROW(p.validate(), ConfigError);
  p = RetryPolicy{};
  p.backoff_multiplier = 0.5;
  EXPECT_THROW(p.validate(), ConfigError);
  p = RetryPolicy{};
  p.backoff_jitter = 2.0;
  EXPECT_THROW(p.validate(), ConfigError);
}

TEST(RetryPolicyTest, BackoffGrowsExponentially) {
  RetryPolicy p;
  p.backoff_base_s = 0.5;
  p.backoff_multiplier = 2.0;
  p.backoff_jitter = 0.0;
  EXPECT_DOUBLE_EQ(retry_backoff_seconds(p, 1, Rng(1)), 0.5);
  EXPECT_DOUBLE_EQ(retry_backoff_seconds(p, 2, Rng(2)), 1.0);
  EXPECT_DOUBLE_EQ(retry_backoff_seconds(p, 3, Rng(3)), 2.0);
}

TEST(RetryPolicyTest, JitterStaysWithinBand) {
  RetryPolicy p;
  p.backoff_base_s = 1.0;
  p.backoff_multiplier = 1.0;
  p.backoff_jitter = 0.25;
  for (std::uint64_t s = 0; s < 50; ++s) {
    const double b = retry_backoff_seconds(p, 1, Rng(s));
    EXPECT_GE(b, 0.75);
    EXPECT_LE(b, 1.25);
  }
}

// ------------------------------------------------------ unified measure()

TEST(UnifiedMeasureTest, ReplaySessionsFastForwardsToIdenticalState) {
  // The journal-resume contract: a fresh same-seed device fast-forwarded
  // with replay_sessions(n) sits in exactly the state of a device that ran
  // n real sessions of substream measurements (substream measurements
  // never advance the sequential stream).
  const SupernetSpec spec = resnet_spec();
  const LayerGraph g = build_graph(spec, sample_archs(spec, 1, 5)[0]);
  SimulatedDevice original(rtx4090_spec(), 42);
  for (int s = 0; s < 4; ++s) {
    original.begin_session();
    MeasureOptions options;
    options.noise = Rng(100 + static_cast<std::uint64_t>(s));
    const MeasureResult r = original.measure(g, options);
    original.add_measurement_cost(r.cost_seconds);
  }
  SimulatedDevice resumed(rtx4090_spec(), 42);
  resumed.replay_sessions(4);
  resumed.restore_measurement_cost(original.measurement_cost_seconds());
  EXPECT_DOUBLE_EQ(resumed.measurement_cost_seconds(),
                   original.measurement_cost_seconds());
  // Both devices must agree on the entire next session, sequential stream
  // included.
  original.begin_session();
  resumed.begin_session();
  EXPECT_EQ(original.session_is_bad(), resumed.session_is_bad());
  EXPECT_DOUBLE_EQ(original.measure(g).value, resumed.measure(g).value);
}

TEST(UnifiedMeasureTest, StreamModeLeavesCostToCaller) {
  const SupernetSpec spec = resnet_spec();
  const LayerGraph g = build_graph(spec, sample_archs(spec, 1, 6)[0]);
  SimulatedDevice device(rtx4090_spec(), 3);
  device.reset_measurement_cost();
  MeasureOptions options;
  options.noise = Rng(9);
  const MeasureResult r = device.measure(g, options);
  EXPECT_TRUE(r.ok());
  EXPECT_GT(r.cost_seconds, 0.0);
  EXPECT_DOUBLE_EQ(device.measurement_cost_seconds(), 0.0);
  device.add_measurement_cost(r.cost_seconds);
  EXPECT_DOUBLE_EQ(device.measurement_cost_seconds(), r.cost_seconds);
}

TEST(UnifiedMeasureTest, ZeroProfileIsBitIdenticalToDefault) {
  const SupernetSpec spec = resnet_spec();
  const LayerGraph g = build_graph(spec, sample_archs(spec, 1, 8)[0]);
  SimulatedDevice plain(rtx4090_spec(), 17);
  SimulatedDevice zeroed(rtx4090_spec(), 17, MeasurementProtocol{},
                         FaultProfile{});
  for (int s = 0; s < 3; ++s) {
    plain.begin_session();
    zeroed.begin_session();
    EXPECT_DOUBLE_EQ(plain.measure(g).value, zeroed.measure(g).value);
  }
  EXPECT_DOUBLE_EQ(plain.measurement_cost_seconds(),
                   zeroed.measurement_cost_seconds());
}

TEST(UnifiedMeasureTest, SurvivingStreamMeasurementsUnperturbedByFaults) {
  // Enabling faults must not change the VALUES of measurements that
  // survive: fault decisions ride non-advancing substreams.
  const SupernetSpec spec = resnet_spec();
  const LayerGraph g = build_graph(spec, sample_archs(spec, 1, 4)[0]);
  FaultProfile profile;
  profile.read_error_prob = 0.3;
  profile.timeout_prob = 0.1;
  SimulatedDevice clean(rtx4090_spec(), 23);
  SimulatedDevice faulty(rtx4090_spec(), 23, MeasurementProtocol{}, profile);
  clean.begin_session();
  faulty.begin_session();
  int survived = 0;
  for (std::uint64_t t = 0; t < 40; ++t) {
    MeasureOptions options;
    options.noise = Rng(100 + t);
    const MeasureResult a = clean.measure(g, options);
    const MeasureResult b = faulty.measure(g, options);
    ASSERT_TRUE(a.ok());
    if (b.ok()) {
      ++survived;
      EXPECT_DOUBLE_EQ(a.value, b.value);
      EXPECT_DOUBLE_EQ(a.cost_seconds, b.cost_seconds);
    } else {
      EXPECT_GT(b.cost_seconds, 0.0);  // failures still burn simulated time
    }
  }
  EXPECT_GT(survived, 10);
  EXPECT_LT(survived, 40);  // the profile actually fired
}

TEST(UnifiedMeasureTest, SessionFaultRegimesAreSeeded) {
  FaultProfile profile;
  profile.dropout_prob = 0.5;
  profile.stuck_clock_prob = 0.5;
  SimulatedDevice a(rtx4090_spec(), 31, MeasurementProtocol{}, profile);
  SimulatedDevice b(rtx4090_spec(), 31, MeasurementProtocol{}, profile);
  int dropped = 0, stuck = 0;
  for (int s = 0; s < 20; ++s) {
    a.begin_session();
    b.begin_session();
    EXPECT_EQ(a.session_faults().dropped, b.session_faults().dropped);
    EXPECT_EQ(a.session_faults().stuck, b.session_faults().stuck);
    EXPECT_DOUBLE_EQ(a.session_faults().throttle_factor,
                     b.session_faults().throttle_factor);
    if (a.session_faults().dropped) ++dropped;
    if (a.session_faults().stuck) {
      ++stuck;
      EXPECT_GT(a.session_faults().throttle_factor, 1.0);
    }
  }
  EXPECT_GT(dropped, 2);
  EXPECT_GT(stuck, 2);
}

TEST(UnifiedMeasureTest, TimeoutChargesDeadlineCost) {
  FaultProfile profile;
  profile.timeout_prob = 1.0;
  profile.timeout_cost_s = 7.5;
  SimulatedDevice device(rtx4090_spec(), 37, MeasurementProtocol{}, profile);
  const SupernetSpec spec = resnet_spec();
  const LayerGraph g = build_graph(spec, sample_archs(spec, 1, 9)[0]);
  MeasureOptions options;
  options.noise = Rng(5);
  const MeasureResult r = device.measure(g, options);
  EXPECT_EQ(r.outcome, MeasureOutcome::kTimeout);
  EXPECT_FALSE(r.ok());
  EXPECT_DOUBLE_EQ(r.cost_seconds, 7.5);
}

// ------------------------------------------------ dataset gen under faults

TEST(FaultToleranceTest, ZeroProfileGeneratorMatchesDefault) {
  EsmConfig cfg = small_config();
  SimulatedDevice plain_device(rtx4090_spec(), 61);
  DatasetGenerator plain(cfg, plain_device, Rng(21));
  EsmConfig zero_cfg = small_config();
  zero_cfg.faults = FaultProfile{};  // explicit all-zero profile
  SimulatedDevice zero_device(rtx4090_spec(), 61);
  DatasetGenerator zeroed(zero_cfg, zero_device, Rng(21));
  const auto archs = sample_archs(cfg.spec, 15, 22);
  const BatchResult a = plain.measure_batch(archs);
  const BatchResult b = zeroed.measure_batch(archs);
  ASSERT_EQ(a.samples.size(), archs.size());
  ASSERT_EQ(b.samples.size(), archs.size());
  for (std::size_t i = 0; i < archs.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.samples[i].latency_ms, b.samples[i].latency_ms);
  }
  EXPECT_EQ(a.report.retries, 0);
  EXPECT_EQ(b.report.retries, 0);
  EXPECT_DOUBLE_EQ(plain_device.measurement_cost_seconds(),
                   zero_device.measurement_cost_seconds());
}

TEST(FaultToleranceTest, RetriesRecoverTransientFailures) {
  EsmConfig cfg = small_config();
  cfg.faults.read_error_prob = 0.4;
  cfg.retry.max_attempts = 4;
  SimulatedDevice device(rtx4090_spec(), 71);
  DatasetGenerator gen(cfg, device, Rng(31));
  const auto archs = sample_archs(cfg.spec, 20, 32);
  const BatchResult batch = gen.measure_batch(archs);
  // Retries fired, recovered the transient read errors, and their backoff
  // is visible in the simulated acquisition cost.
  EXPECT_GT(batch.report.retries, 0);
  EXPECT_GT(batch.report.read_errors, 0);
  EXPECT_EQ(batch.report.measured, batch.report.requested);
  EXPECT_GT(batch.report.backoff_seconds, 0.0);
  EXPECT_GT(batch.report.cost_seconds, batch.report.backoff_seconds);
  for (const MeasuredSample& s : batch.samples) {
    EXPECT_GT(s.latency_ms, 0.0);
  }
}

TEST(FaultToleranceTest, QuarantineAfterBudgetExhaustion) {
  EsmConfig cfg = small_config();
  cfg.faults.read_error_prob = 1.0;  // every attempt fails
  cfg.retry.max_attempts = 2;
  cfg.qc_max_attempts = 2;
  SimulatedDevice device(rtx4090_spec(), 81);
  DatasetGenerator gen(cfg, device, Rng(41));
  const auto archs = sample_archs(cfg.spec, 5, 42);
  const BatchResult first = gen.measure_batch(archs);
  EXPECT_EQ(first.report.measured, 0u);
  EXPECT_EQ(first.report.quarantined, archs.size());
  EXPECT_FALSE(first.report.qc_passed);
  EXPECT_GT(first.report.retries, 0);
  EXPECT_EQ(gen.quarantined().size(), archs.size());
  // A second batch with the same archs skips them entirely: no session,
  // no additional cost.
  const double cost_before = device.measurement_cost_seconds();
  const BatchResult second = gen.measure_batch(archs);
  EXPECT_EQ(second.report.skipped_quarantined, archs.size());
  EXPECT_EQ(second.report.measured, 0u);
  EXPECT_EQ(second.report.sessions, 0);
  EXPECT_DOUBLE_EQ(device.measurement_cost_seconds(), cost_before);
}

TEST(FaultToleranceTest, DropoutsDegradeGracefully) {
  EsmConfig cfg = small_config();
  cfg.faults.dropout_prob = 1.0;  // every session drops mid-way
  cfg.qc_max_attempts = 2;
  SimulatedDevice device(rtx4090_spec(), 91);
  DatasetGenerator gen(cfg, device, Rng(51));
  const auto archs = sample_archs(cfg.spec, 20, 52);
  const BatchResult batch = gen.measure_batch(archs);  // must not throw
  EXPECT_GT(batch.report.device_losses, 0);
  EXPECT_LT(batch.report.measured, batch.report.requested);
  EXPECT_FALSE(batch.report.qc_passed);  // the canary-after pass was lost
  for (const MeasuredSample& s : batch.samples) {
    EXPECT_GT(s.latency_ms, 0.0);
  }
}

TEST(FaultToleranceTest, FrameworkCompletesUnderFaults) {
  EsmConfig cfg = small_config();
  cfg.faults = fault_profile_by_name("flaky");
  cfg.max_iterations = 1;
  SimulatedDevice device(rtx4090_spec(), 95);
  EsmFramework framework(cfg, device);
  const EsmResult result = framework.run();
  EXPECT_FALSE(result.train_set.empty());
  EXPECT_FALSE(result.iterations.empty());
  EXPECT_GT(result.total_measurement_seconds, 0.0);
}

}  // namespace
}  // namespace esm
