// Unit tests for src/hwsim: device specs, the roofline latency model and its
// non-linearities (fusion, cache residency, occupancy, irregular algorithm
// efficiency, weight spill), and the noisy measurement protocol.
#include <gtest/gtest.h>

#include <cmath>

#include <algorithm>

#include "common/error.hpp"
#include "common/stats.hpp"
#include "hwsim/device.hpp"
#include "hwsim/energy_model.hpp"
#include "hwsim/latency_model.hpp"
#include "hwsim/measurement.hpp"
#include "nets/builder.hpp"
#include "nets/sampler.hpp"

namespace esm {
namespace {

ArchConfig uniform_arch(const SupernetSpec& spec, int depth, int kernel,
                        double expansion = 1.0) {
  ArchConfig arch;
  arch.kind = spec.kind;
  for (int u = 0; u < spec.num_units; ++u) {
    UnitConfig unit;
    for (int b = 0; b < depth; ++b) unit.blocks.push_back({kernel, expansion});
    arch.units.push_back(unit);
  }
  return arch;
}

// -------------------------------------------------------------- devices

TEST(DeviceTest, AllFourPaperDevicesExist) {
  const auto devices = all_device_specs();
  ASSERT_EQ(devices.size(), 4u);
  EXPECT_EQ(devices[0].short_name, "rtx4090");
  EXPECT_EQ(devices[1].short_name, "threadripper");
  EXPECT_EQ(devices[2].short_name, "rtx3080maxq");
  EXPECT_EQ(devices[3].short_name, "rpi4");
}

TEST(DeviceTest, LookupByNameCaseInsensitive) {
  EXPECT_EQ(device_by_name("RTX4090").name, "NVIDIA RTX 4090");
  EXPECT_EQ(device_by_name("rpi4").device_class, DeviceClass::kEmbedded);
  EXPECT_THROW(device_by_name("tpu"), ConfigError);
}

TEST(DeviceTest, ClassNames) {
  EXPECT_STREQ(device_class_name(DeviceClass::kGpu), "GPU");
  EXPECT_STREQ(device_class_name(DeviceClass::kCpu), "CPU");
  EXPECT_STREQ(device_class_name(DeviceClass::kEmbedded), "embedded");
}

TEST(DeviceTest, SpecsAreInternallyConsistent) {
  for (const DeviceSpec& d : all_device_specs()) {
    EXPECT_GT(d.peak_gflops, 0.0) << d.short_name;
    EXPECT_GT(d.mem_bandwidth_gbs, 0.0) << d.short_name;
    EXPECT_GT(d.base_efficiency, 0.0) << d.short_name;
    EXPECT_LE(d.base_efficiency, 1.0) << d.short_name;
    EXPECT_GE(d.outlier_prob, 0.0) << d.short_name;
    EXPECT_LE(d.outlier_prob, 1.0) << d.short_name;
    EXPECT_GE(d.channel_granularity, 1) << d.short_name;
  }
}

// -------------------------------------------------------- latency model

TEST(LatencyModelTest, PositiveLatencyForAllSpacesAndDevices) {
  Rng rng(1);
  for (const DeviceSpec& dspec : all_device_specs()) {
    LatencyModel model(dspec);
    for (const SupernetSpec& spec :
         {resnet_spec(), mobilenet_v3_spec(), densenet_spec()}) {
      RandomSampler sampler(spec);
      for (int i = 0; i < 10; ++i) {
        const double ms = model.true_latency_ms(
            build_graph(spec, sampler.sample(rng)));
        EXPECT_GT(ms, 0.0) << spec.name << " on " << dspec.short_name;
        EXPECT_TRUE(std::isfinite(ms));
      }
    }
  }
}

TEST(LatencyModelTest, DeterministicForSameGraph) {
  const SupernetSpec spec = resnet_spec();
  LatencyModel model(rtx4090_spec());
  const LayerGraph g = build_graph(spec, uniform_arch(spec, 3, 5));
  EXPECT_DOUBLE_EQ(model.true_latency_ms(g), model.true_latency_ms(g));
}

TEST(LatencyModelTest, DeeperIsSlower) {
  const SupernetSpec spec = resnet_spec();
  for (const DeviceSpec& dspec : all_device_specs()) {
    LatencyModel model(dspec);
    const double shallow =
        model.true_latency_ms(build_graph(spec, uniform_arch(spec, 1, 3)));
    const double deep =
        model.true_latency_ms(build_graph(spec, uniform_arch(spec, 7, 3)));
    EXPECT_GT(deep, shallow) << dspec.short_name;
  }
}

TEST(LatencyModelTest, BiggerExpansionIsSlower) {
  const SupernetSpec spec = resnet_spec();
  LatencyModel model(rtx4090_spec());
  const double small = model.true_latency_ms(
      build_graph(spec, uniform_arch(spec, 4, 5, 0.5)));
  const double large = model.true_latency_ms(
      build_graph(spec, uniform_arch(spec, 4, 5, 1.0)));
  EXPECT_GT(large, small);
}

TEST(LatencyModelTest, RelativeDeviceSpeedOrdering) {
  // The desktop GPU must be the fastest and the Pi the slowest by a wide
  // margin on the same network.
  const SupernetSpec spec = resnet_spec();
  const LayerGraph g = build_graph(spec, uniform_arch(spec, 4, 5));
  const double t4090 = LatencyModel(rtx4090_spec()).true_latency_ms(g);
  const double t3080 = LatencyModel(rtx3080_maxq_spec()).true_latency_ms(g);
  const double tcpu =
      LatencyModel(threadripper_5975wx_spec()).true_latency_ms(g);
  const double tpi = LatencyModel(raspberry_pi4_spec()).true_latency_ms(g);
  EXPECT_LT(t4090, t3080);
  EXPECT_LT(t3080, tcpu);
  EXPECT_LT(tcpu, tpi);
  EXPECT_GT(tpi, t4090 * 50);
}

TEST(LatencyModelTest, ElementwiseLayersFuseAfterConv) {
  const SupernetSpec spec = resnet_spec();
  LatencyModel model(rtx4090_spec());
  const LayerGraph g = build_graph(spec, uniform_arch(spec, 2, 3));
  const auto costs = model.analyze(g);
  ASSERT_EQ(costs.size(), g.size());
  std::size_t fused = 0;
  for (std::size_t i = 0; i < g.size(); ++i) {
    if (costs[i].fused) {
      ++fused;
      EXPECT_DOUBLE_EQ(costs[i].total_ms(), 0.0);
      // Fused layers are element-wise by construction.
      const LayerKind k = g[i].kind;
      EXPECT_TRUE(k == LayerKind::kBatchNorm || k == LayerKind::kRelu ||
                  k == LayerKind::kHSwish);
    }
  }
  EXPECT_GT(fused, g.size() / 3);  // most bn/relu layers fuse
}

TEST(LatencyModelTest, DenseNetPostConcatBatchNormDoesNotFuse) {
  const SupernetSpec spec = densenet_spec();
  LatencyModel model(rtx4090_spec());
  const LayerGraph g = build_graph(spec, uniform_arch(spec, 3, 3));
  const auto costs = model.analyze(g);
  for (std::size_t i = 1; i < g.size(); ++i) {
    if (g[i].kind == LayerKind::kBatchNorm &&
        g[i - 1].kind == LayerKind::kConcat) {
      EXPECT_FALSE(costs[i].fused) << "bn after concat must be a real kernel";
    }
  }
}

TEST(LatencyModelTest, CacheResidencyDiscountsWarmInput) {
  // A layer consuming its predecessor's output is cheaper than the same
  // layer measured cold, when the tensor fits in cache.
  LatencyModel model(rtx4090_spec());
  Layer producer;
  producer.kind = LayerKind::kConv2d;
  producer.input = {64, 56, 56};
  producer.output = {64, 56, 56};
  producer.kernel = 1;
  Layer consumer = producer;
  const LayerCost warm = model.layer_cost(consumer, &producer);
  const LayerCost cold = model.layer_cost(consumer, nullptr);
  EXPECT_LT(warm.memory_ms, cold.memory_ms);
  EXPECT_DOUBLE_EQ(warm.compute_ms, cold.compute_ms);
}

TEST(LatencyModelTest, WeightSpillKinksAtCache) {
  // MobileNetV3 weights fit the 4090's cache (no spill); max-size ResNet
  // weights do not.
  LatencyModel model(rtx4090_spec());
  const SupernetSpec mb = mobilenet_v3_spec();
  EXPECT_DOUBLE_EQ(
      model.weight_spill_ms(build_graph(mb, uniform_arch(mb, 2, 3, 0.5))),
      0.0);
  const SupernetSpec rn = resnet_spec();
  EXPECT_GT(
      model.weight_spill_ms(build_graph(rn, uniform_arch(rn, 7, 7, 1.0))),
      0.0);
}

TEST(LatencyModelTest, WeightSpillGrowsWithParams) {
  LatencyModel model(rtx4090_spec());
  const SupernetSpec rn = resnet_spec();
  const double small =
      model.weight_spill_ms(build_graph(rn, uniform_arch(rn, 4, 3, 1.0)));
  const double large =
      model.weight_spill_ms(build_graph(rn, uniform_arch(rn, 7, 7, 1.0)));
  EXPECT_GT(large, small);
}

TEST(LatencyModelTest, TrueLatencyIncludesSpillAndRampPenalty) {
  LatencyModel model(rtx4090_spec());
  const SupernetSpec rn = resnet_spec();
  const LayerGraph g = build_graph(rn, uniform_arch(rn, 7, 7, 1.0));
  double layer_sum = 0.0;
  for (const LayerCost& c : model.analyze(g)) layer_sum += c.total_ms();
  const double base = layer_sum + model.weight_spill_ms(g);
  const double total = model.true_latency_ms(g);
  // Total = base + DVFS ramp extra, bounded by the ramp penalty.
  EXPECT_GE(total, base);
  EXPECT_LE(total, base * (1.0 + model.spec().dvfs_ramp_penalty) + 1e-9);
}

TEST(LatencyModelTest, DvfsRampPenalizesShortInferencesMore) {
  // Relative ramp penalty must shrink as inferences get longer.
  LatencyModel model(rtx4090_spec());
  DeviceSpec no_ramp = rtx4090_spec();
  no_ramp.dvfs_ramp_penalty = 0.0;
  LatencyModel base_model(no_ramp);
  const SupernetSpec rn = resnet_spec();
  const LayerGraph shallow = build_graph(rn, uniform_arch(rn, 1, 3, 0.5));
  const LayerGraph deep = build_graph(rn, uniform_arch(rn, 7, 7, 1.0));
  const double shallow_ratio = model.true_latency_ms(shallow) /
                               base_model.true_latency_ms(shallow);
  const double deep_ratio =
      model.true_latency_ms(deep) / base_model.true_latency_ms(deep);
  EXPECT_GT(shallow_ratio, deep_ratio + 0.02);
  EXPECT_GT(shallow_ratio, 1.02);
  EXPECT_LT(deep_ratio, 1.05);
}

TEST(LatencyModelTest, RejectsInvalidSpec) {
  DeviceSpec bad = rtx4090_spec();
  bad.peak_gflops = 0.0;
  EXPECT_THROW(LatencyModel{bad}, ConfigError);
  bad = rtx4090_spec();
  bad.base_efficiency = 1.5;
  EXPECT_THROW(LatencyModel{bad}, ConfigError);
}

// --------------------------------------------------------------- energy

TEST(EnergyModelTest, PositiveAndDeterministic) {
  const SupernetSpec spec = resnet_spec();
  for (const DeviceSpec& dspec : all_device_specs()) {
    EnergyModel model(dspec);
    const LayerGraph g = build_graph(spec, uniform_arch(spec, 3, 5));
    const double mj = model.true_energy_mj(g);
    EXPECT_GT(mj, 0.0) << dspec.short_name;
    EXPECT_DOUBLE_EQ(mj, model.true_energy_mj(g));
  }
}

TEST(EnergyModelTest, AveragePowerWithinEnvelope) {
  const SupernetSpec spec = resnet_spec();
  for (const DeviceSpec& dspec : all_device_specs()) {
    EnergyModel model(dspec);
    const PowerEnvelope& env = model.envelope();
    const LayerGraph g = build_graph(spec, uniform_arch(spec, 4, 5));
    const double watts = model.average_power_w(g);
    EXPECT_GE(watts, env.idle_power_w) << dspec.short_name;
    EXPECT_LE(watts, env.board_power_w) << dspec.short_name;
  }
}

TEST(EnergyModelTest, DeeperMeansMoreEnergy) {
  const SupernetSpec spec = resnet_spec();
  EnergyModel model(rtx4090_spec());
  const double small =
      model.true_energy_mj(build_graph(spec, uniform_arch(spec, 1, 3)));
  const double large =
      model.true_energy_mj(build_graph(spec, uniform_arch(spec, 7, 7)));
  EXPECT_GT(large, small * 2.0);
}

TEST(EnergyModelTest, EnergyAndLatencyAreNotProportional) {
  // Energy is not a constant multiple of latency: compute-bound and
  // dispatch-bound models draw very different average power, so an energy
  // surrogate genuinely learns a different target.
  const SupernetSpec rn = resnet_spec();
  const SupernetSpec mb = mobilenet_v3_spec();
  EnergyModel model(rtx4090_spec());
  const LayerGraph heavy = build_graph(rn, uniform_arch(rn, 6, 7, 1.0));
  const LayerGraph light = build_graph(mb, uniform_arch(mb, 6, 3, 0.5));
  const double p_heavy = model.average_power_w(heavy);
  const double p_light = model.average_power_w(light);
  EXPECT_GT(p_heavy, p_light * 1.3);
}

TEST(EnergyModelTest, RejectsBadEnvelope) {
  PowerEnvelope env;
  env.board_power_w = 10.0;
  env.idle_power_w = 20.0;
  EXPECT_THROW(EnergyModel(rtx4090_spec(), env), ConfigError);
}

TEST(EnergyModelTest, EnvelopeLookupCoversAllDevices) {
  for (const DeviceSpec& d : all_device_specs()) {
    const PowerEnvelope env = energy_envelope_for(d);
    EXPECT_GT(env.board_power_w, env.idle_power_w) << d.short_name;
  }
}

TEST(EnergyMeasurementTest, MeasuredEnergyTracksTruth) {
  DeviceSpec dspec = rtx4090_spec();
  dspec.bad_session_prob = 0.0;
  SimulatedDevice device(dspec, 77);
  const SupernetSpec spec = resnet_spec();
  const LayerGraph g = build_graph(spec, uniform_arch(spec, 4, 5));
  const double truth = device.true_energy_mj(g);
  device.begin_session();
  MeasureOptions options;
  options.quantity = MeasureQuantity::kEnergyMj;
  EXPECT_NEAR(device.measure(g, options).value / truth, 1.0, 0.05);
}

// ----------------------------------------------------------- measurement

TEST(MeasurementTest, TraceHasProtocolLength) {
  const SupernetSpec spec = resnet_spec();
  SimulatedDevice device(rtx4090_spec(), 1);
  const LayerGraph g = build_graph(spec, uniform_arch(spec, 2, 3));
  MeasureOptions options;
  options.keep_trace = true;
  const auto trace = device.measure(g, options).trace;
  EXPECT_EQ(trace.size(), 150u);
  for (double v : trace) EXPECT_GT(v, 0.0);
}

TEST(MeasurementTest, SummarizeIsTrimmedMean) {
  std::vector<double> trace(10, 1.0);
  trace[0] = 100.0;  // spike removed by the 20% trim
  trace[1] = 0.001;
  EXPECT_DOUBLE_EQ(SimulatedDevice::summarize(trace, 0.2), 1.0);
}

TEST(MeasurementTest, MeasurementNearTrueLatencyInGoodSessions) {
  const SupernetSpec spec = resnet_spec();
  DeviceSpec dspec = rtx4090_spec();
  dspec.bad_session_prob = 0.0;  // force good sessions
  SimulatedDevice device(dspec, 7);
  const LayerGraph g = build_graph(spec, uniform_arch(spec, 4, 5));
  const double truth = device.true_latency_ms(g);
  for (int s = 0; s < 5; ++s) {
    device.begin_session();
    const double measured = device.measure(g).value;
    EXPECT_NEAR(measured / truth, 1.0, 0.05);
  }
}

TEST(MeasurementTest, BadSessionsDriftMore) {
  DeviceSpec dspec = rtx4090_spec();
  dspec.bad_session_prob = 1.0;  // force bad sessions
  dspec.bad_session_drift_cv = 0.08;
  const SupernetSpec spec = resnet_spec();
  const LayerGraph g = build_graph(spec, uniform_arch(spec, 4, 5));
  SimulatedDevice device(dspec, 11);
  const double truth = device.true_latency_ms(g);
  // Bad sessions are one-sided slow; across several sessions the average
  // deviation must exceed the good-session jitter.
  RunningStats deviation;
  for (int s = 0; s < 20; ++s) {
    device.begin_session();
    EXPECT_TRUE(device.session_is_bad());
    deviation.add(device.measure(g).value / truth - 1.0);
  }
  EXPECT_GT(deviation.mean(), 0.02);
}

TEST(MeasurementTest, DeterministicBySeed) {
  const SupernetSpec spec = resnet_spec();
  const LayerGraph g = build_graph(spec, uniform_arch(spec, 3, 3));
  SimulatedDevice a(rtx4090_spec(), 42), b(rtx4090_spec(), 42);
  EXPECT_DOUBLE_EQ(a.measure(g).value, b.measure(g).value);
  SimulatedDevice c(rtx4090_spec(), 43);
  EXPECT_NE(a.measure(g).value, c.measure(g).value);
}

TEST(MeasurementTest, CostAccountingAccumulates) {
  const SupernetSpec spec = resnet_spec();
  SimulatedDevice device(rtx4090_spec(), 5);
  const LayerGraph g = build_graph(spec, uniform_arch(spec, 2, 3));
  EXPECT_DOUBLE_EQ(device.measurement_cost_seconds(), 0.0);
  device.measure(g);
  const double after_one = device.measurement_cost_seconds();
  // 150 timed runs + 5 warm-up, each at least host_overhead_ms.
  EXPECT_GT(after_one, 155 * device.spec().host_overhead_ms / 1000.0 * 0.9);
  device.measure(g);
  EXPECT_NEAR(device.measurement_cost_seconds(), 2 * after_one,
              after_one * 0.2);
  device.reset_measurement_cost();
  EXPECT_DOUBLE_EQ(device.measurement_cost_seconds(), 0.0);
}

TEST(MeasurementTest, WarmupRunsAreSlower) {
  DeviceSpec dspec = rtx4090_spec();
  dspec.run_noise_cv = 0.0;
  dspec.outlier_prob = 0.0;
  dspec.bad_session_prob = 0.0;
  dspec.session_drift_cv = 0.0;
  dspec.warmup_amplitude = 0.5;
  const SupernetSpec spec = resnet_spec();
  const LayerGraph g = build_graph(spec, uniform_arch(spec, 2, 3));
  SimulatedDevice device(dspec, 3);
  MeasureOptions options;
  options.keep_trace = true;
  const auto trace = device.measure(g, options).trace;
  // First run carries the full warm-up penalty.
  const double tail =
      mean(std::span<const double>(trace).subspan(10));
  EXPECT_GT(trace[0], tail * 1.2);
}

TEST(MeasurementTest, ProtocolValidation) {
  MeasurementProtocol bad;
  bad.runs = 0;
  EXPECT_THROW(SimulatedDevice(rtx4090_spec(), 1, bad), ConfigError);
  bad = MeasurementProtocol{};
  bad.trim_fraction = 0.5;
  EXPECT_THROW(SimulatedDevice(rtx4090_spec(), 1, bad), ConfigError);
}

TEST(MeasurementTest, OutliersAppearInTraces) {
  DeviceSpec dspec = rtx4090_spec();
  dspec.outlier_prob = 0.2;
  dspec.outlier_scale = 3.0;
  dspec.run_noise_cv = 0.001;
  dspec.bad_session_prob = 0.0;
  const SupernetSpec spec = resnet_spec();
  const LayerGraph g = build_graph(spec, uniform_arch(spec, 2, 3));
  SimulatedDevice device(dspec, 9);
  MeasureOptions options;
  options.keep_trace = true;
  const auto trace = device.measure(g, options).trace;
  const double med = median(trace);
  const int spikes = static_cast<int>(std::count_if(
      trace.begin(), trace.end(), [&](double v) { return v > 2.0 * med; }));
  EXPECT_GT(spikes, 10);  // ~20% of 150
}

}  // namespace
}  // namespace esm
