// Property-based tests (parameterized gtest sweeps) over the cross product
// of spaces, encodings, devices, and sampler strategies.
#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <tuple>

#include "common/stats.hpp"
#include "encoding/encoder.hpp"
#include "hwsim/energy_model.hpp"
#include "hwsim/measurement.hpp"
#include "nets/builder.hpp"
#include "nets/depth_bins.hpp"
#include "nets/sampler.hpp"

namespace esm {
namespace {

std::string space_name(SupernetKind kind) {
  return supernet_kind_name(kind);
}

// ------------------------------------------ (space x encoding) properties

using SpaceEncodingParam = std::tuple<SupernetKind, EncodingKind>;

class SpaceEncodingTest
    : public ::testing::TestWithParam<SpaceEncodingParam> {
 protected:
  SupernetSpec spec_ = spec_for(std::get<0>(GetParam()));
  std::unique_ptr<Encoder> encoder_ =
      make_encoder(std::get<1>(GetParam()), spec_);
};

TEST_P(SpaceEncodingTest, EncodingHasDeclaredDimension) {
  Rng rng(1);
  RandomSampler sampler(spec_);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(encoder_->encode(sampler.sample(rng)).size(),
              encoder_->dimension());
  }
}

TEST_P(SpaceEncodingTest, EncodingIsDeterministic) {
  Rng rng(2);
  RandomSampler sampler(spec_);
  for (int i = 0; i < 20; ++i) {
    const ArchConfig arch = sampler.sample(rng);
    EXPECT_EQ(encoder_->encode(arch), encoder_->encode(arch));
  }
}

TEST_P(SpaceEncodingTest, EncodingValuesAreFinite) {
  Rng rng(3);
  RandomSampler sampler(spec_);
  for (int i = 0; i < 50; ++i) {
    for (double v : encoder_->encode(sampler.sample(rng))) {
      EXPECT_TRUE(std::isfinite(v));
    }
  }
}

TEST_P(SpaceEncodingTest, ExtremeArchitecturesEncode) {
  // The smallest and largest members of the space must encode cleanly.
  for (int extreme = 0; extreme < 2; ++extreme) {
    ArchConfig arch;
    arch.kind = spec_.kind;
    const int depth =
        extreme == 0 ? spec_.min_blocks_per_unit : spec_.max_blocks_per_unit;
    const int kernel = extreme == 0 ? spec_.kernel_options.front()
                                    : spec_.kernel_options.back();
    const double expansion = spec_.expansion_options.empty()
                                 ? 1.0
                                 : (extreme == 0
                                        ? spec_.expansion_options.front()
                                        : spec_.expansion_options.back());
    for (int u = 0; u < spec_.num_units; ++u) {
      UnitConfig unit;
      for (int b = 0; b < depth; ++b) unit.blocks.push_back({kernel, expansion});
      arch.units.push_back(unit);
    }
    const std::vector<double> z = encoder_->encode(arch);
    EXPECT_EQ(z.size(), encoder_->dimension());
  }
}

TEST_P(SpaceEncodingTest, DistinctDepthProfilesEncodeDistinctly) {
  // Every encoding must at least separate architectures with different
  // per-unit depth profiles (they have different latency scales).
  ArchConfig a, b;
  a.kind = b.kind = spec_.kind;
  for (int u = 0; u < spec_.num_units; ++u) {
    UnitConfig ua, ub;
    const int k = spec_.kernel_options.front();
    const double e =
        spec_.expansion_options.empty() ? 1.0 : spec_.expansion_options.front();
    ua.blocks.assign(static_cast<std::size_t>(spec_.min_blocks_per_unit),
                     {k, e});
    ub.blocks.assign(static_cast<std::size_t>(spec_.max_blocks_per_unit),
                     {k, e});
    a.units.push_back(ua);
    b.units.push_back(ub);
  }
  EXPECT_NE(encoder_->encode(a), encoder_->encode(b));
}

INSTANTIATE_TEST_SUITE_P(
    AllSpacesAllEncodings, SpaceEncodingTest,
    ::testing::Combine(::testing::Values(SupernetKind::kResNet,
                                         SupernetKind::kMobileNetV3,
                                         SupernetKind::kDenseNet),
                       ::testing::Values(EncodingKind::kOneHot,
                                         EncodingKind::kFeature,
                                         EncodingKind::kStatistical,
                                         EncodingKind::kFeatureCount,
                                         EncodingKind::kFcc)),
    [](const ::testing::TestParamInfo<SpaceEncodingParam>& param_info) {
      std::string name = space_name(std::get<0>(param_info.param)) + "_" +
                         encoding_kind_name(std::get<1>(param_info.param));
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

// -------------------------------------------- (space x device) properties

using SpaceDeviceParam = std::tuple<SupernetKind, int>;

class SpaceDeviceTest : public ::testing::TestWithParam<SpaceDeviceParam> {
 protected:
  SupernetSpec spec_ = spec_for(std::get<0>(GetParam()));
  DeviceSpec device_ =
      all_device_specs()[static_cast<std::size_t>(std::get<1>(GetParam()))];
};

TEST_P(SpaceDeviceTest, LatencyIsPositiveFiniteDeterministic) {
  LatencyModel model(device_);
  Rng rng(7);
  RandomSampler sampler(spec_);
  for (int i = 0; i < 20; ++i) {
    const LayerGraph g = build_graph(spec_, sampler.sample(rng));
    const double ms = model.true_latency_ms(g);
    EXPECT_GT(ms, 0.0);
    EXPECT_TRUE(std::isfinite(ms));
    EXPECT_DOUBLE_EQ(ms, model.true_latency_ms(g));
  }
}

TEST_P(SpaceDeviceTest, AddingABlockNeverSpeedsUp) {
  // Monotonicity: appending one more block to any unit cannot reduce the
  // deterministic latency.
  LatencyModel model(device_);
  Rng rng(8);
  RandomSampler sampler(spec_);
  for (int i = 0; i < 15; ++i) {
    ArchConfig arch = sampler.sample(rng);
    const std::size_t u = static_cast<std::size_t>(
        rng.uniform_int(0, spec_.num_units - 1));
    if (arch.units[u].depth() >= spec_.max_blocks_per_unit) continue;
    const double before =
        model.true_latency_ms(build_graph(spec_, arch));
    // Duplicate the unit's last block (keeps DenseNet per-unit kernels).
    arch.units[u].blocks.push_back(arch.units[u].blocks.back());
    const double after = model.true_latency_ms(build_graph(spec_, arch));
    EXPECT_GE(after, before);
  }
}

TEST_P(SpaceDeviceTest, MeasurementTrimmedMeanIsStable) {
  // The trimmed mean across repeated measurements in good sessions varies
  // by far less than raw run noise.
  DeviceSpec dspec = device_;
  dspec.bad_session_prob = 0.0;
  SimulatedDevice device(dspec, 17);
  Rng rng(9);
  RandomSampler sampler(spec_);
  const LayerGraph g = build_graph(spec_, sampler.sample(rng));
  std::vector<double> measures;
  for (int s = 0; s < 6; ++s) {
    device.begin_session();
    measures.push_back(device.measure(g).value);
  }
  EXPECT_LT(coefficient_of_variation(measures),
            dspec.run_noise_cv + 2.5 * dspec.session_drift_cv + 0.01);
}

INSTANTIATE_TEST_SUITE_P(
    AllSpacesAllDevices, SpaceDeviceTest,
    ::testing::Combine(::testing::Values(SupernetKind::kResNet,
                                         SupernetKind::kMobileNetV3,
                                         SupernetKind::kDenseNet),
                       ::testing::Range(0, 4)),
    [](const ::testing::TestParamInfo<SpaceDeviceParam>& param_info) {
      return space_name(std::get<0>(param_info.param)) + "_" +
             all_device_specs()[static_cast<std::size_t>(
                                    std::get<1>(param_info.param))]
                 .short_name;
    });

// ------------------------------------------ (space x strategy) properties

using SpaceStrategyParam = std::tuple<SupernetKind, SamplingStrategy>;

class SpaceStrategyTest
    : public ::testing::TestWithParam<SpaceStrategyParam> {
 protected:
  SupernetSpec spec_ = spec_for(std::get<0>(GetParam()));
  SamplingStrategy strategy_ = std::get<1>(GetParam());
};

TEST_P(SpaceStrategyTest, SamplesAreAlwaysInSpace) {
  auto sampler = make_sampler(spec_, strategy_, 5);
  Rng rng(10);
  for (int i = 0; i < 200; ++i) {
    EXPECT_TRUE(spec_.contains(sampler->sample(rng)));
  }
}

TEST_P(SpaceStrategyTest, SamplerIsSeedDeterministic) {
  auto s1 = make_sampler(spec_, strategy_, 5);
  auto s2 = make_sampler(spec_, strategy_, 5);
  Rng a(11), b(11);
  for (int i = 0; i < 30; ++i) EXPECT_EQ(s1->sample(a), s2->sample(b));
}

TEST_P(SpaceStrategyTest, ManySamplesTouchEveryBin) {
  auto sampler = make_sampler(spec_, strategy_, 5);
  const DepthBins bins(spec_, 5);
  Rng rng(12);
  std::set<int> seen;
  for (int i = 0; i < 3000; ++i) {
    seen.insert(bins.bin_of(sampler->sample(rng).total_blocks()));
  }
  // Balanced covers everything by construction; random should too given
  // 3000 draws (the corner bins are rare but not impossible).
  EXPECT_EQ(seen.size(), 5u);
}

INSTANTIATE_TEST_SUITE_P(
    AllSpacesBothStrategies, SpaceStrategyTest,
    ::testing::Combine(::testing::Values(SupernetKind::kResNet,
                                         SupernetKind::kMobileNetV3,
                                         SupernetKind::kDenseNet),
                       ::testing::Values(SamplingStrategy::kRandom,
                                         SamplingStrategy::kBalanced)),
    [](const ::testing::TestParamInfo<SpaceStrategyParam>& param_info) {
      return space_name(std::get<0>(param_info.param)) + "_" +
             sampling_strategy_name(std::get<1>(param_info.param));
    });

// --------------------------------------------- energy-model properties

class DeviceEnergyTest : public ::testing::TestWithParam<int> {
 protected:
  DeviceSpec device_ =
      all_device_specs()[static_cast<std::size_t>(GetParam())];
};

TEST_P(DeviceEnergyTest, EnergyPositiveMonotoneInDepth) {
  EnergyModel model(device_);
  const SupernetSpec spec = resnet_spec();
  double previous = 0.0;
  for (int depth = 1; depth <= 7; depth += 2) {
    ArchConfig arch;
    arch.kind = spec.kind;
    for (int u = 0; u < spec.num_units; ++u) {
      UnitConfig unit;
      unit.blocks.assign(static_cast<std::size_t>(depth), {5, 1.0});
      arch.units.push_back(unit);
    }
    const double mj = model.true_energy_mj(build_graph(spec, arch));
    EXPECT_GT(mj, previous) << device_.short_name << " depth " << depth;
    previous = mj;
  }
}

TEST_P(DeviceEnergyTest, MeasuredEnergyWithinEnvelopeBounds) {
  DeviceSpec dspec = device_;
  dspec.bad_session_prob = 0.0;
  SimulatedDevice device(dspec, 91);
  const SupernetSpec spec = mobilenet_v3_spec();
  Rng rng(19);
  RandomSampler sampler(spec);
  const LayerGraph g = build_graph(spec, sampler.sample(rng));
  const double latency_ms = device.true_latency_ms(g);
  MeasureOptions energy_options;
  energy_options.quantity = MeasureQuantity::kEnergyMj;
  const double energy_mj = device.measure(g, energy_options).value;
  const PowerEnvelope env = energy_envelope_for(device_);
  // Average power implied by the measurement stays within the envelope
  // (generous 15% slack for measurement noise).
  const double watts = energy_mj / latency_ms;
  EXPECT_GT(watts, env.idle_power_w * 0.85) << device_.short_name;
  EXPECT_LT(watts, env.board_power_w * 1.15) << device_.short_name;
}

INSTANTIATE_TEST_SUITE_P(
    AllDevices, DeviceEnergyTest, ::testing::Range(0, 4),
    [](const ::testing::TestParamInfo<int>& param_info) {
      return all_device_specs()[static_cast<std::size_t>(param_info.param)]
          .short_name;
    });

// ----------------------------------------- encoder-vs-sampler properties

using StrategyEncodingParam = std::tuple<SamplingStrategy, EncodingKind>;

class StrategyEncodingTest
    : public ::testing::TestWithParam<StrategyEncodingParam> {};

TEST_P(StrategyEncodingTest, EncodedBatchesAreWellFormed) {
  const auto [strategy, kind] = GetParam();
  const SupernetSpec spec = resnet_spec();
  auto sampler = make_sampler(spec, strategy, 5);
  auto encoder = make_encoder(kind, spec);
  Rng rng(23);
  const auto archs = sampler->sample_n(64, rng);
  const Matrix m = encoder->encode_all(archs);
  EXPECT_EQ(m.rows(), 64u);
  EXPECT_EQ(m.cols(), encoder->dimension());
  for (std::size_t r = 0; r < m.rows(); ++r) {
    for (std::size_t c = 0; c < m.cols(); ++c) {
      EXPECT_TRUE(std::isfinite(m(r, c)));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cross, StrategyEncodingTest,
    ::testing::Combine(::testing::Values(SamplingStrategy::kRandom,
                                         SamplingStrategy::kBalanced),
                       ::testing::Values(EncodingKind::kOneHot,
                                         EncodingKind::kFeature,
                                         EncodingKind::kStatistical,
                                         EncodingKind::kFeatureCount,
                                         EncodingKind::kFcc)),
    [](const ::testing::TestParamInfo<StrategyEncodingParam>& param_info) {
      std::string name =
          std::string(sampling_strategy_name(std::get<0>(param_info.param))) +
          "_" + encoding_kind_name(std::get<1>(param_info.param));
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

// --------------------------------------------- composition-table sweeps

class CompositionPropertyTest
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(CompositionPropertyTest, CountsSumToRangePower) {
  const auto [parts, lo, hi] = GetParam();
  CompositionTable table(parts, lo, hi);
  const double expected = std::pow(static_cast<double>(hi - lo + 1), parts);
  EXPECT_DOUBLE_EQ(static_cast<double>(table.total_count()), expected);
}

TEST_P(CompositionPropertyTest, SampledCompositionsAreValid) {
  const auto [parts, lo, hi] = GetParam();
  CompositionTable table(parts, lo, hi);
  Rng rng(13);
  for (int total = table.min_total(); total <= table.max_total(); ++total) {
    const auto comp = table.sample(total, rng);
    int sum = 0;
    for (int p : comp) {
      EXPECT_GE(p, lo);
      EXPECT_LE(p, hi);
      sum += p;
    }
    EXPECT_EQ(sum, total);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Bounds, CompositionPropertyTest,
    ::testing::Values(std::tuple<int, int, int>{4, 1, 7},
                      std::tuple<int, int, int>{5, 1, 20},
                      std::tuple<int, int, int>{2, 1, 3},
                      std::tuple<int, int, int>{1, 1, 7},
                      std::tuple<int, int, int>{3, 2, 5}),
    [](const ::testing::TestParamInfo<std::tuple<int, int, int>>&
           param_info) {
      return "p" + std::to_string(std::get<0>(param_info.param)) + "_lo" +
             std::to_string(std::get<1>(param_info.param)) + "_hi" +
             std::to_string(std::get<2>(param_info.param));
    });

}  // namespace
}  // namespace esm
