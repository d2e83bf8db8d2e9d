// Unit tests for src/nets: supernet specs (Table I), architecture configs
// and their packed codes, bounded-composition sampling, depth bins,
// samplers, and graph builders.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/checksum.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "nas/search/engine.hpp"
#include "nets/builder.hpp"
#include "nets/composition.hpp"
#include "nets/depth_bins.hpp"
#include "nets/sampler.hpp"
#include "nets/supernet.hpp"
#include "serve/protocol.hpp"

namespace esm {
namespace {

ArchConfig uniform_arch(const SupernetSpec& spec, int depth, int kernel,
                        double expansion = 1.0) {
  ArchConfig arch;
  arch.kind = spec.kind;
  for (int u = 0; u < spec.num_units; ++u) {
    UnitConfig unit;
    for (int b = 0; b < depth; ++b) {
      unit.blocks.push_back({kernel, expansion});
    }
    arch.units.push_back(unit);
  }
  return arch;
}

ArchConfig arch_of(SupernetKind kind,
                   std::vector<std::vector<BlockConfig>> units) {
  ArchConfig arch;
  arch.kind = kind;
  for (std::vector<BlockConfig>& blocks : units) {
    arch.units.push_back(UnitConfig{std::move(blocks)});
  }
  return arch;
}

/// One arch per space covering expansions 1/2, 2/3 and 1, DenseNet's
/// kernel 9 and a two-digit depth (DenseNet's 20).
std::vector<ArchConfig> golden_archs() {
  constexpr double kHalf = 0.5;
  constexpr double kTwoThirds = 2.0 / 3.0;
  const auto dense = [](int depth, int kernel) {
    return std::vector<BlockConfig>(depth, BlockConfig{kernel, 1.0});
  };
  return {
      arch_of(SupernetKind::kResNet,
              {{{3, kHalf}, {5, kTwoThirds}},
               {{7, 1.0}},
               {{3, kTwoThirds}, {3, kHalf}, {5, 1.0}},
               {{7, kHalf}}}),
      arch_of(SupernetKind::kMobileNetV3,
              {{{5, 1.0}},
               {{3, kHalf}, {7, kTwoThirds}},
               {{7, 1.0}, {5, kHalf}},
               {{3, kTwoThirds}, {3, 1.0}, {5, kHalf}, {7, kTwoThirds}}}),
      arch_of(SupernetKind::kDenseNet, {dense(20, 9), dense(1, 1),
                                        dense(3, 3), dense(12, 5),
                                        dense(2, 7)}),
  };
}

// ------------------------------------------------------------- Table I

TEST(SupernetSpecTest, ResNetCardinalityMatchesPaper) {
  // Paper Table I: 8.38e26 architectures.
  const double n = resnet_spec().space_cardinality();
  EXPECT_NEAR(n / 8.38e26, 1.0, 0.01);
}

TEST(SupernetSpecTest, MobileNetCardinalityMatchesPaper) {
  const double n = mobilenet_v3_spec().space_cardinality();
  EXPECT_NEAR(n / 8.38e26, 1.0, 0.01);
}

TEST(SupernetSpecTest, DenseNetCardinalityMatchesPaper) {
  // Paper Table I: 1e10 architectures (20 depths x 5 kernels per unit)^5.
  EXPECT_DOUBLE_EQ(densenet_spec().space_cardinality(), 1e10);
}

TEST(SupernetSpecTest, TableIHyperparameters) {
  const SupernetSpec r = resnet_spec();
  EXPECT_EQ(r.num_units, 4);
  EXPECT_EQ(r.max_blocks_per_unit, 7);
  EXPECT_EQ(r.kernel_options, (std::vector<int>{3, 5, 7}));
  EXPECT_EQ(r.stage_widths, (std::vector<int>{256, 512, 1024, 2048}));
  EXPECT_EQ(r.combinations_per_block(), 9);

  const SupernetSpec m = mobilenet_v3_spec();
  EXPECT_EQ(m.stage_widths, (std::vector<int>{16, 32, 64, 128}));

  const SupernetSpec d = densenet_spec();
  EXPECT_EQ(d.num_units, 5);
  EXPECT_EQ(d.max_blocks_per_unit, 20);
  EXPECT_EQ(d.kernel_options, (std::vector<int>{1, 3, 5, 7, 9}));
  EXPECT_TRUE(d.kernel_per_unit);
  EXPECT_TRUE(d.expansion_options.empty());
  EXPECT_EQ(d.combinations_per_block(), 5);
}

TEST(SupernetSpecTest, TotalBlockBounds) {
  EXPECT_EQ(resnet_spec().min_total_blocks(), 4);
  EXPECT_EQ(resnet_spec().max_total_blocks(), 28);
  EXPECT_EQ(densenet_spec().min_total_blocks(), 5);
  EXPECT_EQ(densenet_spec().max_total_blocks(), 100);
}

TEST(SupernetSpecTest, FactoriesByNameAndKind) {
  EXPECT_EQ(spec_by_name("resnet").kind, SupernetKind::kResNet);
  EXPECT_EQ(spec_by_name("MobileNetV3").kind, SupernetKind::kMobileNetV3);
  EXPECT_EQ(spec_by_name("DENSENET").kind, SupernetKind::kDenseNet);
  EXPECT_THROW(spec_by_name("vgg"), ConfigError);
  EXPECT_EQ(spec_for(SupernetKind::kResNet).name, "ResNet");
}

// ------------------------------------------------------------ validate

TEST(SupernetSpecTest, ValidateAcceptsInSpaceArch) {
  const SupernetSpec spec = resnet_spec();
  EXPECT_NO_THROW(spec.validate(uniform_arch(spec, 3, 5, 0.5)));
  EXPECT_TRUE(spec.contains(uniform_arch(spec, 7, 7, 1.0)));
}

TEST(SupernetSpecTest, ValidateRejectsWrongUnitCount) {
  const SupernetSpec spec = resnet_spec();
  ArchConfig arch = uniform_arch(spec, 2, 3);
  arch.units.pop_back();
  EXPECT_THROW(spec.validate(arch), ConfigError);
}

TEST(SupernetSpecTest, ValidateRejectsDepthOutOfRange) {
  const SupernetSpec spec = resnet_spec();
  EXPECT_THROW(spec.validate(uniform_arch(spec, 8, 3)), ConfigError);
}

TEST(SupernetSpecTest, ValidateRejectsUnknownKernel) {
  const SupernetSpec spec = resnet_spec();
  EXPECT_THROW(spec.validate(uniform_arch(spec, 2, 4)), ConfigError);
}

TEST(SupernetSpecTest, ValidateRejectsUnknownExpansion) {
  const SupernetSpec spec = resnet_spec();
  EXPECT_THROW(spec.validate(uniform_arch(spec, 2, 3, 0.77)), ConfigError);
}

TEST(SupernetSpecTest, ValidateRejectsMixedKernelsInDenseNetUnit) {
  const SupernetSpec spec = densenet_spec();
  ArchConfig arch = uniform_arch(spec, 2, 3);
  arch.units[0].blocks[1].kernel = 5;  // mixes kernels within a unit
  EXPECT_THROW(spec.validate(arch), ConfigError);
}

TEST(SupernetSpecTest, ValidateRejectsWrongKind) {
  const SupernetSpec spec = resnet_spec();
  ArchConfig arch = uniform_arch(spec, 2, 3);
  arch.kind = SupernetKind::kDenseNet;
  EXPECT_THROW(spec.validate(arch), ConfigError);
}

// ---------------------------------------------------------- ArchConfig

TEST(ArchConfigTest, TotalBlocksAndDepths) {
  const SupernetSpec spec = resnet_spec();
  ArchConfig arch = uniform_arch(spec, 3, 3);
  arch.units[2].blocks.push_back({5, 1.0});
  EXPECT_EQ(arch.total_blocks(), 13);
  EXPECT_EQ(arch.depths(), (std::vector<int>{3, 3, 4, 3}));
}

TEST(ArchConfigTest, ToStringIsStableAndDistinct) {
  const SupernetSpec spec = resnet_spec();
  const ArchConfig a = uniform_arch(spec, 2, 3, 0.5);
  const ArchConfig b = uniform_arch(spec, 2, 5, 0.5);
  EXPECT_EQ(a.to_string(), a.to_string());
  EXPECT_NE(a.to_string(), b.to_string());
  EXPECT_NE(a.to_string().find("ResNet"), std::string::npos);
}

TEST(ArchConfigTest, ToStringGoldenBytes) {
  // These bytes are the accuracy proxy's hash input, the served cache key,
  // the dataset-generation quarantine key and a journal CRC input.
  const std::vector<ArchConfig> archs = golden_archs();
  EXPECT_EQ(archs[0].to_string(),
            "ResNet[d=2:k3e0.500,k5e0.667|d=1:k7e1.000|"
            "d=3:k3e0.667,k3e0.500,k5e1.000|d=1:k7e0.500]");
  EXPECT_EQ(archs[1].to_string(),
            "MobileNetV3[d=1:k5e1.000|d=2:k3e0.500,k7e0.667|"
            "d=2:k7e1.000,k5e0.500|"
            "d=4:k3e0.667,k3e1.000,k5e0.500,k7e0.667]");
  EXPECT_EQ(archs[2].to_string(),
            "DenseNet[d=20:k9e1.000,k9e1.000,k9e1.000,k9e1.000,k9e1.000,"
            "k9e1.000,k9e1.000,k9e1.000,k9e1.000,k9e1.000,k9e1.000,k9e1.000,"
            "k9e1.000,k9e1.000,k9e1.000,k9e1.000,k9e1.000,k9e1.000,k9e1.000,"
            "k9e1.000|d=1:k1e1.000|d=3:k3e1.000,k3e1.000,k3e1.000|"
            "d=12:k5e1.000,k5e1.000,k5e1.000,k5e1.000,k5e1.000,k5e1.000,"
            "k5e1.000,k5e1.000,k5e1.000,k5e1.000,k5e1.000,k5e1.000|"
            "d=2:k7e1.000,k7e1.000]");
  for (const ArchConfig& arch : archs) {
    EXPECT_TRUE(spec_for(arch.kind).contains(arch)) << arch.to_string();
  }
  EXPECT_EQ(ArchConfig{}.to_string(), "ResNet[]");
}

/// The ostringstream + snprintf("k%de%.3f") formatter to_string replaced,
/// kept as the reference its bytes must match.
std::string stream_formatted(const ArchConfig& arch) {
  std::ostringstream os;
  os << supernet_kind_name(arch.kind) << '[';
  for (std::size_t ui = 0; ui < arch.units.size(); ++ui) {
    if (ui > 0) os << '|';
    const UnitConfig& u = arch.units[ui];
    os << "d=" << u.depth() << ':';
    for (std::size_t bi = 0; bi < u.blocks.size(); ++bi) {
      if (bi > 0) os << ',';
      char buf[32];
      std::snprintf(buf, sizeof(buf), "k%de%.3f", u.blocks[bi].kernel,
                    u.blocks[bi].expansion);
      os << buf;
    }
  }
  os << ']';
  return os.str();
}

TEST(ArchConfigTest, ToStringMatchesStreamFormatter) {
  for (const SupernetSpec& spec :
       {resnet_spec(), mobilenet_v3_spec(), densenet_spec()}) {
    RandomSampler sampler(spec);
    Rng rng(2025);
    for (const ArchConfig& arch : sampler.sample_n(1000, rng)) {
      ASSERT_EQ(arch.to_string(), stream_formatted(arch));
    }
  }
  // Off-space values format the same way too.
  const ArchConfig odd = arch_of(
      SupernetKind::kDenseNet,
      {{{11, 0.0005}, {-3, 9.9996}, {100, 1234.5678}}, {}, {{0, -0.25}}});
  EXPECT_EQ(odd.to_string(), stream_formatted(odd));
}

TEST(ArchConfigTest, ToStringFormatsEveryExpansionItself) {
  // to_string formats an expansion once and reuses the text for the bitwise
  // identical expansions after it; these pin the bytes around that reuse.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  // -0.0 compares equal to 0.0 but prints its sign.
  EXPECT_EQ(arch_of(SupernetKind::kResNet, {{{3, 0.0}, {3, -0.0}, {3, 0.0}}})
                .to_string(),
            "ResNet[d=3:k3e0.000,k3e-0.000,k3e0.000]");
  // NaN compares unequal to itself but formats the same every time.
  EXPECT_EQ(arch_of(SupernetKind::kResNet, {{{3, nan}, {5, nan}}, {{7, 0.5}}})
                .to_string(),
            "ResNet[d=2:k3enan,k5enan|d=1:k7e0.500]");
  // Mixed expansions within one unit, and back to an earlier one.
  EXPECT_EQ(arch_of(SupernetKind::kMobileNetV3,
                    {{{3, 0.5}, {3, 1.0}, {3, 0.5}, {5, 0.5}}})
                .to_string(),
            "MobileNetV3[d=4:k3e0.500,k3e1.000,k3e0.500,k5e0.500]");
  // 2/3 rounds to three decimals; a neighbour one ulp away prints the same.
  const double two_thirds = 2.0 / 3.0;
  EXPECT_EQ(arch_of(SupernetKind::kResNet,
                    {{{3, two_thirds}, {3, std::nextafter(two_thirds, 1.0)}},
                     {{5, two_thirds}}})
                .to_string(),
            "ResNet[d=2:k3e0.667,k3e0.667|d=1:k5e0.667]");
  // DenseNet carries the unused expansion as 1.000 on every block.
  const ArchConfig dense = arch_of(
      SupernetKind::kDenseNet,
      {std::vector<BlockConfig>(3, BlockConfig{5, 1.0}), {{1, 1.0}}});
  EXPECT_EQ(dense.to_string(), "DenseNet[d=3:k5e1.000,k5e1.000,k5e1.000|"
                               "d=1:k1e1.000]");
  EXPECT_EQ(ArchConfig{}.to_string(), "ResNet[]");
  EXPECT_EQ(arch_of(SupernetKind::kDenseNet, {{}, {}}).to_string(),
            "DenseNet[d=0:|d=0:]");
  // Every case agrees with the reference formatter, NaN aside (printf may
  // spell a NaN's sign differently from to_chars).
  for (const ArchConfig& arch :
       {arch_of(SupernetKind::kResNet, {{{3, 0.0}, {3, -0.0}}}),
        arch_of(SupernetKind::kResNet, {{{3, 0.5}, {3, 1.0}, {3, 0.5}}}),
        dense}) {
    EXPECT_EQ(arch.to_string(), stream_formatted(arch));
  }
}

TEST(ArchConfigTest, Equality) {
  const SupernetSpec spec = resnet_spec();
  const ArchConfig a = uniform_arch(spec, 2, 3);
  ArchConfig b = a;
  EXPECT_EQ(a, b);
  b.units[0].blocks[0].kernel = 5;
  EXPECT_NE(a, b);
}

// --------------------------------------------------------- composition

TEST(CompositionTest, CountsMatchHandComputation) {
  // Compositions of t into 2 parts, each in [1, 3]:
  // t=2:(1,1) t=3:(1,2),(2,1) t=4:(1,3),(2,2),(3,1) t=5:(2,3),(3,2) t=6:(3,3)
  CompositionTable table(2, 1, 3);
  EXPECT_EQ(table.count(2), 1u);
  EXPECT_EQ(table.count(3), 2u);
  EXPECT_EQ(table.count(4), 3u);
  EXPECT_EQ(table.count(5), 2u);
  EXPECT_EQ(table.count(6), 1u);
  EXPECT_EQ(table.count(1), 0u);
  EXPECT_EQ(table.count(7), 0u);
  EXPECT_EQ(table.total_count(), 9u);  // 3^2
}

TEST(CompositionTest, TotalCountIsPowerOfRange) {
  CompositionTable table(4, 1, 7);
  EXPECT_EQ(table.total_count(), 2401u);  // 7^4
}

TEST(CompositionTest, SampleRespectsTotalAndBounds) {
  CompositionTable table(4, 1, 7);
  Rng rng(1);
  for (int total = 4; total <= 28; ++total) {
    const std::vector<int> parts = table.sample(total, rng);
    ASSERT_EQ(parts.size(), 4u);
    int sum = 0;
    for (int p : parts) {
      EXPECT_GE(p, 1);
      EXPECT_LE(p, 7);
      sum += p;
    }
    EXPECT_EQ(sum, total);
  }
}

TEST(CompositionTest, SampleIsUniform) {
  // Compositions of 4 into 2 parts in [1,3]: (1,3), (2,2), (3,1).
  CompositionTable table(2, 1, 3);
  Rng rng(2);
  std::map<std::pair<int, int>, int> counts;
  const int n = 30000;
  for (int i = 0; i < n; ++i) {
    const auto parts = table.sample(4, rng);
    ++counts[{parts[0], parts[1]}];
  }
  ASSERT_EQ(counts.size(), 3u);
  for (const auto& [key, c] : counts) {
    EXPECT_NEAR(c / static_cast<double>(n), 1.0 / 3.0, 0.02);
  }
}

TEST(CompositionTest, SampleRejectsImpossibleTotal) {
  CompositionTable table(2, 1, 3);
  Rng rng(3);
  EXPECT_THROW(table.sample(7, rng), ConfigError);
}

TEST(CompositionTest, RejectsBadBounds) {
  EXPECT_THROW(CompositionTable(0, 1, 3), ConfigError);
  EXPECT_THROW(CompositionTable(2, 3, 1), ConfigError);
  EXPECT_THROW(CompositionTable(2, 0, 3), ConfigError);
}

// ----------------------------------------------------------- DepthBins

TEST(DepthBinsTest, TilesRangeExactly) {
  const DepthBins bins(4, 28, 5);
  EXPECT_EQ(bins.size(), 5);
  int expected_lo = 4;
  for (int i = 0; i < bins.size(); ++i) {
    const auto [lo, hi] = bins.bounds(i);
    EXPECT_EQ(lo, expected_lo);
    EXPECT_GE(hi, lo);
    expected_lo = hi + 1;
  }
  EXPECT_EQ(expected_lo, 29);
}

TEST(DepthBinsTest, WidthsDifferByAtMostOne) {
  const DepthBins bins(5, 100, 7);
  int min_w = 1 << 30, max_w = 0;
  for (int i = 0; i < bins.size(); ++i) {
    const auto [lo, hi] = bins.bounds(i);
    min_w = std::min(min_w, hi - lo + 1);
    max_w = std::max(max_w, hi - lo + 1);
  }
  EXPECT_LE(max_w - min_w, 1);
}

TEST(DepthBinsTest, BinOfIsConsistentWithBounds) {
  const DepthBins bins(4, 28, 5);
  for (int t = 4; t <= 28; ++t) {
    const int b = bins.bin_of(t);
    const auto [lo, hi] = bins.bounds(b);
    EXPECT_GE(t, lo);
    EXPECT_LE(t, hi);
  }
}

TEST(DepthBinsTest, TotalsInMatchesBounds) {
  const DepthBins bins(4, 28, 5);
  const auto totals = bins.totals_in(2);
  const auto [lo, hi] = bins.bounds(2);
  EXPECT_EQ(totals.front(), lo);
  EXPECT_EQ(totals.back(), hi);
  EXPECT_EQ(static_cast<int>(totals.size()), hi - lo + 1);
}

TEST(DepthBinsTest, FromSpec) {
  const DepthBins bins(resnet_spec(), 5);
  EXPECT_EQ(bins.min_total(), 4);
  EXPECT_EQ(bins.max_total(), 28);
}

TEST(DepthBinsTest, RejectsTooManyBins) {
  EXPECT_THROW(DepthBins(1, 3, 4), ConfigError);
  EXPECT_NO_THROW(DepthBins(1, 3, 3));
}

TEST(DepthBinsTest, LabelFormat) {
  const DepthBins bins(4, 28, 5);
  EXPECT_EQ(bins.label(0), "4-8");
  const DepthBins one(3, 3, 1);
  EXPECT_EQ(one.label(0), "3");
}

// ------------------------------------------------------------ samplers

TEST(SamplerTest, RandomSamplesAreInSpace) {
  const SupernetSpec spec = resnet_spec();
  RandomSampler sampler(spec);
  Rng rng(1);
  for (int i = 0; i < 200; ++i) {
    EXPECT_TRUE(spec.contains(sampler.sample(rng)));
  }
}

TEST(SamplerTest, RandomDenseNetSamplesShareUnitKernel) {
  const SupernetSpec spec = densenet_spec();
  RandomSampler sampler(spec);
  Rng rng(2);
  for (int i = 0; i < 50; ++i) {
    const ArchConfig arch = sampler.sample(rng);
    for (const UnitConfig& u : arch.units) {
      for (const BlockConfig& b : u.blocks) {
        EXPECT_EQ(b.kernel, u.blocks.front().kernel);
      }
    }
  }
}

TEST(SamplerTest, RandomTotalsConcentrateInMiddle) {
  // CLT effect the paper describes: random per-unit depths make corner
  // totals rare.
  const SupernetSpec spec = resnet_spec();
  RandomSampler sampler(spec);
  Rng rng(3);
  int corner = 0, middle = 0;
  const int n = 5000;
  for (int i = 0; i < n; ++i) {
    const int total = sampler.sample(rng).total_blocks();
    if (total <= 8 || total >= 24) ++corner;
    if (total >= 14 && total <= 18) ++middle;
  }
  EXPECT_LT(corner, n / 10);
  EXPECT_GT(middle, n / 3);
}

TEST(SamplerTest, BalancedCoversEveryBinRoundRobin) {
  const SupernetSpec spec = resnet_spec();
  BalancedSampler sampler(spec, 5);
  Rng rng(4);
  const DepthBins& bins = sampler.bins();
  // Any window of 5 consecutive samples covers all 5 bins.
  for (int w = 0; w < 10; ++w) {
    std::set<int> seen;
    for (int i = 0; i < 5; ++i) {
      seen.insert(bins.bin_of(sampler.sample(rng).total_blocks()));
    }
    EXPECT_EQ(seen.size(), 5u);
  }
}

TEST(SamplerTest, BalancedEqualizesBinCounts) {
  const SupernetSpec spec = resnet_spec();
  BalancedSampler sampler(spec, 5);
  Rng rng(5);
  std::vector<int> counts(5, 0);
  for (int i = 0; i < 1000; ++i) {
    ++counts[static_cast<std::size_t>(
        sampler.bins().bin_of(sampler.sample(rng).total_blocks()))];
  }
  for (int c : counts) EXPECT_EQ(c, 200);
}

TEST(SamplerTest, SampleInBinRespectsBin) {
  const SupernetSpec spec = resnet_spec();
  BalancedSampler sampler(spec, 5);
  Rng rng(6);
  for (int bin = 0; bin < 5; ++bin) {
    const auto [lo, hi] = sampler.bins().bounds(bin);
    for (int i = 0; i < 20; ++i) {
      const int total = sampler.sample_in_bin(bin, rng).total_blocks();
      EXPECT_GE(total, lo);
      EXPECT_LE(total, hi);
    }
  }
}

TEST(SamplerTest, SampleWithTotalIsExact) {
  const SupernetSpec spec = resnet_spec();
  BalancedSampler sampler(spec, 5);
  Rng rng(7);
  for (int total = 4; total <= 28; total += 4) {
    const ArchConfig arch = sampler.sample_with_total(total, rng);
    EXPECT_EQ(arch.total_blocks(), total);
    EXPECT_TRUE(spec.contains(arch));
  }
}

TEST(SamplerTest, SampleNReturnsRequestedCount) {
  const SupernetSpec spec = mobilenet_v3_spec();
  RandomSampler sampler(spec);
  Rng rng(8);
  EXPECT_EQ(sampler.sample_n(17, rng).size(), 17u);
}

TEST(SamplerTest, FactoryAndNames) {
  const SupernetSpec spec = resnet_spec();
  auto random = make_sampler(spec, SamplingStrategy::kRandom, 5);
  auto balanced = make_sampler(spec, SamplingStrategy::kBalanced, 5);
  EXPECT_EQ(random->strategy(), SamplingStrategy::kRandom);
  EXPECT_EQ(balanced->strategy(), SamplingStrategy::kBalanced);
  EXPECT_EQ(sampling_strategy_from_name("random"), SamplingStrategy::kRandom);
  EXPECT_EQ(sampling_strategy_from_name("Balanced"),
            SamplingStrategy::kBalanced);
  EXPECT_THROW(sampling_strategy_from_name("stratified"), ConfigError);
  EXPECT_STREQ(sampling_strategy_name(SamplingStrategy::kRandom), "random");
}

TEST(SamplerTest, DeterministicUnderSeed) {
  const SupernetSpec spec = resnet_spec();
  RandomSampler s1(spec), s2(spec);
  Rng a(99), b(99);
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(s1.sample(a), s2.sample(b));
  }
}

// ------------------------------------------------------------ builders

TEST(BuilderTest, ResNetGraphStructure) {
  const SupernetSpec spec = resnet_spec();
  const ArchConfig arch = uniform_arch(spec, 2, 3, 1.0);
  const LayerGraph g = build_resnet(spec, arch);
  // 8 blocks, each with a spatial conv; one head FC; stem conv.
  EXPECT_EQ(g.count_kind(LayerKind::kFullyConnected), 1u);
  EXPECT_EQ(g.count_kind(LayerKind::kAdd), 8u);  // one residual per block
  EXPECT_EQ(g.count_kind(LayerKind::kMaxPool), 1u);
  // First layer consumes the RGB input.
  EXPECT_EQ(g[0].input.channels, 3);
  EXPECT_EQ(g[0].input.height, 224);
}

TEST(BuilderTest, ResNetHeadMatchesStageWidthAndClasses) {
  const SupernetSpec spec = resnet_spec();
  const LayerGraph g = build_resnet(spec, uniform_arch(spec, 1, 3));
  const Layer& fc = g[g.size() - 1];
  EXPECT_EQ(fc.kind, LayerKind::kFullyConnected);
  EXPECT_EQ(fc.input.channels, 2048);
  EXPECT_EQ(fc.output.channels, 1000);
}

TEST(BuilderTest, ResNetResolutionHalvesPerStage) {
  const SupernetSpec spec = resnet_spec();
  const LayerGraph g = build_resnet(spec, uniform_arch(spec, 1, 3));
  // Final feature map before GAP is 7x7.
  const Layer& gap = g[g.size() - 2];
  EXPECT_EQ(gap.kind, LayerKind::kGlobalAvgPool);
  EXPECT_EQ(gap.input.height, 7);
}

TEST(BuilderTest, ResNetDeeperMeansMoreFlops) {
  const SupernetSpec spec = resnet_spec();
  const double f2 = build_resnet(spec, uniform_arch(spec, 2, 3)).total_flops();
  const double f5 = build_resnet(spec, uniform_arch(spec, 5, 3)).total_flops();
  EXPECT_GT(f5, f2 * 1.5);
}

TEST(BuilderTest, ResNetBiggerKernelMeansMoreFlops) {
  const SupernetSpec spec = resnet_spec();
  const double f3 = build_resnet(spec, uniform_arch(spec, 3, 3)).total_flops();
  const double f7 = build_resnet(spec, uniform_arch(spec, 3, 7)).total_flops();
  EXPECT_GT(f7, f3);
}

TEST(BuilderTest, ResNetBiggerExpansionMeansMoreFlops) {
  const SupernetSpec spec = resnet_spec();
  const double fh =
      build_resnet(spec, uniform_arch(spec, 3, 3, 0.5)).total_flops();
  const double ff =
      build_resnet(spec, uniform_arch(spec, 3, 3, 1.0)).total_flops();
  EXPECT_GT(ff, fh * 1.5);
}

TEST(BuilderTest, MobileNetGraphStructure) {
  const SupernetSpec spec = mobilenet_v3_spec();
  const ArchConfig arch = uniform_arch(spec, 2, 5, 0.5);
  const LayerGraph g = build_mobilenet_v3(spec, arch);
  EXPECT_EQ(g.count_kind(LayerKind::kDepthwiseConv), 8u);  // one per block
  EXPECT_EQ(g.count_kind(LayerKind::kScale), 8u);          // one SE per block
  EXPECT_GT(g.count_kind(LayerKind::kHSwish), 0u);
  // Residuals only where stride 1 and channels match (one per unit at
  // depth 2: the second block).
  EXPECT_EQ(g.count_kind(LayerKind::kAdd), 4u);
}

TEST(BuilderTest, MobileNetDepthwiseKernelFollowsConfig) {
  const SupernetSpec spec = mobilenet_v3_spec();
  const LayerGraph g =
      build_mobilenet_v3(spec, uniform_arch(spec, 1, 7, 1.0));
  bool found = false;
  for (const Layer& l : g.layers()) {
    if (l.kind == LayerKind::kDepthwiseConv) {
      EXPECT_EQ(l.kernel, 7);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(BuilderTest, DenseNetChannelGrowth) {
  const SupernetSpec spec = densenet_spec();
  const ArchConfig arch = uniform_arch(spec, 3, 3);
  const LayerGraph g = build_densenet(spec, arch);
  // After unit 0 (3 blocks of growth 32 on a 64-channel stem), the running
  // tensor has 64 + 3*32 = 160 channels; the transition halves it to 80.
  // The first transition's compress conv sits three layers (conv, bn, relu)
  // before the first average pool.
  bool found_transition = false;
  for (std::size_t i = 3; i < g.size(); ++i) {
    if (g[i].kind == LayerKind::kAvgPool) {
      const Layer& l = g[i - 3];
      EXPECT_EQ(l.kind, LayerKind::kConv2d);
      EXPECT_EQ(l.input.channels, 160);
      EXPECT_EQ(l.output.channels, 80);
      found_transition = true;
      break;
    }
  }
  EXPECT_TRUE(found_transition);
}

TEST(BuilderTest, DenseNetConcatPerBlock) {
  const SupernetSpec spec = densenet_spec();
  const ArchConfig arch = uniform_arch(spec, 4, 5);
  const LayerGraph g = build_densenet(spec, arch);
  EXPECT_EQ(g.count_kind(LayerKind::kConcat), 20u);  // 5 units x 4 blocks
  EXPECT_EQ(g.count_kind(LayerKind::kAvgPool), 4u);  // transitions
}

TEST(BuilderTest, DenseNetDeeperUnitsMeanMoreParams) {
  const SupernetSpec spec = densenet_spec();
  const double p1 =
      build_densenet(spec, uniform_arch(spec, 2, 3)).total_params();
  const double p2 =
      build_densenet(spec, uniform_arch(spec, 10, 3)).total_params();
  EXPECT_GT(p2, p1 * 2);
}

TEST(BuilderTest, DispatchValidatesAndRoutes) {
  const SupernetSpec spec = resnet_spec();
  EXPECT_NO_THROW(build_graph(spec, uniform_arch(spec, 2, 3)));
  EXPECT_THROW(build_graph(spec, uniform_arch(spec, 9, 3)), ConfigError);
  const SupernetSpec mb = mobilenet_v3_spec();
  const LayerGraph g = build_graph(mb, uniform_arch(mb, 1, 3));
  EXPECT_GT(g.count_kind(LayerKind::kDepthwiseConv), 0u);
}

TEST(BuilderTest, ResNetProjectionOnlyWhereNeeded) {
  // Projection convs appear at unit boundaries (channel/stride change) but
  // not between same-shape blocks inside a unit.
  const SupernetSpec spec = resnet_spec();
  const LayerGraph g = build_resnet(spec, uniform_arch(spec, 3, 3));
  // A projection conv directly follows the expand conv's batch norm; every
  // other conv follows an activation or the stem pool.
  int projections = 0;
  for (std::size_t i = 1; i < g.size(); ++i) {
    if (g[i].kind == LayerKind::kConv2d &&
        g[i - 1].kind == LayerKind::kBatchNorm) {
      ++projections;
    }
  }
  // One per unit: the first block of each of the 4 units changes channels.
  EXPECT_EQ(projections, 4);
}

TEST(BuilderTest, MobileNetHiddenWidthFollowsExpansion) {
  // Inverted residual hidden width = round(out * 6 * e).
  const SupernetSpec spec = mobilenet_v3_spec();
  const LayerGraph g_half =
      build_mobilenet_v3(spec, uniform_arch(spec, 1, 3, 0.5));
  const LayerGraph g_full =
      build_mobilenet_v3(spec, uniform_arch(spec, 1, 3, 1.0));
  // The first block's expand conv is the graph's second standard conv
  // (the first is the stem).
  auto first_expand_width = [](const LayerGraph& g) {
    int convs = 0;
    for (const Layer& l : g.layers()) {
      if (l.kind == LayerKind::kConv2d && ++convs == 2) {
        return l.output.channels;
      }
    }
    return -1;
  };
  // Unit 0 (width 16): expand conv output = 16 * 6 * e.
  EXPECT_EQ(first_expand_width(g_half), 48);
  EXPECT_EQ(first_expand_width(g_full), 96);
}

TEST(BuilderTest, MobileNetSqueezeExciteBottleneck) {
  const SupernetSpec spec = mobilenet_v3_spec();
  const LayerGraph g =
      build_mobilenet_v3(spec, uniform_arch(spec, 1, 3, 1.0));
  // The SE squeeze FC is the only fully-connected layer followed by a
  // ReLU (the head's FC is the last layer).
  int squeezes = 0;
  for (std::size_t i = 0; i + 1 < g.size(); ++i) {
    if (g[i].kind == LayerKind::kFullyConnected &&
        g[i + 1].kind == LayerKind::kRelu) {
      ++squeezes;
      // SE squeeze is a quarter of the gated width.
      const Layer& expand = g[i + 2];
      EXPECT_EQ(expand.kind, LayerKind::kFullyConnected);
      EXPECT_EQ(g[i].output.channels,
                std::max(1, expand.output.channels / 4));
    }
  }
  EXPECT_EQ(squeezes, 4);  // one SE module per block, 4 units x 1 block
}

TEST(BuilderTest, DenseNetHeadHasBatchNormBeforePool) {
  const SupernetSpec spec = densenet_spec();
  const LayerGraph g = build_densenet(spec, uniform_arch(spec, 2, 3));
  // head_bn -> head_relu -> head_gap -> head_fc tail.
  const std::size_t n = g.size();
  EXPECT_EQ(g[n - 4].kind, LayerKind::kBatchNorm);
  EXPECT_EQ(g[n - 3].kind, LayerKind::kRelu);
  EXPECT_EQ(g[n - 2].kind, LayerKind::kGlobalAvgPool);
  EXPECT_EQ(g[n - 1].kind, LayerKind::kFullyConnected);
}

TEST(BuilderTest, DenseNetUnitKernelAppliesToSpatialConvs) {
  const SupernetSpec spec = densenet_spec();
  const LayerGraph g = build_densenet(spec, uniform_arch(spec, 2, 7));
  // A composite layer's spatial conv is followed by its batch norm and
  // then the concat.
  int spatial = 0;
  for (std::size_t i = 0; i + 2 < g.size(); ++i) {
    if (g[i].kind == LayerKind::kConv2d &&
        g[i + 2].kind == LayerKind::kConcat) {
      EXPECT_EQ(g[i].kernel, 7);
      ++spatial;
    }
  }
  EXPECT_EQ(spatial, 10);  // 5 units x 2 blocks
}

TEST(BuilderTest, MaxSizeArchitecturesLowerCleanly) {
  // The largest member of every space builds without shape violations.
  for (const SupernetSpec& spec :
       {resnet_spec(), mobilenet_v3_spec(), densenet_spec()}) {
    const ArchConfig arch =
        uniform_arch(spec, spec.max_blocks_per_unit,
                     spec.kernel_options.back(),
                     spec.expansion_options.empty()
                         ? 1.0
                         : spec.expansion_options.back());
    const LayerGraph g = build_graph(spec, arch);
    EXPECT_GT(g.size(), 100u) << spec.name;
    EXPECT_GT(g.total_flops(), 0.0) << spec.name;
  }
}

TEST(BuilderTest, GraphNameEncodesArch) {
  const SupernetSpec spec = resnet_spec();
  const ArchConfig arch = uniform_arch(spec, 2, 3);
  EXPECT_EQ(build_graph(spec, arch).name(), arch.to_string());
}

/// 64-bit FNV-1a over little-endian words.
struct Fnv1a {
  std::uint64_t h = 14695981039346656037ull;
  void fold(std::uint64_t v) {
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (v >> (8 * byte)) & 0xff;
      h *= 1099511628211ull;
    }
  }
  void fold(const TensorShape& s) {
    fold(static_cast<std::uint64_t>(s.channels));
    fold(static_cast<std::uint64_t>(s.height));
    fold(static_cast<std::uint64_t>(s.width));
  }
};

/// Checksum of the structural fields of every layer (kind, shapes, conv
/// parameters, bias) and the bit patterns of the graph's totals.
std::uint64_t graph_checksum(const LayerGraph& g) {
  Fnv1a f;
  for (const Layer& l : g.layers()) {
    f.fold(static_cast<std::uint64_t>(l.kind));
    f.fold(l.input);
    f.fold(l.aux_input);
    f.fold(l.output);
    f.fold(static_cast<std::uint64_t>(l.kernel));
    f.fold(static_cast<std::uint64_t>(l.stride));
    f.fold(static_cast<std::uint64_t>(l.groups));
    f.fold(l.has_bias ? 1u : 0u);
  }
  f.fold(std::bit_cast<std::uint64_t>(g.total_flops()));
  f.fold(std::bit_cast<std::uint64_t>(g.total_params()));
  f.fold(std::bit_cast<std::uint64_t>(g.total_memory_bytes()));
  return f.h;
}

TEST(BuilderTest, SampledGraphsMatchRecordedChecksums) {
  // Recorded from the builders before layers lost their names: the same
  // arch must keep lowering to the same layers, shapes and totals (the
  // latency simulator and the accuracy proxy consume exactly these).
  const std::map<SupernetKind, std::uint64_t> expected{
      {SupernetKind::kResNet, 0x6af482ad06ff1c2bull},
      {SupernetKind::kMobileNetV3, 0x57aaaa548f11f6d6ull},
      {SupernetKind::kDenseNet, 0xe567641613e4ed56ull},
  };
  for (const SupernetSpec& spec :
       {resnet_spec(), mobilenet_v3_spec(), densenet_spec()}) {
    RandomSampler sampler(spec);
    Rng rng(14);
    Fnv1a sample;
    for (const ArchConfig& arch : sampler.sample_n(64, rng)) {
      sample.fold(graph_checksum(build_graph(spec, arch)));
    }
    EXPECT_EQ(sample.h, expected.at(spec.kind)) << spec.name;
  }
}

TEST(BuilderTest, GraphFlopsMatchesBuiltGraphBitForBit) {
  for (const SupernetSpec& spec :
       {resnet_spec(), mobilenet_v3_spec(), densenet_spec()}) {
    RandomSampler sampler(spec);
    Rng rng(23);
    for (const ArchConfig& arch : sampler.sample_n(1000, rng)) {
      ASSERT_EQ(std::bit_cast<std::uint64_t>(graph_flops(spec, arch)),
                std::bit_cast<std::uint64_t>(
                    build_graph(spec, arch).total_flops()))
          << spec.name << " " << arch.to_string();
    }
  }
}

/// what() of the ConfigError `f` throws; empty if it throws none.
template <class F>
std::string config_error_of(F&& f) {
  try {
    f();
  } catch (const ConfigError& e) {
    return e.what();
  }
  return "";
}

TEST(BuilderTest, GraphFlopsThrowsTheSameConfigError) {
  const SupernetSpec resnet = resnet_spec();
  ArchConfig short_arch = uniform_arch(resnet, 2, 3);
  short_arch.units.pop_back();
  ArchConfig wrong_kind = uniform_arch(resnet, 2, 3);
  wrong_kind.kind = SupernetKind::kDenseNet;
  ArchConfig mixed_kernels = uniform_arch(densenet_spec(), 2, 3);
  mixed_kernels.units[0].blocks[1].kernel = 5;
  // Specs that lower a bad layer: the stem's input, and the head's output
  // (the last layer, so the reported index must match too).
  SupernetSpec no_input = mobilenet_v3_spec();
  no_input.input_resolution = 0;
  SupernetSpec no_classes = densenet_spec();
  no_classes.num_classes = 0;
  const std::vector<std::pair<SupernetSpec, ArchConfig>> bad{
      {resnet, short_arch},
      {resnet, wrong_kind},
      {resnet, uniform_arch(resnet, 8, 3)},
      {resnet, uniform_arch(resnet, 2, 4)},
      {resnet, uniform_arch(resnet, 2, 3, 0.77)},
      {densenet_spec(), mixed_kernels},
      {no_input, uniform_arch(no_input, 2, 3)},
      {no_classes, uniform_arch(no_classes, 2, 3)},
  };
  for (const auto& [spec, arch] : bad) {
    const std::string built =
        config_error_of([&] { (void)build_graph(spec, arch); });
    ASSERT_FALSE(built.empty()) << spec.name << " " << arch.to_string();
    EXPECT_EQ(config_error_of([&] { (void)graph_flops(spec, arch); }), built);
  }
}

// ------------------------------------------------------ packed arch code

/// A seeded wire spelling of one arch of `spec`: bare depths, explicit
/// kernels, exact and typed expansions, padding, and (in a space without
/// expansion options) an expansion the key ignores.
std::string wire_arch(const SupernetSpec& spec, Rng& rng) {
  std::string text;
  for (int u = 0; u < spec.num_units; ++u) {
    if (u > 0) text += rng.bernoulli(0.1) ? ", " : ",";
    text += std::to_string(
        rng.uniform_int(spec.min_blocks_per_unit, spec.max_blocks_per_unit));
    const int form = rng.uniform_int(0, 3);
    if (form == 0) continue;
    text += ":k" + std::to_string(spec.kernel_options[static_cast<std::size_t>(
                       rng.uniform_int(0, static_cast<int>(
                                              spec.kernel_options.size()) -
                                              1))]);
    if (form == 1) continue;
    const double e =
        spec.expansion_options.empty()
            ? rng.uniform(0.25, 4.0)
            : spec.expansion_options[static_cast<std::size_t>(rng.uniform_int(
                  0, static_cast<int>(spec.expansion_options.size()) - 1))];
    char buffer[32];
    std::snprintf(buffer, sizeof(buffer), form == 2 ? "e%.3f" : "e%.6g", e);
    text += buffer;
  }
  return text;
}

/// A per-unit-uniform arch of `spec` drawn from `rng`.
ArchConfig uniform_sample(const SupernetSpec& spec, Rng& rng) {
  ArchConfig arch;
  arch.kind = spec.kind;
  for (int u = 0; u < spec.num_units; ++u) {
    UnitConfig unit;
    unit.blocks.assign(
        static_cast<std::size_t>(rng.uniform_int(spec.min_blocks_per_unit,
                                                 spec.max_blocks_per_unit)),
        random_block(spec, rng));
    arch.units.push_back(std::move(unit));
  }
  return arch;
}

TEST(ArchCodeTest, CodeIsInjectiveOnEverySpace) {
  for (const SupernetSpec& spec :
       {resnet_spec(), mobilenet_v3_spec(), densenet_spec()}) {
    ASSERT_TRUE(uniform_arch_code_fits(spec)) << spec.name;
    // Every unit choice has its own digit, and the digits fill the radix.
    const std::uint64_t radix = unit_code_radix(spec);
    std::set<std::uint64_t> digits;
    const std::vector<double> expansions =
        spec.expansion_options.empty() ? std::vector<double>{1.0}
                                       : spec.expansion_options;
    for (int depth = spec.min_blocks_per_unit;
         depth <= spec.max_blocks_per_unit; ++depth) {
      for (int kernel : spec.kernel_options) {
        for (double expansion : expansions) {
          ArchConfig arch = uniform_arch(spec, spec.min_blocks_per_unit,
                                         spec.kernel_options.front(),
                                         expansions.front());
          arch.units.back().blocks.assign(static_cast<std::size_t>(depth),
                                          {kernel, expansion});
          const std::uint64_t code = uniform_arch_code(spec, arch);
          EXPECT_LT(code, radix) << spec.name;
          digits.insert(code);
        }
      }
    }
    EXPECT_EQ(digits.size(), radix) << spec.name;

    // Over seeded archs, one code per distinct to_string().
    Rng rng(4242);
    std::map<std::uint64_t, std::string> named;
    std::set<std::string> distinct;
    for (int i = 0; i < 100000 / 3; ++i) {
      const ArchConfig arch = uniform_sample(spec, rng);
      const std::string text = arch.to_string();
      const auto [it, inserted] =
          named.emplace(uniform_arch_code(spec, arch), text);
      ASSERT_EQ(it->second, text) << spec.name;
      distinct.insert(text);
    }
    EXPECT_EQ(named.size(), distinct.size()) << spec.name;
    EXPECT_GT(named.size(), 1000u) << spec.name;
  }
}

TEST(ArchCodeTest, RejectsNonUniformAndOffSpaceArchs) {
  const SupernetSpec spec = resnet_spec();
  ArchConfig mixed = uniform_arch(spec, 3, 5, 0.5);
  mixed.units[1].blocks[2].expansion = 1.0;
  EXPECT_THROW(uniform_arch_code(spec, mixed), ConfigError);
  mixed = uniform_arch(spec, 3, 5, 0.5);
  mixed.units[0].blocks[0].kernel = 3;
  EXPECT_THROW(uniform_arch_code(spec, mixed), ConfigError);
  EXPECT_THROW(uniform_arch_code(spec, uniform_arch(spec, 8, 3, 0.5)),
               ConfigError);
  EXPECT_THROW(uniform_arch_code(spec, uniform_arch(spec, 2, 4, 0.5)),
               ConfigError);
  // Options match exactly: an expansion 1e-12 off 0.5 prints as 0.500 but
  // prices differently, so it gets no code.
  EXPECT_THROW(uniform_arch_code(spec, uniform_arch(spec, 2, 3, 0.5 + 1e-12)),
               ConfigError);
  ArchConfig short_arch = uniform_arch(spec, 2, 3, 0.5);
  short_arch.units.pop_back();
  EXPECT_THROW(uniform_arch_code(spec, short_arch), ConfigError);
  ArchConfig empty_unit = uniform_arch(spec, 2, 3, 0.5);
  empty_unit.units[0].blocks.clear();
  EXPECT_THROW(uniform_arch_code(spec, empty_unit), ConfigError);
  EXPECT_THROW(
      uniform_arch_code(densenet_spec(), uniform_arch(resnet_spec(), 2, 3)),
      ConfigError);
  // A space without expansion options fixes the expansion at 1.
  EXPECT_NO_THROW(
      uniform_arch_code(densenet_spec(), uniform_arch(densenet_spec(), 2, 3)));
  EXPECT_THROW(uniform_arch_code(densenet_spec(),
                                 uniform_arch(densenet_spec(), 2, 3, 0.5)),
               ConfigError);
  EXPECT_THROW(unit_code_digit(spec, 1, 3, 0), ConfigError);
  EXPECT_THROW(unit_code_digit(spec, 1, 0, 3), ConfigError);
  EXPECT_EQ(unit_code_digit(spec, 7, 2, 2), unit_code_radix(spec) - 1);
}

TEST(ArchCodeTest, SearchEngineRejectsSpacesTooLargeForTheCode) {
  SupernetSpec wide = resnet_spec();
  wide.num_units = 30;  // 63^30 codes
  wide.stage_widths.assign(30, 64);
  EXPECT_FALSE(uniform_arch_code_fits(wide));
  EXPECT_THROW(search::SearchEngine(wide, search::EngineConfig{}),
               ConfigError);
  wide.num_units = 10;  // 63^10 < 2^64
  EXPECT_TRUE(uniform_arch_code_fits(wide));
  EXPECT_NO_THROW(search::SearchEngine(wide, search::EngineConfig{}));
}

TEST(ArchCodeTest, ServeCacheKeyBytesMatchRecordedCrc) {
  // Recorded before the unit digit moved into nets: the served cache key is
  // a generation varint plus one varint per unit, and these bytes must not
  // change with where the digit is computed.
  Rng rng(31337);
  const std::vector<SupernetSpec> specs{resnet_spec(), mobilenet_v3_spec(),
                                        densenet_spec()};
  std::uint32_t crc = 0;
  for (int i = 0; i < 1000; ++i) {
    const SupernetSpec& spec = specs[static_cast<std::size_t>(i % 3)];
    const std::uint64_t generation =
        rng.bernoulli(0.5) ? rng.uniform_u64(200) : rng();
    const std::string key =
        serve::arch_cache_key(spec, generation, wire_arch(spec, rng));
    crc = crc32(std::string(1, static_cast<char>(key.size())), crc);
    crc = crc32(key, crc);
  }
  EXPECT_EQ(crc32_hex(crc), "816ce9ca");
}

TEST(BuilderTest, AllShapesChainWithinBlocks) {
  // Layer shapes should be internally consistent: every conv's
  // output channels feed the following batch norm.
  const SupernetSpec spec = resnet_spec();
  const LayerGraph g = build_resnet(spec, uniform_arch(spec, 3, 5, 2.0 / 3.0));
  for (std::size_t i = 0; i + 1 < g.size(); ++i) {
    if (g[i].kind == LayerKind::kConv2d &&
        g[i + 1].kind == LayerKind::kBatchNorm) {
      EXPECT_EQ(g[i].output, g[i + 1].input) << "at layer " << i;
    }
  }
}

}  // namespace
}  // namespace esm
