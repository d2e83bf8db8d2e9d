// Unit tests for src/encoding: dimensions, contents, and invariants of all
// five encoding schemes over the three paper spaces.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <set>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "encoding/encoder.hpp"
#include "encoding/encoders.hpp"
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

/// Permutes the blocks within every unit.
ArchConfig permute_within_units(const ArchConfig& arch, Rng& rng) {
  ArchConfig out = arch;
  for (UnitConfig& unit : out.units) rng.shuffle(unit.blocks);
  return out;
}

// ------------------------------------------------------------ dimensions

TEST(EncodingDimsTest, ResNetDimensions) {
  const SupernetSpec spec = resnet_spec();
  // one-hot: 4 * (7 depth + 7 slots * (3 kernels + 3 expansions)) = 196.
  EXPECT_EQ(OneHotEncoder(spec).dimension(), 196u);
  // feature: 4 * (1 + 7 * 2) = 60.
  EXPECT_EQ(FeatureEncoder(spec).dimension(), 60u);
  // statistical: 4 depths + 2*2 global moments = 8.
  EXPECT_EQ(StatisticalEncoder(spec).dimension(), 8u);
  // FC: 4 * (3 + 3) = 24.
  EXPECT_EQ(FeatureCountEncoder(spec).dimension(), 24u);
  // FCC: 4 * 9 = 36.
  EXPECT_EQ(FccEncoder(spec).dimension(), 36u);
}

TEST(EncodingDimsTest, DenseNetDimensions) {
  const SupernetSpec spec = densenet_spec();
  // one-hot: 5 * (20 depth + 20 slots * 5 kernels) = 600.
  EXPECT_EQ(OneHotEncoder(spec).dimension(), 600u);
  // feature: 5 * (1 + 20 * 1) = 105.
  EXPECT_EQ(FeatureEncoder(spec).dimension(), 105u);
  // statistical: per-unit [depth, kernel] for unit-level kernels = 10.
  EXPECT_EQ(StatisticalEncoder(spec).dimension(), 10u);
  // FC = FCC = 5 * 5 = 25 (no expansion dimension).
  EXPECT_EQ(FeatureCountEncoder(spec).dimension(), 25u);
  EXPECT_EQ(FccEncoder(spec).dimension(), 25u);
}

TEST(EncodingDimsTest, FccIsShorterThanOneHotAndFeature) {
  for (const SupernetSpec& spec :
       {resnet_spec(), mobilenet_v3_spec(), densenet_spec()}) {
    const FccEncoder fcc(spec);
    EXPECT_LT(fcc.dimension(), OneHotEncoder(spec).dimension());
    EXPECT_LT(fcc.dimension(), FeatureEncoder(spec).dimension());
  }
}

// -------------------------------------------------------------- contents

TEST(EncodingTest, FccCountsCombinations) {
  const SupernetSpec spec = resnet_spec();
  FccEncoder fcc(spec);
  ArchConfig arch = uniform_arch(spec, 1, 3, 0.5);
  arch.units[0].blocks = {{3, 0.5}, {3, 0.5}, {7, 1.0}};
  const std::vector<double> z = fcc.encode(arch);
  // Unit 0 segment: combination (k=3, e=0.5) has count 2; (7, 1.0) has 1.
  EXPECT_DOUBLE_EQ(z[fcc.combination_index({3, 0.5})], 2.0);
  EXPECT_DOUBLE_EQ(z[fcc.combination_index({7, 1.0})], 1.0);
  // Exactly two non-zero entries in unit 0's 9-wide segment.
  int nonzero = 0;
  for (std::size_t i = 0; i < 9; ++i) nonzero += z[i] != 0.0 ? 1 : 0;
  EXPECT_EQ(nonzero, 2);
}

TEST(EncodingTest, FccSegmentSumsEqualDepths) {
  const SupernetSpec spec = resnet_spec();
  FccEncoder fcc(spec);
  Rng rng(1);
  RandomSampler sampler(spec);
  for (int i = 0; i < 50; ++i) {
    const ArchConfig arch = sampler.sample(rng);
    const std::vector<double> z = fcc.encode(arch);
    for (std::size_t u = 0; u < 4; ++u) {
      double sum = 0.0;
      for (std::size_t c = 0; c < 9; ++c) sum += z[u * 9 + c];
      EXPECT_DOUBLE_EQ(sum, arch.units[u].depth());
    }
  }
}

TEST(EncodingTest, FcCountsFeatureValues) {
  const SupernetSpec spec = resnet_spec();
  FeatureCountEncoder fc(spec);
  ArchConfig arch = uniform_arch(spec, 1, 3, 0.5);
  arch.units[0].blocks = {{3, 0.5}, {5, 0.5}, {5, 1.0}};
  const std::vector<double> z = fc.encode(arch);
  // Unit 0: kernel counts [k3, k5, k7] then expansion counts [.5, .67, 1].
  EXPECT_DOUBLE_EQ(z[0], 1.0);  // one k3
  EXPECT_DOUBLE_EQ(z[1], 2.0);  // two k5
  EXPECT_DOUBLE_EQ(z[2], 0.0);
  EXPECT_DOUBLE_EQ(z[3], 2.0);  // two e=0.5
  EXPECT_DOUBLE_EQ(z[4], 0.0);
  EXPECT_DOUBLE_EQ(z[5], 1.0);  // one e=1.0
}

TEST(EncodingTest, StatisticalHasDepthsAndGlobalMoments) {
  const SupernetSpec spec = resnet_spec();
  StatisticalEncoder stat(spec);
  ArchConfig arch = uniform_arch(spec, 2, 3, 0.5);
  arch.units[3].blocks.push_back({7, 1.0});
  const std::vector<double> z = stat.encode(arch);
  EXPECT_DOUBLE_EQ(z[0], 2.0);
  EXPECT_DOUBLE_EQ(z[3], 3.0);  // deepened unit
  // Global kernel mean over 9 blocks: (8*3 + 7) / 9.
  EXPECT_NEAR(z[4], (8.0 * 3 + 7) / 9.0, 1e-12);
  EXPECT_GT(z[5], 0.0);  // kernel std is now non-zero
}

TEST(EncodingTest, OneHotIsBinaryWithDepthMarks) {
  const SupernetSpec spec = resnet_spec();
  OneHotEncoder onehot(spec);
  Rng rng(2);
  RandomSampler sampler(spec);
  const ArchConfig arch = sampler.sample(rng);
  const std::vector<double> z = onehot.encode(arch);
  for (double v : z) EXPECT_TRUE(v == 0.0 || v == 1.0);
  // Exactly one depth bit set per unit plus 2 bits per existing block.
  double total = 0.0;
  for (double v : z) total += v;
  EXPECT_DOUBLE_EQ(total, 4.0 + 2.0 * arch.total_blocks());
}

TEST(EncodingTest, FeatureEncodesRawValuesWithPadding) {
  const SupernetSpec spec = resnet_spec();
  FeatureEncoder feat(spec);
  ArchConfig arch = uniform_arch(spec, 1, 5, 0.5);
  const std::vector<double> z = feat.encode(arch);
  // Unit 0 segment: [depth, k0, e0, 0-padding...].
  EXPECT_DOUBLE_EQ(z[0], 1.0);
  EXPECT_DOUBLE_EQ(z[1], 5.0);
  EXPECT_DOUBLE_EQ(z[2], 0.5);
  EXPECT_DOUBLE_EQ(z[3], 0.0);  // slot 1 inactive
}

// ------------------------------------------------------------ invariants

TEST(EncodingInvariantTest, CountEncodersArePermutationInvariant) {
  const SupernetSpec spec = resnet_spec();
  Rng rng(3);
  RandomSampler sampler(spec);
  FccEncoder fcc(spec);
  FeatureCountEncoder fc(spec);
  StatisticalEncoder stat(spec);
  for (int i = 0; i < 30; ++i) {
    const ArchConfig a = sampler.sample(rng);
    const ArchConfig b = permute_within_units(a, rng);
    EXPECT_EQ(fcc.encode(a), fcc.encode(b));
    EXPECT_EQ(fc.encode(a), fc.encode(b));
    // Statistical moments are order-invariant mathematically but summation
    // order perturbs the last ulp — compare with a tolerance.
    const auto sa = stat.encode(a);
    const auto sb = stat.encode(b);
    ASSERT_EQ(sa.size(), sb.size());
    for (std::size_t j = 0; j < sa.size(); ++j) {
      EXPECT_NEAR(sa[j], sb[j], 1e-9);
    }
  }
}

TEST(EncodingInvariantTest, PositionalEncodersAreNotPermutationInvariant) {
  const SupernetSpec spec = resnet_spec();
  FeatureEncoder feat(spec);
  ArchConfig a = uniform_arch(spec, 2, 3, 0.5);
  a.units[0].blocks[1] = {7, 1.0};
  ArchConfig b = a;
  std::swap(b.units[0].blocks[0], b.units[0].blocks[1]);
  EXPECT_NE(feat.encode(a), feat.encode(b));
}

TEST(EncodingInvariantTest, FccInjectiveOnUnitMultisets) {
  // Two architectures differing in any unit's block multiset must encode
  // differently; FCC collisions only happen for equal multisets.
  const SupernetSpec spec = resnet_spec();
  FccEncoder fcc(spec);
  Rng rng(4);
  RandomSampler sampler(spec);
  for (int i = 0; i < 200; ++i) {
    const ArchConfig a = sampler.sample(rng);
    ArchConfig b = sampler.sample(rng);
    const auto za = fcc.encode(a);
    const auto zb = fcc.encode(b);
    if (za == zb) {
      // Same encoding -> unit multisets must match -> same latency-relevant
      // structure. Verify multiset equality via sorted block lists.
      for (std::size_t u = 0; u < a.units.size(); ++u) {
        auto sa = a.units[u].blocks;
        auto sb = b.units[u].blocks;
        auto key = [](const BlockConfig& x) {
          return std::pair<int, double>{x.kernel, x.expansion};
        };
        std::sort(sa.begin(), sa.end(),
                  [&](auto& l, auto& r) { return key(l) < key(r); });
        std::sort(sb.begin(), sb.end(),
                  [&](auto& l, auto& r) { return key(l) < key(r); });
        EXPECT_EQ(sa, sb);
      }
    }
  }
}

TEST(EncodingInvariantTest, StatisticalCollapsesDistinctConfigs) {
  // The paper's motivation: statistical encoding produces overlapping
  // representations. Construct two different architectures with identical
  // statistical encodings.
  const SupernetSpec spec = resnet_spec();
  StatisticalEncoder stat(spec);
  FccEncoder fcc(spec);
  // Same depths; kernels permuted ACROSS units (global moments unchanged).
  ArchConfig a = uniform_arch(spec, 2, 3, 0.5);
  a.units[0].blocks = {{3, 0.5}, {7, 0.5}};
  a.units[1].blocks = {{5, 0.5}, {5, 0.5}};
  ArchConfig b = a;
  b.units[0].blocks = {{5, 0.5}, {5, 0.5}};
  b.units[1].blocks = {{3, 0.5}, {7, 0.5}};
  EXPECT_EQ(stat.encode(a), stat.encode(b));   // overlapping representation
  EXPECT_NE(fcc.encode(a), fcc.encode(b));     // FCC distinguishes them
}

TEST(EncodingInvariantTest, EncodersRejectOutOfSpaceArchs) {
  const SupernetSpec spec = resnet_spec();
  const ArchConfig bad = uniform_arch(spec, 9, 3);  // depth out of range
  for (EncodingKind kind : all_encoding_kinds()) {
    auto enc = make_encoder(kind, spec);
    EXPECT_THROW(enc->encode(bad), ConfigError) << enc->name();
  }
}

TEST(EncodingInvariantTest, SparsityOrdering) {
  // One-hot must be sparser than FCC, which is sparser than statistical.
  const SupernetSpec spec = resnet_spec();
  Rng rng(5);
  RandomSampler sampler(spec);
  OneHotEncoder onehot(spec);
  FccEncoder fcc(spec);
  StatisticalEncoder stat(spec);
  double s_onehot = 0.0, s_fcc = 0.0, s_stat = 0.0;
  const int n = 50;
  for (int i = 0; i < n; ++i) {
    const ArchConfig arch = sampler.sample(rng);
    s_onehot += onehot.sparsity(arch);
    s_fcc += fcc.sparsity(arch);
    s_stat += stat.sparsity(arch);
  }
  EXPECT_GT(s_onehot / n, s_fcc / n);
  EXPECT_GT(s_fcc / n, s_stat / n);
}

// --------------------------------------------------------------- factory

TEST(EncodingFactoryTest, NamesRoundTrip) {
  for (EncodingKind kind : all_encoding_kinds()) {
    EXPECT_EQ(encoding_kind_from_name(encoding_kind_name(kind)), kind);
    EXPECT_EQ(encoding_kind_from_name(encoder_registry_key(kind)), kind);
  }
  EXPECT_EQ(encoding_kind_from_name("FCC"), EncodingKind::kFcc);
  EXPECT_EQ(encoding_kind_from_name("stat"), EncodingKind::kStatistical);
  EXPECT_THROW(encoding_kind_from_name("gcn"), ConfigError);
}

TEST(EncodingTableTest, ListsKeysAndNamesBaselineFirst) {
  EXPECT_EQ(encoder_keys(), (std::vector<std::string>{"onehot", "feature",
                                                      "stat", "fc", "fcc"}));
  std::vector<std::string> names;
  for (EncodingKind kind : all_encoding_kinds()) {
    names.emplace_back(encoding_kind_name(kind));
  }
  EXPECT_EQ(names, (std::vector<std::string>{"one-hot", "feature",
                                             "statistical", "fc", "fcc"}));
}

TEST(EncodingTableTest, ResolvesAliasesCaseInsensitively) {
  EXPECT_EQ(encoding_kind_from_name("one-hot"), EncodingKind::kOneHot);
  EXPECT_EQ(encoding_kind_from_name("Statistical"),
            EncodingKind::kStatistical);
  EXPECT_EQ(encoding_kind_from_name("feature-count"),
            EncodingKind::kFeatureCount);
  EXPECT_EQ(encoding_kind_from_name("Feature-Combination-Count"),
            EncodingKind::kFcc);
  EXPECT_EQ(encoder_registry_key(encoding_kind_from_name("FCC")), "fcc");
  EXPECT_TRUE(find_encoding_kind("stat").has_value());
  EXPECT_FALSE(find_encoding_kind("gloop").has_value());
  EXPECT_FALSE(find_encoding_kind("").has_value());
}

TEST(EncodingTableTest, UnknownNameErrorListsTheKeys) {
  try {
    (void)encoding_kind_from_name("gloop");
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("onehot, feature, stat, fc, fcc"),
              std::string::npos)
        << e.what();
  }
  EXPECT_THROW(make_encoder("gloop", resnet_spec()), ConfigError);
}

TEST(EncodingTableTest, KeyFactoryBuildsTheNamedKind) {
  const auto encoder = make_encoder("statistical", resnet_spec());
  EXPECT_EQ(encoder->kind(), EncodingKind::kStatistical);
  EXPECT_EQ(encoder->name(), "statistical");
}

TEST(EncodingFactoryTest, FactoryProducesMatchingKind) {
  const SupernetSpec spec = mobilenet_v3_spec();
  for (EncodingKind kind : all_encoding_kinds()) {
    auto enc = make_encoder(kind, spec);
    EXPECT_EQ(enc->kind(), kind);
    EXPECT_EQ(enc->spec().kind, spec.kind);
    EXPECT_GT(enc->dimension(), 0u);
  }
}

TEST(EncodingFactoryTest, EncodeAllMatrixMatchesRowEncodes) {
  const SupernetSpec spec = resnet_spec();
  FccEncoder fcc(spec);
  Rng rng(6);
  RandomSampler sampler(spec);
  const std::vector<ArchConfig> archs = sampler.sample_n(10, rng);
  const Matrix m = fcc.encode_all(archs);
  ASSERT_EQ(m.rows(), 10u);
  ASSERT_EQ(m.cols(), fcc.dimension());
  for (std::size_t r = 0; r < 10; ++r) {
    const std::vector<double> z = fcc.encode(archs[r]);
    for (std::size_t c = 0; c < z.size(); ++c) {
      EXPECT_DOUBLE_EQ(m(r, c), z[c]);
    }
  }
}

TEST(EncodingFactoryTest, EncodeIntoMatchesEncodeBitForBit) {
  // The fused predict path writes encodings straight into matrix rows via
  // encode_into. Pin that for every encoder x space the in-place write is
  // byte-identical to the allocating encode(), even into a dirty buffer.
  Rng rng(7);
  for (const SupernetSpec& spec :
       {resnet_spec(), mobilenet_v3_spec(), densenet_spec()}) {
    RandomSampler sampler(spec);
    for (EncodingKind kind : all_encoding_kinds()) {
      auto enc = make_encoder(kind, spec);
      for (int i = 0; i < 10; ++i) {
        const ArchConfig arch = sampler.sample(rng);
        const std::vector<double> z = enc->encode(arch);
        ASSERT_EQ(z.size(), enc->dimension());
        std::vector<double> buf(enc->dimension(), -12345.678);  // sentinel
        enc->encode_into(arch, buf);
        EXPECT_EQ(0, std::memcmp(buf.data(), z.data(),
                                 z.size() * sizeof(double)))
            << enc->name() << " on space " << static_cast<int>(spec.kind);
      }
      // Wrong-size buffers are rejected rather than over/under-written.
      std::vector<double> wrong(enc->dimension() + 1);
      EXPECT_THROW(enc->encode_into(sampler.sample(rng), wrong), LogicError);
    }
  }
}

}  // namespace
}  // namespace esm
