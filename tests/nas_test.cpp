// Unit tests for src/nas: the synthetic accuracy proxy and the Pareto
// utilities (the search engine is covered by search_test).
#include <gtest/gtest.h>

#include <utility>

#include "nas/accuracy_proxy.hpp"
#include "nas/pareto.hpp"
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

// -------------------------------------------------------- accuracy proxy

TEST(AccuracyProxyTest, DeterministicPerArchitecture) {
  const SupernetSpec spec = resnet_spec();
  const AccuracyProxy proxy(spec);
  const ArchConfig arch = uniform_arch(spec, 3, 5);
  EXPECT_DOUBLE_EQ(proxy.top5_accuracy(arch), proxy.top5_accuracy(arch));
}

TEST(AccuracyProxyTest, GoldenValues) {
  // Recorded before build_graph and ArchConfig::to_string were rewritten:
  // the proxy is total FLOPs plus a residual seeded by std::hash of the
  // arch string, so these bits pin both (for libstdc++'s std::hash).
  constexpr double kHalf = 0.5;
  constexpr double kTwoThirds = 2.0 / 3.0;
  ArchConfig resnet{SupernetKind::kResNet,
                    {{{{3, kHalf}, {5, kTwoThirds}}},
                     {{{7, 1.0}}},
                     {{{3, kTwoThirds}, {3, kHalf}, {5, 1.0}}},
                     {{{7, kHalf}}}}};
  ArchConfig mobilenet{SupernetKind::kMobileNetV3,
                       {{{{5, 1.0}}},
                        {{{3, kHalf}, {7, kTwoThirds}}},
                        {{{7, 1.0}, {5, kHalf}}},
                        {{{3, kTwoThirds}, {3, 1.0}, {5, kHalf},
                          {7, kTwoThirds}}}}};
  ArchConfig densenet{SupernetKind::kDenseNet, {}};
  for (const auto& [depth, kernel] :
       {std::pair{20, 9}, {1, 1}, {3, 3}, {12, 5}, {2, 7}}) {
    densenet.units.push_back(
        UnitConfig{std::vector<BlockConfig>(depth, BlockConfig{kernel, 1.0})});
  }
  const struct {
    const ArchConfig& arch;
    double seed7;
    double seed3;
  } cases[] = {
      {resnet, 0x1.d6ec72e875f16p-1, 0x1.d86b4e6163165p-1},
      {mobilenet, 0x1.c65ac87ba7d33p-1, 0x1.c4c4071dfe407p-1},
      {densenet, 0x1.e70350c1d3beap-1, 0x1.e7744de93d40bp-1},
  };
  for (const auto& c : cases) {
    const SupernetSpec spec = spec_for(c.arch.kind);
    ASSERT_TRUE(spec.contains(c.arch)) << c.arch.to_string();
    EXPECT_EQ(AccuracyProxy(spec).top5_accuracy(c.arch), c.seed7)
        << spec.name;
    EXPECT_EQ(AccuracyProxy(spec, 3).top5_accuracy(c.arch), c.seed3)
        << spec.name;
  }
}

TEST(AccuracyProxyTest, InPlausibleRange) {
  const SupernetSpec spec = resnet_spec();
  const AccuracyProxy proxy(spec);
  Rng rng(1);
  RandomSampler sampler(spec);
  for (int i = 0; i < 100; ++i) {
    const double acc = proxy.top5_accuracy(sampler.sample(rng));
    EXPECT_GT(acc, 0.85);
    EXPECT_LT(acc, 0.97);
  }
}

TEST(AccuracyProxyTest, BiggerModelsAreMoreAccurateOnAverage) {
  const SupernetSpec spec = resnet_spec();
  const AccuracyProxy proxy(spec);
  const double small = proxy.top5_accuracy(uniform_arch(spec, 1, 3, 0.5));
  const double large = proxy.top5_accuracy(uniform_arch(spec, 7, 7, 1.0));
  EXPECT_GT(large, small);
}

TEST(AccuracyProxyTest, ResidualVariesBetweenArchitectures) {
  // Two architectures with identical FLOPs (permuted units) still differ.
  const SupernetSpec spec = resnet_spec();
  const AccuracyProxy proxy(spec);
  ArchConfig a = uniform_arch(spec, 3, 5);
  ArchConfig b = a;
  b.units[0].blocks[0].kernel = 3;
  b.units[0].blocks[1].kernel = 7;
  a.units[0].blocks[0].kernel = 7;
  a.units[0].blocks[1].kernel = 3;
  EXPECT_NE(proxy.top5_accuracy(a), proxy.top5_accuracy(b));
}

TEST(AccuracyProxyTest, SeedChangesResidualField) {
  const SupernetSpec spec = resnet_spec();
  const AccuracyProxy p1(spec, 1), p2(spec, 2);
  const ArchConfig arch = uniform_arch(spec, 3, 5);
  EXPECT_NE(p1.top5_accuracy(arch), p2.top5_accuracy(arch));
}

// ---------------------------------------------------------------- pareto

TEST(ParetoTest, FrontOnHandcraftedPoints) {
  //   cost:  1    2    3    4
  //   value: 5    4    6    6
  // Front: index 0 (1,5) and index 2 (3,6). (2,4) dominated by (1,5);
  // (4,6) dominated by (3,6).
  const std::vector<double> cost{1, 2, 3, 4};
  const std::vector<double> value{5, 4, 6, 6};
  const auto front = pareto_front(cost, value);
  EXPECT_EQ(front, (std::vector<std::size_t>{0, 2}));
}

TEST(ParetoTest, SinglePointIsItsOwnFront) {
  const std::vector<double> cost{1.0};
  const std::vector<double> value{1.0};
  EXPECT_EQ(pareto_front(cost, value).size(), 1u);
}

TEST(ParetoTest, MonotoneChainAllOnFront) {
  const std::vector<double> cost{1, 2, 3};
  const std::vector<double> value{1, 2, 3};
  EXPECT_EQ(pareto_front(cost, value).size(), 3u);
}

TEST(ParetoTest, FrontPointsAreMutuallyNonDominated) {
  Rng rng(2);
  std::vector<double> cost(200), value(200);
  for (int i = 0; i < 200; ++i) {
    cost[static_cast<std::size_t>(i)] = rng.uniform();
    value[static_cast<std::size_t>(i)] = rng.uniform();
  }
  const auto front = pareto_front(cost, value);
  for (std::size_t a : front) {
    for (std::size_t b : front) {
      if (a == b) continue;
      const bool dominates = cost[b] <= cost[a] && value[b] >= value[a] &&
                             (cost[b] < cost[a] || value[b] > value[a]);
      EXPECT_FALSE(dominates);
    }
  }
}

TEST(ParetoTest, JaccardBasics) {
  EXPECT_DOUBLE_EQ(index_jaccard({}, {}), 1.0);
  EXPECT_DOUBLE_EQ(index_jaccard({1, 2}, {1, 2}), 1.0);
  EXPECT_DOUBLE_EQ(index_jaccard({1, 2}, {3, 4}), 0.0);
  EXPECT_DOUBLE_EQ(index_jaccard({1, 2, 3}, {2, 3, 4}), 0.5);
}

TEST(ParetoTest, RegretZeroWhenFrontsMatch) {
  const std::vector<double> cost{1, 2, 3};
  const std::vector<double> value{1, 2, 3};
  const auto front = pareto_front(cost, value);
  EXPECT_DOUBLE_EQ(pareto_regret(cost, value, front, front), 0.0);
}

TEST(ParetoTest, RegretPositiveWhenSelectionMissesBest) {
  const std::vector<double> cost{1, 1, 2};
  const std::vector<double> value{5, 3, 6};
  const std::vector<std::size_t> truth{0, 2};
  const std::vector<std::size_t> selected{1};  // picked the weak point
  EXPECT_GT(pareto_regret(cost, value, truth, selected), 0.0);
}

TEST(ParetoTest, EmptyInputsYieldEmptyFront) {
  const std::vector<double> none;
  EXPECT_TRUE(pareto_front(none, none).empty());
  // An empty truth front has nothing to regret; an empty selection against
  // a real truth forfeits the truth's full value.
  EXPECT_DOUBLE_EQ(pareto_regret(none, none, {}, {}), 0.0);
  const std::vector<double> cost{1, 2};
  const std::vector<double> value{4, 6};
  EXPECT_DOUBLE_EQ(pareto_regret(cost, value, {0, 1}, {}), 5.0);
}

TEST(ParetoTest, AllDominatedCollapseToOnePoint) {
  // Index 2 has the least cost AND the most value: everything else is
  // dominated, whatever the order they arrive in.
  const std::vector<double> cost{5, 4, 1, 3};
  const std::vector<double> value{2, 3, 9, 6};
  EXPECT_EQ(pareto_front(cost, value), (std::vector<std::size_t>{2}));
}

TEST(ParetoTest, DuplicateCostsKeepOnlyTheBestOfEachTie) {
  // Two points at cost 1 and two at cost 2: the front takes the higher
  // value of each tie group once, and an exact duplicate point is not
  // listed twice.
  const std::vector<double> cost{1, 1, 2, 2, 2};
  const std::vector<double> value{5, 3, 7, 7, 6};
  EXPECT_EQ(pareto_front(cost, value), (std::vector<std::size_t>{0, 2}));
}

TEST(ParetoTest, RegretAgainstDuplicateCostTruthUsesBestSelected) {
  // Truth holds the strong point of a cost tie; selecting its weak twin
  // (same cost) leaves exactly the value gap as regret.
  const std::vector<double> cost{1, 1};
  const std::vector<double> value{9, 7};
  EXPECT_DOUBLE_EQ(pareto_regret(cost, value, {0}, {1}), 2.0);
  // Selecting the strong point itself cancels the regret.
  EXPECT_DOUBLE_EQ(pareto_regret(cost, value, {0}, {0, 1}), 0.0);
}

}  // namespace
}  // namespace esm
