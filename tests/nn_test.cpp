// Unit tests for src/nn: layer FLOP/parameter/traffic analysis and graphs.
#include <gtest/gtest.h>

#include "common/error.hpp"
#include "nn/graph.hpp"
#include "nn/layer.hpp"

namespace esm {
namespace {

Layer conv(int cin, int cout, int h, int w, int k, int stride = 1,
           int groups = 1) {
  Layer l;
  l.kind = LayerKind::kConv2d;
  l.input = {cin, h, w};
  l.output = {cout, (h + stride - 1) / stride, (w + stride - 1) / stride};
  l.kernel = k;
  l.stride = stride;
  l.groups = groups;
  return l;
}

TEST(LayerTest, ConvFlopsFormula) {
  // 3x3 conv, 16 -> 32 channels, 8x8 output: 2 * (32*8*8) * (16*9).
  const Layer l = conv(16, 32, 8, 8, 3);
  EXPECT_DOUBLE_EQ(l.flops(), 2.0 * 32 * 8 * 8 * 16 * 9);
}

TEST(LayerTest, ConvFlopsWithStrideUsesOutputSize) {
  const Layer l = conv(16, 32, 8, 8, 3, 2);
  EXPECT_DOUBLE_EQ(l.flops(), 2.0 * 32 * 4 * 4 * 16 * 9);
}

TEST(LayerTest, GroupedConvDividesFlops) {
  const Layer full = conv(16, 32, 8, 8, 3, 1, 1);
  const Layer grouped = conv(16, 32, 8, 8, 3, 1, 4);
  EXPECT_DOUBLE_EQ(grouped.flops(), full.flops() / 4.0);
}

TEST(LayerTest, DepthwiseConvFlops) {
  Layer l = conv(32, 32, 8, 8, 5);
  l.kind = LayerKind::kDepthwiseConv;
  l.groups = 32;
  EXPECT_DOUBLE_EQ(l.flops(), 2.0 * 32 * 8 * 8 * 25);
}

TEST(LayerTest, ConvParamsFormula) {
  Layer l = conv(16, 32, 8, 8, 3);
  EXPECT_DOUBLE_EQ(l.params(), 32.0 * 16 * 9);
  l.has_bias = true;
  EXPECT_DOUBLE_EQ(l.params(), 32.0 * 16 * 9 + 32);
}

TEST(LayerTest, FullyConnectedFlopsAndParams) {
  Layer l;
  l.kind = LayerKind::kFullyConnected;
  l.input = {128, 1, 1};
  l.output = {10, 1, 1};
  l.has_bias = true;
  EXPECT_DOUBLE_EQ(l.flops(), 2.0 * 128 * 10 + 10);
  EXPECT_DOUBLE_EQ(l.params(), 128.0 * 10 + 10);
}

TEST(LayerTest, BatchNormCosts) {
  Layer l;
  l.kind = LayerKind::kBatchNorm;
  l.input = {8, 4, 4};
  l.output = {8, 4, 4};
  EXPECT_DOUBLE_EQ(l.flops(), 2.0 * 8 * 4 * 4);
  EXPECT_DOUBLE_EQ(l.params(), 16.0);  // gamma + beta
}

TEST(LayerTest, ActivationFlops) {
  Layer relu;
  relu.kind = LayerKind::kRelu;
  relu.input = {4, 2, 2};
  relu.output = {4, 2, 2};
  EXPECT_DOUBLE_EQ(relu.flops(), 16.0);
  Layer hswish = relu;
  hswish.kind = LayerKind::kHSwish;
  EXPECT_DOUBLE_EQ(hswish.flops(), 64.0);
  EXPECT_DOUBLE_EQ(relu.params(), 0.0);
}

TEST(LayerTest, PoolingFlops) {
  Layer l;
  l.kind = LayerKind::kMaxPool;
  l.input = {8, 8, 8};
  l.output = {8, 4, 4};
  l.kernel = 3;
  EXPECT_DOUBLE_EQ(l.flops(), 8.0 * 4 * 4 * 9);
}

TEST(LayerTest, GlobalAvgPoolFlops) {
  Layer l;
  l.kind = LayerKind::kGlobalAvgPool;
  l.input = {16, 7, 7};
  l.output = {16, 1, 1};
  EXPECT_DOUBLE_EQ(l.flops(), 16.0 * 49);
}

TEST(LayerTest, AddReadsBothInputs) {
  Layer l;
  l.kind = LayerKind::kAdd;
  l.input = {4, 4, 4};
  l.aux_input = {4, 4, 4};
  l.output = {4, 4, 4};
  EXPECT_DOUBLE_EQ(l.flops(), 64.0);
  EXPECT_DOUBLE_EQ(l.read_bytes(), 2.0 * 64 * 4);
  EXPECT_DOUBLE_EQ(l.write_bytes(), 64.0 * 4);
}

TEST(LayerTest, ConcatIsPureDataMovement) {
  Layer l;
  l.kind = LayerKind::kConcat;
  l.input = {32, 8, 8};
  l.aux_input = {64, 8, 8};
  l.output = {96, 8, 8};
  EXPECT_DOUBLE_EQ(l.flops(), 0.0);
  EXPECT_DOUBLE_EQ(l.read_bytes(), (32.0 + 64.0) * 64 * 4);
  EXPECT_DOUBLE_EQ(l.write_bytes(), 96.0 * 64 * 4);
}

TEST(LayerTest, ArithmeticIntensityIsFlopsPerByte) {
  const Layer l = conv(64, 64, 16, 16, 3);
  EXPECT_NEAR(l.arithmetic_intensity(), l.flops() / l.memory_bytes(), 1e-12);
}

TEST(LayerTest, KindNames) {
  EXPECT_STREQ(layer_kind_name(LayerKind::kConv2d), "conv2d");
  EXPECT_STREQ(layer_kind_name(LayerKind::kConcat), "concat");
  EXPECT_STREQ(layer_kind_name(LayerKind::kScale), "scale");
}

TEST(TensorShapeTest, ElementsAndEquality) {
  const TensorShape s{3, 224, 224};
  EXPECT_EQ(s.elements(), 3ll * 224 * 224);
  EXPECT_EQ(s, (TensorShape{3, 224, 224}));
  EXPECT_NE(s, (TensorShape{3, 224, 112}));
}

TEST(GraphTest, TotalsAccumulate) {
  LayerGraph g("test");
  g.add(conv(3, 16, 8, 8, 3));
  g.add(conv(16, 16, 8, 8, 1));
  EXPECT_EQ(g.size(), 2u);
  EXPECT_DOUBLE_EQ(g.total_flops(), g[0].flops() + g[1].flops());
  EXPECT_DOUBLE_EQ(g.total_params(), g[0].params() + g[1].params());
  EXPECT_DOUBLE_EQ(g.total_memory_bytes(),
                   g[0].memory_bytes() + g[1].memory_bytes());
}

TEST(GraphTest, CountKind) {
  LayerGraph g;
  g.add(conv(3, 8, 4, 4, 3));
  Layer r;
  r.kind = LayerKind::kRelu;
  r.input = {8, 4, 4};
  r.output = {8, 4, 4};
  g.add(r);
  g.add(r);
  EXPECT_EQ(g.count_kind(LayerKind::kRelu), 2u);
  EXPECT_EQ(g.count_kind(LayerKind::kConv2d), 1u);
  EXPECT_EQ(g.count_kind(LayerKind::kConcat), 0u);
}

TEST(GraphTest, RejectsInvalidShapes) {
  LayerGraph g;
  Layer bad;
  bad.kind = LayerKind::kRelu;
  bad.input = {0, 4, 4};
  bad.output = {8, 4, 4};
  EXPECT_THROW(g.add(bad), ConfigError);
}

TEST(GraphTest, RejectsInvalidConvParams) {
  LayerGraph g;
  Layer bad = conv(3, 8, 4, 4, 3);
  bad.stride = 0;
  EXPECT_THROW(g.add(bad), ConfigError);
}

TEST(GraphTest, SummaryMentionsLayers) {
  LayerGraph g("demo");
  g.add(conv(3, 8, 4, 4, 3));
  const std::string s = g.summary();
  EXPECT_NE(s.find("demo"), std::string::npos);
  EXPECT_NE(s.find("conv2d"), std::string::npos);
}

}  // namespace
}  // namespace esm
