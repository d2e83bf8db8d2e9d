// Shared lowering helpers for the supernet builders (internal header).
//
// Each space has one lowering, a template over the sink `G` that receives
// its layers: anything with `add(Layer)`. A LayerGraph keeps every layer
// (build_graph); a FlopsSink keeps only the FLOPs total (graph_flops).
#pragma once

#include <cmath>

#include "nets/arch.hpp"
#include "nets/supernet.hpp"
#include "nn/graph.hpp"

namespace esm::detail {

/// Lowering sink that keeps only the FLOPs total. It runs the same
/// per-layer checks as LayerGraph::add and sums in the same layer order as
/// LayerGraph::total_flops, so the total has the same bits.
class FlopsSink {
 public:
  void add(const Layer& layer) {
    check_layer(layer, count_++);
    flops_ += layer.flops();
  }
  double total_flops() const { return flops_; }

 private:
  std::size_t count_ = 0;
  double flops_ = 0.0;
};

/// Each space's lowering: appends its layers to `g` in execution order.
/// `arch` is already validated. Instantiated for LayerGraph and FlopsSink.
template <class G>
void lower_resnet(G& g, const SupernetSpec& spec, const ArchConfig& arch);
template <class G>
void lower_mobilenet_v3(G& g, const SupernetSpec& spec,
                        const ArchConfig& arch);
template <class G>
void lower_densenet(G& g, const SupernetSpec& spec, const ArchConfig& arch);

/// Output spatial size of a same-padded, strided op.
inline int strided_dim(int in, int stride) { return (in + stride - 1) / stride; }

/// Sentinel for add_conv_bn's `activation` parameter meaning "no activation
/// after the batch norm" (any non-activation kind works; this reads better).
inline constexpr LayerKind kNoActivation = LayerKind::kBatchNorm;

/// A layer of `kind` mapping `in` to `out`: a 1x1, stride-1, ungrouped op
/// with no bias and no second operand until the caller says otherwise.
inline Layer make_layer(LayerKind kind, TensorShape in, TensorShape out) {
  Layer layer;
  layer.kind = kind;
  layer.input = in;
  layer.output = out;
  return layer;
}

/// Appends a shape-preserving single-input layer (batch norm, activation).
template <class G>
void add_unary(G& g, LayerKind kind, TensorShape shape) {
  g.add(make_layer(kind, shape, shape));
}

/// Appends a two-input layer (add, concat, scale) whose second operand is
/// `aux`.
template <class G>
void add_binary(G& g, LayerKind kind, TensorShape in, TensorShape aux,
                TensorShape out) {
  Layer layer = make_layer(kind, in, out);
  layer.aux_input = aux;
  g.add(layer);
}

/// Appends a biased fully-connected layer on a flattened 1x1 tensor.
template <class G>
TensorShape add_fc(G& g, int in_features, int out_features) {
  const TensorShape out{out_features, 1, 1};
  Layer fc = make_layer(LayerKind::kFullyConnected, {in_features, 1, 1}, out);
  fc.has_bias = true;
  g.add(fc);
  return out;
}

/// Appends a layer with a square window (conv or pool) and same padding;
/// returns its output shape.
template <class G>
TensorShape add_windowed(G& g, LayerKind kind, TensorShape in,
                         int out_channels, int kernel, int stride,
                         int groups = 1) {
  const TensorShape out{out_channels, strided_dim(in.height, stride),
                        strided_dim(in.width, stride)};
  Layer layer = make_layer(kind, in, out);
  layer.kernel = kernel;
  layer.stride = stride;
  layer.groups = groups;
  g.add(layer);
  return out;
}

/// Appends conv + batch-norm (+ optional activation) with same padding.
template <class G>
TensorShape add_conv_bn(G& g, TensorShape in, int out_channels, int kernel,
                        int stride, LayerKind activation,
                        bool depthwise = false) {
  const TensorShape out = add_windowed(
      g, depthwise ? LayerKind::kDepthwiseConv : LayerKind::kConv2d, in,
      out_channels, kernel, stride, depthwise ? in.channels : 1);
  add_unary(g, LayerKind::kBatchNorm, out);
  if (activation == LayerKind::kRelu || activation == LayerKind::kHSwish) {
    add_unary(g, activation, out);
  }
  return out;
}

/// Appends a pooling layer (max or average) with a square window.
template <class G>
TensorShape add_pool(G& g, LayerKind kind, TensorShape in, int kernel,
                     int stride) {
  return add_windowed(g, kind, in, in.channels, kernel, stride);
}

/// Appends the global-average-pool + fully-connected classification head.
template <class G>
void add_head(G& g, TensorShape in, int num_classes) {
  g.add(make_layer(LayerKind::kGlobalAvgPool, in, {in.channels, 1, 1}));
  (void)add_fc(g, in.channels, num_classes);
}

/// Rounds a fractional channel count, clamped to at least 1.
inline int scaled_channels(double base, double ratio) {
  return std::max(1, static_cast<int>(std::lround(base * ratio)));
}

}  // namespace esm::detail
