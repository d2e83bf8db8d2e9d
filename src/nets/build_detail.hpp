// Shared lowering helpers for the supernet builders (internal header).
#pragma once

#include <cmath>

#include "nn/graph.hpp"

namespace esm::detail {

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
inline void add_unary(LayerGraph& g, LayerKind kind, TensorShape shape) {
  g.add(make_layer(kind, shape, shape));
}

/// Appends a two-input layer (add, concat, scale) whose second operand is
/// `aux`.
inline void add_binary(LayerGraph& g, LayerKind kind, TensorShape in,
                       TensorShape aux, TensorShape out) {
  Layer layer = make_layer(kind, in, out);
  layer.aux_input = aux;
  g.add(layer);
}

/// Appends a biased fully-connected layer on a flattened 1x1 tensor.
inline TensorShape add_fc(LayerGraph& g, int in_features, int out_features) {
  const TensorShape out{out_features, 1, 1};
  Layer fc = make_layer(LayerKind::kFullyConnected, {in_features, 1, 1}, out);
  fc.has_bias = true;
  g.add(fc);
  return out;
}

/// Appends a layer with a square window (conv or pool) and same padding;
/// returns its output shape.
inline TensorShape add_windowed(LayerGraph& g, LayerKind kind, TensorShape in,
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
inline TensorShape add_conv_bn(LayerGraph& g, TensorShape in,
                               int out_channels, int kernel, int stride,
                               LayerKind activation, bool depthwise = false) {
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
inline TensorShape add_pool(LayerGraph& g, LayerKind kind, TensorShape in,
                            int kernel, int stride) {
  return add_windowed(g, kind, in, in.channels, kernel, stride);
}

/// Appends the global-average-pool + fully-connected classification head.
inline void add_head(LayerGraph& g, TensorShape in, int num_classes) {
  g.add(make_layer(LayerKind::kGlobalAvgPool, in, {in.channels, 1, 1}));
  (void)add_fc(g, in.channels, num_classes);
}

/// Rounds a fractional channel count, clamped to at least 1.
inline int scaled_channels(double base, double ratio) {
  return std::max(1, static_cast<int>(std::lround(base * ratio)));
}

}  // namespace esm::detail
