// Layer-level intermediate representation of a concrete DNN.
//
// Supernet builders (src/nets) lower an architecture configuration into a
// linearized LayerGraph — the sequence of kernels the device would launch.
// The hardware simulator (src/hwsim) consumes this IR to produce latency;
// the lookup-table surrogate profiles it per block. Analysis functions give
// exact FLOP, parameter, and memory-traffic counts per layer, which also
// power the FLOPs-proxy baseline.
#pragma once

#include <cstdint>

namespace esm {

/// Kinds of primitive layers the builders emit.
enum class LayerKind {
  kConv2d,         ///< standard (possibly grouped) 2-D convolution
  kDepthwiseConv,  ///< depthwise 2-D convolution (groups == channels)
  kFullyConnected, ///< dense layer on a flattened tensor
  kBatchNorm,      ///< per-channel scale + shift
  kRelu,           ///< rectified linear activation
  kHSwish,         ///< hard-swish activation (MobileNetV3)
  kMaxPool,        ///< max pooling
  kAvgPool,        ///< average pooling
  kGlobalAvgPool,  ///< global average pooling to 1x1
  kAdd,            ///< element-wise residual addition (two inputs)
  kConcat,         ///< channel concatenation (DenseNet)
  kScale,          ///< per-channel multiplicative gating (SE excite)
};

/// Human-readable layer-kind name ("conv2d", "add", ...).
const char* layer_kind_name(LayerKind kind);

/// Channels x height x width activation shape.
struct TensorShape {
  int channels = 0;
  int height = 0;
  int width = 0;

  std::int64_t elements() const {
    return static_cast<std::int64_t>(channels) * height * width;
  }
  bool operator==(const TensorShape&) const = default;
};

/// One primitive layer in execution order. Layers carry no name: a layer
/// is identified by its index in the graph and its kind.
///
/// `input` is the primary input shape; `aux_input` is the secondary input for
/// kAdd (same shape) and kConcat (the tensor being appended). Convolution
/// parameters are ignored by non-conv kinds.
struct Layer {
  LayerKind kind = LayerKind::kConv2d;
  TensorShape input;
  TensorShape aux_input;  ///< second operand for kAdd / kConcat; else zero
  TensorShape output;
  int kernel = 1;  ///< spatial kernel size (square)
  int stride = 1;
  int groups = 1;  ///< conv groups; kDepthwiseConv implies groups == channels
  bool has_bias = false;

  /// Multiply-accumulate-based floating-point operations (1 MAC = 2 FLOPs).
  /// Inline: graph_flops sums it per layer, and at each builder call site
  /// the kind is a constant the switch folds away.
  double flops() const;

  /// Trainable parameter count (weights + bias + BN affine pairs).
  double params() const;

  /// Bytes read from memory in the worst case (activations + weights, fp32).
  double read_bytes() const;

  /// Bytes written to memory (output activations, fp32).
  double write_bytes() const;

  /// read_bytes() + write_bytes().
  double memory_bytes() const { return read_bytes() + write_bytes(); }

  /// FLOPs per byte of memory traffic; 0 for pure data-movement layers.
  double arithmetic_intensity() const;
};

inline double Layer::flops() const {
  const double out_elems = static_cast<double>(output.elements());
  const double in_elems = static_cast<double>(input.elements());
  switch (kind) {
    case LayerKind::kConv2d: {
      const double macs_per_out =
          static_cast<double>(input.channels) / groups * kernel * kernel;
      return 2.0 * out_elems * macs_per_out + (has_bias ? out_elems : 0.0);
    }
    case LayerKind::kDepthwiseConv:
      return 2.0 * out_elems * kernel * kernel +
             (has_bias ? out_elems : 0.0);
    case LayerKind::kFullyConnected:
      return 2.0 * in_elems * output.channels +
             (has_bias ? static_cast<double>(output.channels) : 0.0);
    case LayerKind::kBatchNorm:
      return 2.0 * out_elems;  // fused scale + shift
    case LayerKind::kRelu:
      return out_elems;
    case LayerKind::kHSwish:
      return 4.0 * out_elems;  // x * relu6(x + 3) / 6
    case LayerKind::kMaxPool:
    case LayerKind::kAvgPool:
      return out_elems * kernel * kernel;
    case LayerKind::kGlobalAvgPool:
      return in_elems;
    case LayerKind::kAdd:
      return out_elems;
    case LayerKind::kConcat:
      return 0.0;  // pure data movement
    case LayerKind::kScale:
      return out_elems;
  }
  return 0.0;
}

}  // namespace esm
