#include "nn/layer.hpp"

#include "common/error.hpp"

namespace esm {
namespace {
constexpr double kBytesPerElement = 4.0;  // fp32 activations and weights
}

const char* layer_kind_name(LayerKind kind) {
  switch (kind) {
    case LayerKind::kConv2d: return "conv2d";
    case LayerKind::kDepthwiseConv: return "dwconv";
    case LayerKind::kFullyConnected: return "fc";
    case LayerKind::kBatchNorm: return "batchnorm";
    case LayerKind::kRelu: return "relu";
    case LayerKind::kHSwish: return "hswish";
    case LayerKind::kMaxPool: return "maxpool";
    case LayerKind::kAvgPool: return "avgpool";
    case LayerKind::kGlobalAvgPool: return "gap";
    case LayerKind::kAdd: return "add";
    case LayerKind::kConcat: return "concat";
    case LayerKind::kScale: return "scale";
  }
  return "unknown";
}

double Layer::params() const {
  switch (kind) {
    case LayerKind::kConv2d: {
      const double weights = static_cast<double>(output.channels) *
                             input.channels / groups * kernel * kernel;
      return weights + (has_bias ? output.channels : 0.0);
    }
    case LayerKind::kDepthwiseConv: {
      const double weights =
          static_cast<double>(output.channels) * kernel * kernel;
      return weights + (has_bias ? output.channels : 0.0);
    }
    case LayerKind::kFullyConnected: {
      const double weights = static_cast<double>(input.elements()) *
                             output.channels;
      return weights + (has_bias ? output.channels : 0.0);
    }
    case LayerKind::kBatchNorm:
      return 2.0 * output.channels;  // gamma + beta
    default:
      return 0.0;
  }
}

double Layer::read_bytes() const {
  const double in_bytes =
      static_cast<double>(input.elements()) * kBytesPerElement;
  const double aux_bytes =
      static_cast<double>(aux_input.elements()) * kBytesPerElement;
  const double weight_bytes = params() * kBytesPerElement;
  return in_bytes + aux_bytes + weight_bytes;
}

double Layer::write_bytes() const {
  return static_cast<double>(output.elements()) * kBytesPerElement;
}

double Layer::arithmetic_intensity() const {
  const double bytes = memory_bytes();
  if (bytes <= 0.0) return 0.0;
  return flops() / bytes;
}

}  // namespace esm
