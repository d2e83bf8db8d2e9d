// MobileNetV3-space lowering: 3x3 stem, 4 stages of inverted-residual
// blocks (1x1 expand -> depthwise KxK -> squeeze-and-excitation -> 1x1
// project) with hard-swish activations, GAP + FC head. The searchable
// expansion ratio scales the hidden width off a base expansion of 6; the
// searchable kernel applies to the depthwise conv.
#include "nets/build_detail.hpp"
#include "nets/builder.hpp"

namespace esm {

using detail::add_binary;
using detail::add_conv_bn;
using detail::add_fc;
using detail::add_head;
using detail::add_unary;
using detail::make_layer;
using detail::scaled_channels;

namespace {

constexpr double kBaseExpansion = 6.0;
constexpr int kSeReduction = 4;

/// Appends a squeeze-and-excitation module operating on `shape`.
template <class G>
void add_squeeze_excite(G& g, TensorShape shape) {
  const TensorShape pooled{shape.channels, 1, 1};
  const int squeezed = std::max(1, shape.channels / kSeReduction);
  g.add(make_layer(LayerKind::kGlobalAvgPool, shape, pooled));
  add_unary(g, LayerKind::kRelu, add_fc(g, shape.channels, squeezed));
  (void)add_fc(g, squeezed, shape.channels);
  add_binary(g, LayerKind::kScale, shape, pooled, shape);
}

/// Appends one inverted-residual block; returns its output shape.
template <class G>
TensorShape add_inverted_residual(G& g, TensorShape in,
                                  int out_channels, const BlockConfig& block,
                                  int stride) {
  const int hidden =
      scaled_channels(out_channels * kBaseExpansion, block.expansion);
  TensorShape x = add_conv_bn(g, in, hidden, 1, 1, LayerKind::kHSwish);
  x = add_conv_bn(g, x, hidden, block.kernel, stride, LayerKind::kHSwish,
                  /*depthwise=*/true);
  add_squeeze_excite(g, x);
  x = add_conv_bn(g, x, out_channels, 1, 1, detail::kNoActivation);
  if (stride == 1 && in.channels == out_channels) {
    add_binary(g, LayerKind::kAdd, x, x, x);
  }
  return x;
}

}  // namespace

template <class G>
void detail::lower_mobilenet_v3(G& g, const SupernetSpec& spec,
                                const ArchConfig& arch) {
  TensorShape x{spec.input_channels, spec.input_resolution,
                spec.input_resolution};
  x = add_conv_bn(g, x, spec.stem_width, 3, 2, LayerKind::kHSwish);

  for (std::size_t ui = 0; ui < arch.units.size(); ++ui) {
    const UnitConfig& unit = arch.units[ui];
    const int width = spec.stage_widths[ui];
    for (std::size_t bi = 0; bi < unit.blocks.size(); ++bi) {
      // Every unit downsamples at its first block (112 -> 56/28/14/7).
      const int stride = bi == 0 ? 2 : 1;
      x = add_inverted_residual(g, x, width, unit.blocks[bi], stride);
    }
  }

  add_head(g, x, spec.num_classes);
}

template void detail::lower_mobilenet_v3(LayerGraph&, const SupernetSpec&,
                                         const ArchConfig&);
template void detail::lower_mobilenet_v3(detail::FlopsSink&,
                                         const SupernetSpec&,
                                         const ArchConfig&);

LayerGraph build_mobilenet_v3(const SupernetSpec& spec,
                              const ArchConfig& arch) {
  LayerGraph g(arch.to_string());
  detail::lower_mobilenet_v3(g, spec, arch);
  return g;
}

}  // namespace esm
