// ResNet-space lowering: 7x7 stem, 4 bottleneck stages with searchable
// per-block kernel size and mid-width expansion ratio, residual shortcuts
// with 1x1 projections at stage boundaries, GAP + FC head.
#include "nets/build_detail.hpp"
#include "nets/builder.hpp"

namespace esm {

using detail::add_binary;
using detail::add_conv_bn;
using detail::add_head;
using detail::add_pool;
using detail::add_unary;
using detail::scaled_channels;

namespace {

/// Appends one bottleneck block. The searchable expansion ratio scales the
/// bottleneck's middle width (base out/4, as in OFA-ResNet); the searchable
/// kernel applies to the middle spatial conv.
template <class G>
TensorShape add_bottleneck(G& g, TensorShape in, int out_channels,
                           const BlockConfig& block, int stride) {
  const int mid = scaled_channels(out_channels / 4.0, block.expansion);
  TensorShape x = add_conv_bn(g, in, mid, 1, 1, LayerKind::kRelu);
  x = add_conv_bn(g, x, mid, block.kernel, stride, LayerKind::kRelu);
  x = add_conv_bn(g, x, out_channels, 1, 1, detail::kNoActivation);
  const bool needs_projection =
      in.channels != out_channels || stride != 1;
  if (needs_projection) {
    // Shortcut projection conv runs on the block input.
    (void)add_conv_bn(g, in, out_channels, 1, stride, detail::kNoActivation);
  }
  add_binary(g, LayerKind::kAdd, x, x, x);
  add_unary(g, LayerKind::kRelu, x);
  return x;
}

}  // namespace

template <class G>
void detail::lower_resnet(G& g, const SupernetSpec& spec,
                          const ArchConfig& arch) {
  TensorShape x{spec.input_channels, spec.input_resolution,
                spec.input_resolution};
  x = add_conv_bn(g, x, spec.stem_width, 7, 2, LayerKind::kRelu);
  x = add_pool(g, LayerKind::kMaxPool, x, 3, 2);

  for (std::size_t ui = 0; ui < arch.units.size(); ++ui) {
    const UnitConfig& unit = arch.units[ui];
    const int width = spec.stage_widths[ui];
    for (std::size_t bi = 0; bi < unit.blocks.size(); ++bi) {
      // Downsampling happens at the first block of every unit but the first.
      const int stride = (bi == 0 && ui > 0) ? 2 : 1;
      x = add_bottleneck(g, x, width, unit.blocks[bi], stride);
    }
  }

  add_head(g, x, spec.num_classes);
}

template void detail::lower_resnet(LayerGraph&, const SupernetSpec&,
                                   const ArchConfig&);
template void detail::lower_resnet(detail::FlopsSink&,
                                   const SupernetSpec&,
                                   const ArchConfig&);

LayerGraph build_resnet(const SupernetSpec& spec, const ArchConfig& arch) {
  LayerGraph g(arch.to_string());
  detail::lower_resnet(g, spec, arch);
  return g;
}

}  // namespace esm
