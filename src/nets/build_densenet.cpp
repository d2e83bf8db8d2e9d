// DenseNet-space lowering: 7x7 stem + max-pool, 5 dense blocks whose layers
// concatenate their growth-rate output onto the running feature map, with
// 2x-compressing transitions (1x1 conv + 2x2 average pool) between blocks,
// and a BN + GAP + FC head. The searchable per-unit kernel applies to every
// composite layer's spatial conv of that unit (paper Table I footnote).
#include "nets/build_detail.hpp"
#include "nets/builder.hpp"

namespace esm {

using detail::add_binary;
using detail::add_conv_bn;
using detail::add_head;
using detail::add_pool;
using detail::add_unary;

namespace {

constexpr int kBottleneckFactor = 4;  // 1x1 widens to 4 * growth_rate

/// Appends one DenseNet composite layer (BN-ReLU-1x1 -> BN-ReLU-KxK) and the
/// concatenation that appends its output to the running features.
template <class G>
TensorShape add_dense_layer(G& g, TensorShape in, int growth_rate,
                            int kernel) {
  add_unary(g, LayerKind::kBatchNorm, in);
  add_unary(g, LayerKind::kRelu, in);
  const int bottleneck = kBottleneckFactor * growth_rate;
  TensorShape x = add_conv_bn(g, in, bottleneck, 1, 1, LayerKind::kRelu);
  x = add_conv_bn(g, x, growth_rate, kernel, 1, detail::kNoActivation);

  // Input: the freshly produced growth_rate channels; second operand: the
  // running feature map being extended.
  const TensorShape out{in.channels + growth_rate, in.height, in.width};
  add_binary(g, LayerKind::kConcat, x, in, out);
  return out;
}

/// Appends a compressive transition (1x1 conv halving channels + avg pool).
template <class G>
TensorShape add_transition(G& g, TensorShape in) {
  const int compressed = std::max(1, in.channels / 2);
  const TensorShape x =
      add_conv_bn(g, in, compressed, 1, 1, LayerKind::kRelu);
  return add_pool(g, LayerKind::kAvgPool, x, 2, 2);
}

}  // namespace

template <class G>
void detail::lower_densenet(G& g, const SupernetSpec& spec,
                            const ArchConfig& arch) {
  TensorShape x{spec.input_channels, spec.input_resolution,
                spec.input_resolution};
  x = add_conv_bn(g, x, spec.stem_width, 7, 2, LayerKind::kRelu);
  x = add_pool(g, LayerKind::kMaxPool, x, 3, 2);

  for (std::size_t ui = 0; ui < arch.units.size(); ++ui) {
    const UnitConfig& unit = arch.units[ui];
    const int kernel = unit.blocks.front().kernel;  // one kernel per unit
    for (std::size_t bi = 0; bi < unit.blocks.size(); ++bi) {
      x = add_dense_layer(g, x, spec.growth_rate, kernel);
    }
    if (ui + 1 < arch.units.size()) x = add_transition(g, x);
  }

  add_unary(g, LayerKind::kBatchNorm, x);
  add_unary(g, LayerKind::kRelu, x);
  add_head(g, x, spec.num_classes);
}

template void detail::lower_densenet(LayerGraph&, const SupernetSpec&,
                                     const ArchConfig&);
template void detail::lower_densenet(detail::FlopsSink&,
                                     const SupernetSpec&,
                                     const ArchConfig&);

LayerGraph build_densenet(const SupernetSpec& spec, const ArchConfig& arch) {
  LayerGraph g(arch.to_string());
  detail::lower_densenet(g, spec, arch);
  return g;
}

}  // namespace esm
