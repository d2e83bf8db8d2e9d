#include "nets/builder.hpp"

#include "common/error.hpp"
#include "nets/build_detail.hpp"

namespace esm {

namespace {

/// Runs the lowering of `spec`'s space into `g`; `arch` is already
/// validated.
template <class G>
void lower(G& g, const SupernetSpec& spec, const ArchConfig& arch) {
  switch (spec.kind) {
    case SupernetKind::kResNet: return detail::lower_resnet(g, spec, arch);
    case SupernetKind::kMobileNetV3:
      return detail::lower_mobilenet_v3(g, spec, arch);
    case SupernetKind::kDenseNet: return detail::lower_densenet(g, spec, arch);
  }
  throw ConfigError("unknown supernet kind");
}

}  // namespace

LayerGraph build_graph(const SupernetSpec& spec, const ArchConfig& arch) {
  spec.validate(arch);
  LayerGraph g(arch.to_string());
  lower(g, spec, arch);
  return g;
}

double graph_flops(const SupernetSpec& spec, const ArchConfig& arch) {
  spec.validate(arch);
  detail::FlopsSink sink;
  lower(sink, spec, arch);
  return sink.total_flops();
}

}  // namespace esm
