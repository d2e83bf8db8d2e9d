#include "nn/graph.hpp"

#include <sstream>

#include "common/error.hpp"
#include "common/strings.hpp"

namespace esm {

void LayerGraph::add(Layer layer) {
  ESM_REQUIRE(layer.input.channels > 0 && layer.input.height > 0 &&
                  layer.input.width > 0,
              "layer " << layers_.size() << " (" << layer_kind_name(layer.kind)
                       << ") has a non-positive input shape");
  ESM_REQUIRE(layer.output.channels > 0 && layer.output.height > 0 &&
                  layer.output.width > 0,
              "layer " << layers_.size() << " (" << layer_kind_name(layer.kind)
                       << ") has a non-positive output shape");
  ESM_REQUIRE(layer.kernel >= 1 && layer.stride >= 1 && layer.groups >= 1,
              "layer " << layers_.size() << " (" << layer_kind_name(layer.kind)
                       << ") has invalid conv parameters");
  layers_.push_back(std::move(layer));
}

double LayerGraph::total_flops() const {
  double acc = 0.0;
  for (const Layer& l : layers_) acc += l.flops();
  return acc;
}

double LayerGraph::total_params() const {
  double acc = 0.0;
  for (const Layer& l : layers_) acc += l.params();
  return acc;
}

double LayerGraph::total_memory_bytes() const {
  double acc = 0.0;
  for (const Layer& l : layers_) acc += l.memory_bytes();
  return acc;
}

std::size_t LayerGraph::count_kind(LayerKind kind) const {
  std::size_t n = 0;
  for (const Layer& l : layers_) {
    if (l.kind == kind) ++n;
  }
  return n;
}

std::string LayerGraph::summary() const {
  std::ostringstream os;
  os << "LayerGraph '" << name_ << "' (" << layers_.size() << " layers, "
     << format_scientific(total_flops()) << " FLOPs, "
     << format_scientific(total_params()) << " params)\n";
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    const Layer& l = layers_[i];
    os << "  " << pad_right(std::to_string(i), 6)
       << pad_right(layer_kind_name(l.kind), 10)
       << l.input.channels << 'x' << l.input.height << 'x' << l.input.width
       << " -> " << l.output.channels << 'x' << l.output.height << 'x'
       << l.output.width << "  k=" << l.kernel << " s=" << l.stride
       << "  flops=" << format_scientific(l.flops()) << '\n';
  }
  return os.str();
}

}  // namespace esm
