#include "nn/graph.hpp"

#include <sstream>

#include "common/error.hpp"
#include "common/strings.hpp"

namespace esm {

void detail::reject_layer(const Layer& layer, std::size_t index,
                          const char* defect) {
  std::ostringstream os;
  os << "layer " << index << " (" << layer_kind_name(layer.kind) << ") has "
     << defect;
  throw_config_error("check_layer", __FILE__, __LINE__, os.str());
}

void LayerGraph::add(Layer layer) {
  check_layer(layer, layers_.size());
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
