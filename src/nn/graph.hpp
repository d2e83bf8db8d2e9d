// Linearized layer graph: the execution trace of one concrete network.
#pragma once

#include <string>
#include <vector>

#include "nn/layer.hpp"

namespace esm {

namespace detail {
/// Cold path of check_layer: throws the esm::ConfigError for layer `index`,
/// where `defect` says what is wrong with it.
[[noreturn]] void reject_layer(const Layer& layer, std::size_t index,
                               const char* defect);
}  // namespace detail

/// Throws esm::ConfigError unless `layer`, at position `index` of its
/// graph, has positive shapes and valid conv parameters. Every lowering
/// sink runs it on every layer it receives, so the passing path is inline.
inline void check_layer(const Layer& layer, std::size_t index) {
  const TensorShape& in = layer.input;
  const TensorShape& out = layer.output;
  if (in.channels <= 0 || in.height <= 0 || in.width <= 0) {
    detail::reject_layer(layer, index, "a non-positive input shape");
  }
  if (out.channels <= 0 || out.height <= 0 || out.width <= 0) {
    detail::reject_layer(layer, index, "a non-positive output shape");
  }
  if (layer.kernel < 1 || layer.stride < 1 || layer.groups < 1) {
    detail::reject_layer(layer, index, "invalid conv parameters");
  }
}

/// Execution-ordered sequence of layers with aggregate analysis.
class LayerGraph {
 public:
  LayerGraph() = default;
  explicit LayerGraph(std::string name) : name_(std::move(name)) {}

  /// Appends a layer after check_layer(). The graph's running output shape
  /// is advanced by the builders, not enforced here (concat/add have two
  /// inputs).
  void add(Layer layer);

  const std::string& name() const { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }

  const std::vector<Layer>& layers() const { return layers_; }
  std::size_t size() const { return layers_.size(); }
  bool empty() const { return layers_.empty(); }
  const Layer& operator[](std::size_t i) const { return layers_[i]; }

  /// Total multiply-accumulate FLOPs over all layers.
  double total_flops() const;

  /// Total trainable parameters.
  double total_params() const;

  /// Total worst-case memory traffic in bytes.
  double total_memory_bytes() const;

  /// Number of layers of a given kind.
  std::size_t count_kind(LayerKind kind) const;

  /// Multi-line human-readable dump (one layer per line).
  std::string summary() const;

 private:
  std::string name_;
  std::vector<Layer> layers_;
};

}  // namespace esm
