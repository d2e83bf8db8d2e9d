// Architecture configurations: one point of a layer/block-wise OFA-style
// search space built on a fixed macro-architecture (paper §II-C, Fig. 7a).
//
// A configuration is a list of units; each unit holds a list of blocks; each
// block carries the searchable per-block features (kernel size and
// width-expansion ratio). For DenseNet spaces the kernel is chosen per unit
// and replicated to every block of that unit, and the expansion ratio is
// unused (fixed at 1).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace esm {

/// Which supernet family a configuration belongs to.
enum class SupernetKind {
  kResNet,
  kMobileNetV3,
  kDenseNet,
};

/// Human-readable supernet name ("ResNet", ...).
const char* supernet_kind_name(SupernetKind kind);

/// Searchable per-block features.
struct BlockConfig {
  int kernel = 3;           ///< spatial kernel size of the block's main conv
  double expansion = 1.0;   ///< width-expansion ratio (1.0 when unused)

  bool operator==(const BlockConfig&) const = default;
};

/// One unit (stage): a stack of blocks sharing the stage width.
struct UnitConfig {
  std::vector<BlockConfig> blocks;

  int depth() const { return static_cast<int>(blocks.size()); }
  bool operator==(const UnitConfig&) const = default;
};

/// A complete architecture configuration.
struct ArchConfig {
  SupernetKind kind = SupernetKind::kResNet;
  std::vector<UnitConfig> units;

  /// Total number of blocks over all units (the paper's depth dimension
  /// along which datasets are binned).
  int total_blocks() const;

  /// Per-unit depths, e.g. [3, 5, 1, 7].
  std::vector<int> depths() const;

  /// Compact string, e.g. "ResNet[d=3:k5e0.67,...|...]", stable across runs
  /// (used as a hash key by profilers and tests).
  std::string to_string() const;

  bool operator==(const ArchConfig&) const = default;
};

}  // namespace esm
