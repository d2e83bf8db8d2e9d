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

struct SupernetSpec;

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

// Packed arch code: one mixed-radix digit per unit of a per-unit-uniform
// architecture (every block of a unit alike), the shape the search engine
// explores and the wire grammar spells. Unit 0 is the most significant
// digit. It is the arch's identity for the served cache key and the
// search's per-run memo.

/// Radix of one unit digit: depths x kernels x expansions (1 when the space
/// has no expansion options).
std::uint64_t unit_code_radix(const SupernetSpec& spec);

/// One unit's digit, ((depth - min_depth) * |kernels| + kernel_index) *
/// |expansions| + expansion_index, from the indices of its kernel and
/// expansion options (expansion_index 0 when the space has none). Throws
/// esm::ConfigError when a value is outside the space.
std::uint64_t unit_code_digit(const SupernetSpec& spec, int depth,
                              int kernel_index, int expansion_index);

/// True when every architecture of the space has a 64-bit code:
/// unit_code_radix(spec) ^ num_units <= 2^64 - 1.
bool uniform_arch_code_fits(const SupernetSpec& spec);

/// The packed code of `arch`. Kernels and expansions must equal an option
/// exactly, and in a space without expansion options the expansion must be
/// 1.0, so two archs share a code exactly when they share to_string().
/// Throws esm::ConfigError for a unit whose blocks differ and for a kind,
/// unit count, depth, kernel or expansion outside the space; the caller
/// checks uniform_arch_code_fits once.
std::uint64_t uniform_arch_code(const SupernetSpec& spec,
                                const ArchConfig& arch);

}  // namespace esm
