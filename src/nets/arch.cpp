#include "nets/arch.hpp"

#include <bit>
#include <charconv>
#include <limits>
#include <string_view>

#include "common/error.hpp"
#include "nets/supernet.hpp"

namespace esm {

namespace {

/// Characters "%d" prints for `value`.
std::size_t decimal_digits(int value) {
  std::size_t n = value < 0 ? 2 : 1;
  for (long long v = value < 0 ? -static_cast<long long>(value) : value;
       v >= 10; v /= 10) {
    ++n;
  }
  return n;
}

void append_int(std::string& out, int value) {
  char buf[12];
  out.append(buf, std::to_chars(buf, buf + sizeof(buf), value).ptr);
}

}  // namespace

const char* supernet_kind_name(SupernetKind kind) {
  switch (kind) {
    case SupernetKind::kResNet: return "ResNet";
    case SupernetKind::kMobileNetV3: return "MobileNetV3";
    case SupernetKind::kDenseNet: return "DenseNet";
  }
  return "unknown";
}

int ArchConfig::total_blocks() const {
  int total = 0;
  for (const UnitConfig& u : units) total += u.depth();
  return total;
}

std::vector<int> ArchConfig::depths() const {
  std::vector<int> d;
  d.reserve(units.size());
  for (const UnitConfig& u : units) d.push_back(u.depth());
  return d;
}

std::string ArchConfig::to_string() const {
  // The bytes are the proxy's hash input, the served cache key and the
  // journal CRC input: "%d" kernels and depths, "%.3f" expansions (to_chars
  // fixed is correctly rounded, as glibc's printf is). Servers keep these
  // strings, so reserve the exact length for expansions in [0, 10).
  const std::string_view name = supernet_kind_name(kind);
  std::size_t length = name.size() + 1 + (units.empty() ? 1 : units.size());
  for (const UnitConfig& u : units) {
    length += 3 + decimal_digits(u.depth()) + u.blocks.size() * 8 -
              (u.blocks.empty() ? 0 : 1);
    for (const BlockConfig& b : u.blocks) length += decimal_digits(b.kernel);
  }
  std::string out;
  out.reserve(length);
  // Sign, 309 integer digits, point and 3 decimals bound any double.
  char expansion_text[314];
  std::size_t expansion_length = 0;
  std::uint64_t expansion_bits = 0;
  out.append(name);
  out += '[';
  for (std::size_t ui = 0; ui < units.size(); ++ui) {
    if (ui > 0) out += '|';
    const UnitConfig& u = units[ui];
    out += "d=";
    append_int(out, u.depth());
    out += ':';
    for (std::size_t bi = 0; bi < u.blocks.size(); ++bi) {
      if (bi > 0) out += ',';
      out += 'k';
      append_int(out, u.blocks[bi].kernel);
      out += 'e';
      // Archs repeat a handful of expansions, so format each run of
      // bitwise-equal ones once (bitwise, so -0.0 and NaN keep their own
      // text).
      const std::uint64_t bits =
          std::bit_cast<std::uint64_t>(u.blocks[bi].expansion);
      if (expansion_length == 0 || bits != expansion_bits) {
        expansion_bits = bits;
        char* const end = expansion_text + sizeof(expansion_text);
        expansion_length = static_cast<std::size_t>(
            std::to_chars(expansion_text, end, u.blocks[bi].expansion,
                          std::chars_format::fixed, 3)
                .ptr -
            expansion_text);
      }
      out.append(expansion_text, expansion_length);
    }
  }
  out += ']';
  return out;
}

std::uint64_t unit_code_radix(const SupernetSpec& spec) {
  const std::uint64_t depths = static_cast<std::uint64_t>(
      spec.max_blocks_per_unit - spec.min_blocks_per_unit + 1);
  const std::uint64_t expansions =
      spec.expansion_options.empty() ? 1 : spec.expansion_options.size();
  return depths * spec.kernel_options.size() * expansions;
}

std::uint64_t unit_code_digit(const SupernetSpec& spec, int depth,
                              int kernel_index, int expansion_index) {
  const std::size_t expansions =
      spec.expansion_options.empty() ? 1 : spec.expansion_options.size();
  ESM_REQUIRE(depth >= spec.min_blocks_per_unit &&
                  depth <= spec.max_blocks_per_unit,
              "unit depth " << depth << " outside [" << spec.min_blocks_per_unit
                            << ", " << spec.max_blocks_per_unit << "]");
  ESM_REQUIRE(kernel_index >= 0 && static_cast<std::size_t>(kernel_index) <
                                       spec.kernel_options.size(),
              "kernel index " << kernel_index << " outside the space");
  ESM_REQUIRE(expansion_index >= 0 &&
                  static_cast<std::size_t>(expansion_index) < expansions,
              "expansion index " << expansion_index << " outside the space");
  return (static_cast<std::uint64_t>(depth - spec.min_blocks_per_unit) *
              spec.kernel_options.size() +
          static_cast<std::uint64_t>(kernel_index)) *
             expansions +
         static_cast<std::uint64_t>(expansion_index);
}

bool uniform_arch_code_fits(const SupernetSpec& spec) {
  const std::uint64_t radix = unit_code_radix(spec);
  std::uint64_t span = 1;
  for (int u = 0; u < spec.num_units; ++u) {
    if (radix != 0 &&
        span > std::numeric_limits<std::uint64_t>::max() / radix) {
      return false;
    }
    span *= radix;
  }
  return true;
}

std::uint64_t uniform_arch_code(const SupernetSpec& spec,
                                const ArchConfig& arch) {
  ESM_REQUIRE(arch.kind == spec.kind &&
                  arch.units.size() == static_cast<std::size_t>(spec.num_units),
              "architecture is not a " << spec.name << " architecture");
  const std::uint64_t radix = unit_code_radix(spec);
  std::uint64_t code = 0;
  for (std::size_t ui = 0; ui < arch.units.size(); ++ui) {
    const std::vector<BlockConfig>& blocks = arch.units[ui].blocks;
    ESM_REQUIRE(!blocks.empty(), "unit " << ui << " has no blocks");
    const BlockConfig& block = blocks.front();
    for (const BlockConfig& b : blocks) {
      ESM_REQUIRE(b == block, "unit " << ui << " mixes block features");
    }
    int kernel_index = -1;
    for (std::size_t i = 0; i < spec.kernel_options.size(); ++i) {
      if (spec.kernel_options[i] == block.kernel) {
        kernel_index = static_cast<int>(i);
      }
    }
    int expansion_index =
        spec.expansion_options.empty() && block.expansion == 1.0 ? 0 : -1;
    for (std::size_t i = 0; i < spec.expansion_options.size(); ++i) {
      if (spec.expansion_options[i] == block.expansion) {
        expansion_index = static_cast<int>(i);
      }
    }
    ESM_REQUIRE(kernel_index >= 0 && expansion_index >= 0,
                "unit " << ui << " kernel " << block.kernel << " expansion "
                        << block.expansion << " is not an option of "
                        << spec.name);
    code = code * radix + unit_code_digit(spec, arch.units[ui].depth(),
                                          kernel_index, expansion_index);
  }
  return code;
}

}  // namespace esm
