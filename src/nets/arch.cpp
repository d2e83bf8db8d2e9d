#include "nets/arch.hpp"

#include <charconv>
#include <string_view>

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
      // Sign, 309 integer digits, point and 3 decimals bound any double.
      char buf[314];
      out.append(buf, std::to_chars(buf, buf + sizeof(buf),
                                    u.blocks[bi].expansion,
                                    std::chars_format::fixed, 3)
                          .ptr);
    }
  }
  out += ']';
  return out;
}

}  // namespace esm
