#include "serve/protocol.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <sstream>

#include "common/error.hpp"
#include "common/strings.hpp"

namespace esm::serve {
namespace {

std::string sanitize_one_line(std::string s) {
  std::replace(s.begin(), s.end(), '\n', ' ');
  std::replace(s.begin(), s.end(), '\r', ' ');
  return s;
}

/// A NUL-terminated copy of a token for the strto* family, so they read
/// exactly the token's bytes: on the stack for any token a valid arch
/// holds, on the heap only for longer ones.
class CToken {
 public:
  explicit CToken(std::string_view token) {
    if (token.size() < sizeof(stack_)) {
      std::memcpy(stack_, token.data(), token.size());
      stack_[token.size()] = '\0';
    } else {
      heap_.assign(token);
      text_ = heap_.c_str();
    }
  }
  CToken(const CToken&) = delete;
  CToken& operator=(const CToken&) = delete;

  const char* c_str() const { return text_; }

 private:
  char stack_[64];
  std::string heap_;
  const char* text_ = stack_;
};

/// Parses a base-10 integer covering the whole token, as strtol reads it.
bool parse_int_token(std::string_view token, long& out) {
  if (token.empty()) return false;
  const CToken text(token);
  char* end = nullptr;
  const long v = std::strtol(text.c_str(), &end, 10);
  if (end == nullptr || *end != '\0') return false;
  out = v;
  return true;
}

/// One unit token of a wire arch as written, plus its choice under the
/// space: the indices of its kernel and (snapped) expansion options.
struct WireUnit {
  int depth = 0;
  int kernel = 0;
  double expansion = 1.0;
  int kernel_index = -1;     ///< -1 when the kernel is not an option
  int expansion_index = 0;   ///< 0 when the space has no expansion options
};

/// The one tokenizer of the wire arch grammar. Walks the comma-separated
/// unit tokens of `text` in place (a trailing ',' adds no unit) and hands
/// each one, parsed, to `emit` in order. Throws esm::ConfigError naming the
/// first malformed token; membership in the space (unit count, depth
/// range, kernel option) is the caller's to check, after every token
/// parsed.
template <typename Emit>
void scan_arch(const SupernetSpec& spec, std::string_view text, Emit&& emit) {
  ESM_REQUIRE(text.find_first_not_of(" \t") != std::string::npos,
              "empty architecture request");
  const int default_kernel = spec.kernel_options.front();
  const double default_expansion =
      spec.expansion_options.empty() ? 1.0 : spec.expansion_options.front();
  const auto kernel_index = [&](int kernel) {
    for (std::size_t i = 0; i < spec.kernel_options.size(); ++i) {
      if (spec.kernel_options[i] == kernel) return static_cast<int>(i);
    }
    return -1;
  };

  std::size_t next = 0;
  while (next < text.size()) {
    const std::size_t comma = text.find(',', next);
    std::string_view token = text.substr(
        next, comma == std::string_view::npos ? comma : comma - next);
    next = comma == std::string_view::npos ? text.size() : comma + 1;
    // Trim surrounding whitespace so "3, 5, 2, 7" parses.
    const std::size_t first = token.find_first_not_of(" \t");
    const std::size_t last = token.find_last_not_of(" \t");
    ESM_REQUIRE(first != std::string::npos,
                "empty unit token in architecture request '" << text << "'");
    token = token.substr(first, last - first + 1);

    std::string_view depth_text = token;
    WireUnit unit;
    unit.kernel = default_kernel;
    unit.expansion = default_expansion;
    const std::size_t colon = token.find(':');
    if (colon != std::string_view::npos) {
      depth_text = token.substr(0, colon);
      const std::string_view features = token.substr(colon + 1);
      ESM_REQUIRE(!features.empty() && features[0] == 'k',
                  "unit features must start with 'k': '" << token << "'");
      const std::size_t e_pos = features.find('e');
      const std::string_view kernel_text =
          features.substr(1, e_pos == std::string_view::npos ? e_pos
                                                             : e_pos - 1);
      long k = 0;
      ESM_REQUIRE(parse_int_token(kernel_text, k),
                  "'" << kernel_text << "' is not a kernel size in '" << token
                      << "'");
      unit.kernel = static_cast<int>(k);
      if (e_pos != std::string_view::npos) {
        const std::string_view expansion_text = features.substr(e_pos + 1);
        const CToken expansion_c(expansion_text);
        char* end = nullptr;
        const double e = std::strtod(expansion_c.c_str(), &end);
        ESM_REQUIRE(end != nullptr && *end == '\0' && !expansion_text.empty(),
                    "'" << expansion_text << "' is not an expansion in '"
                        << token << "'");
        // Snap to the nearest spec option so "0.667" selects 2/3 exactly;
        // spec.validate compares at 1e-9, far tighter than users type.
        double best = e;
        double best_gap = 1e9;
        for (std::size_t i = 0; i < spec.expansion_options.size(); ++i) {
          const double gap = std::abs(spec.expansion_options[i] - e);
          if (gap < best_gap) {
            best_gap = gap;
            best = spec.expansion_options[i];
            unit.expansion_index = static_cast<int>(i);
          }
        }
        ESM_REQUIRE(spec.expansion_options.empty() || best_gap < 1e-2,
                    "expansion " << e << " is not close to any option of "
                                 << spec.name);
        unit.expansion = best;
      }
    }

    long depth = 0;
    ESM_REQUIRE(parse_int_token(depth_text, depth),
                "'" << depth_text << "' is not a depth");
    ESM_REQUIRE(depth > 0 && depth <= 1000,
                "depth " << depth << " out of range in '" << token << "'");
    unit.depth = static_cast<int>(depth);
    unit.kernel_index = kernel_index(unit.kernel);
    emit(unit);
  }
}

/// Splits a predict_batch payload on ';' (a trailing ';' adds no element)
/// and parses each element into `archs`, prefixing an element's error with
/// its 1-based index.
template <typename T, typename Parse>
void parse_batch(std::string_view payload, std::size_t max_archs,
                 std::vector<T>& archs, Parse&& parse) {
  std::size_t index = 0;
  std::size_t next = 0;
  while (next < payload.size()) {
    const std::size_t semicolon = payload.find(';', next);
    const std::string_view element = payload.substr(
        next, semicolon == std::string_view::npos ? semicolon
                                                  : semicolon - next);
    next = semicolon == std::string_view::npos ? payload.size()
                                               : semicolon + 1;
    ++index;
    ESM_REQUIRE(archs.size() < max_archs,
                "batch exceeds the " << max_archs << "-architecture limit");
    try {
      archs.push_back(parse(element));
    } catch (const ConfigError& e) {
      throw ConfigError("batch element " + std::to_string(index) + ": " +
                        e.what());
    }
  }
  ESM_REQUIRE(!archs.empty(), "empty architecture batch");
}

void append_varint(std::string& out, std::uint64_t value) {
  while (value >= 0x80) {
    out += static_cast<char>((value & 0x7F) | 0x80);
    value >>= 7;
  }
  out += static_cast<char>(value);
}

}  // namespace

ParsedRequest split_request(const std::string& line) {
  std::string trimmed = line;
  if (!trimmed.empty() && trimmed.back() == '\r') trimmed.pop_back();
  ParsedRequest request;
  const std::size_t space = trimmed.find(' ');
  if (space == std::string::npos) {
    request.verb = trimmed;
  } else {
    request.verb = trimmed.substr(0, space);
    request.payload = trimmed.substr(space + 1);
  }
  return request;
}

RoutedPayload split_model_key(std::string_view payload) {
  RoutedPayload routed;
  routed.rest = payload;
  if (payload.empty()) return routed;
  const char first = payload.front();
  const bool keyed = (first >= 'A' && first <= 'Z') ||
                     (first >= 'a' && first <= 'z') || first == '_';
  if (!keyed) return routed;
  const std::size_t space = payload.find(' ');
  routed.model = payload.substr(0, space);
  routed.rest = space == std::string_view::npos ? std::string_view()
                                                : payload.substr(space + 1);
  return routed;
}

bool extract_deadline_token(std::string& payload, std::uint32_t& deadline_ms,
                            std::string& error) {
  constexpr char kPrefix[] = "deadline=";
  constexpr std::size_t kPrefixLen = sizeof(kPrefix) - 1;
  if (payload.compare(0, kPrefixLen, kPrefix) != 0) return true;
  const std::size_t space = payload.find(' ');
  const std::string token = payload.substr(
      kPrefixLen, space == std::string::npos ? std::string::npos
                                             : space - kPrefixLen);
  long value = 0;
  if (!parse_int_token(token, value) || value <= 0 ||
      value > 0xFFFFFFFFl) {
    error = "deadline token '" + token +
            "' is not a positive millisecond count";
    return false;
  }
  deadline_ms = static_cast<std::uint32_t>(value);
  payload.erase(0, space == std::string::npos ? payload.size() : space + 1);
  return true;
}

std::string format_ok(const std::string& verb, const std::string& payload) {
  std::string line = std::string(kResponsePrefix) + " ok " + verb;
  if (!payload.empty()) line += " " + payload;
  return line;
}

std::string format_error(ErrorCode code, const std::string& detail) {
  return std::string(kResponsePrefix) + " err " + to_string(code) + " " +
         sanitize_one_line(detail);
}

std::string format_reply_esm1(const Reply& reply) {
  return reply.ok ? format_ok(reply.verb, reply.payload)
                  : format_error(reply.code, reply.payload);
}

bool parse_response(const std::string& line, ParsedResponse& out) {
  std::istringstream tokens(line);
  std::string prefix, status;
  if (!(tokens >> prefix >> status) || prefix != kResponsePrefix) return false;
  if (status != "ok" && status != "err") return false;
  out.ok = status == "ok";
  if (!(tokens >> out.verb_or_code)) return false;
  std::getline(tokens, out.payload);
  if (!out.payload.empty() && out.payload.front() == ' ')
    out.payload.erase(out.payload.begin());
  return true;
}

std::map<std::string, std::string> parse_kv_payload(
    const std::string& payload) {
  std::map<std::string, std::string> kv;
  std::istringstream tokens(payload);
  std::string token;
  while (tokens >> token) {
    const std::size_t eq = token.find('=');
    if (eq == std::string::npos) continue;
    kv[token.substr(0, eq)] = token.substr(eq + 1);
  }
  return kv;
}

std::string format_latency(double value_ms) { return format_g17(value_ms); }

ArchConfig parse_arch_request(const SupernetSpec& spec,
                              std::string_view text) {
  ArchConfig arch;
  arch.kind = spec.kind;
  arch.units.reserve(static_cast<std::size_t>(spec.num_units));
  scan_arch(spec, text, [&](const WireUnit& wire) {
    UnitConfig unit;
    unit.blocks.assign(static_cast<std::size_t>(wire.depth),
                       {wire.kernel, wire.expansion});
    arch.units.push_back(std::move(unit));
  });
  spec.validate(arch);
  return arch;
}

std::vector<ArchConfig> parse_arch_batch(const SupernetSpec& spec,
                                         std::string_view payload,
                                         std::size_t max_archs) {
  std::vector<ArchConfig> archs;
  parse_batch(payload, max_archs, archs, [&](std::string_view element) {
    return parse_arch_request(spec, element);
  });
  return archs;
}

std::string arch_cache_key(const SupernetSpec& spec, std::uint64_t generation,
                           std::string_view text) {
  const std::uint64_t kernels = spec.kernel_options.size();
  const std::uint64_t expansions =
      spec.expansion_options.empty() ? 1 : spec.expansion_options.size();
  std::string key;
  append_varint(key, generation);
  int units = 0;
  bool member = true;
  scan_arch(spec, text, [&](const WireUnit& wire) {
    // Once a unit falls outside the space (or past its unit count) the
    // arch is rejected anyway; stop growing the key.
    ++units;
    member = member && units <= spec.num_units &&
             wire.depth >= spec.min_blocks_per_unit &&
             wire.depth <= spec.max_blocks_per_unit && wire.kernel_index >= 0;
    if (!member) return;
    append_varint(
        key,
        (static_cast<std::uint64_t>(wire.depth - spec.min_blocks_per_unit) *
             kernels +
         static_cast<std::uint64_t>(wire.kernel_index)) *
                expansions +
            static_cast<std::uint64_t>(wire.expansion_index));
  });
  if (!member || units != spec.num_units) {
    // Every token parsed but the arch is outside the space: the ArchConfig
    // layer raises spec.validate's error, word for word.
    parse_arch_request(spec, text);
    ESM_CHECK(false, "architecture outside " << spec.name
                                             << " passed validation");
  }
  return key;
}

std::vector<KeyedArch> arch_cache_keys(const SupernetSpec& spec,
                                       std::uint64_t generation,
                                       std::string_view payload,
                                       std::size_t max_archs) {
  std::vector<KeyedArch> keys;
  parse_batch(payload, max_archs, keys, [&](std::string_view element) {
    return KeyedArch{arch_cache_key(spec, generation, element), element};
  });
  return keys;
}

}  // namespace esm::serve
