#include "serve/protocol.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "common/error.hpp"

namespace esm::serve {
namespace {

std::string sanitize_one_line(std::string s) {
  std::replace(s.begin(), s.end(), '\n', ' ');
  std::replace(s.begin(), s.end(), '\r', ' ');
  return s;
}

/// Parses a base-10 integer covering the whole token.
bool parse_int_token(const std::string& token, long& out) {
  if (token.empty()) return false;
  char* end = nullptr;
  const long v = std::strtol(token.c_str(), &end, 10);
  if (end == nullptr || *end != '\0') return false;
  out = v;
  return true;
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

RoutedPayload split_model_key(const std::string& payload) {
  RoutedPayload routed;
  routed.rest = payload;
  if (payload.empty()) return routed;
  const char first = payload.front();
  const bool keyed = (first >= 'A' && first <= 'Z') ||
                     (first >= 'a' && first <= 'z') || first == '_';
  if (!keyed) return routed;
  const std::size_t space = payload.find(' ');
  if (space == std::string::npos) {
    routed.model = payload;
    routed.rest.clear();
  } else {
    routed.model = payload.substr(0, space);
    routed.rest = payload.substr(space + 1);
  }
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

std::string format_latency(double value_ms) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value_ms);
  return buf;
}

ArchConfig parse_arch_request(const SupernetSpec& spec,
                              const std::string& text) {
  ESM_REQUIRE(text.find_first_not_of(" \t") != std::string::npos,
              "empty architecture request");
  const int default_kernel = spec.kernel_options.front();
  const double default_expansion =
      spec.expansion_options.empty() ? 1.0 : spec.expansion_options.front();

  ArchConfig arch;
  arch.kind = spec.kind;
  std::istringstream units(text);
  std::string token;
  while (std::getline(units, token, ',')) {
    // Trim surrounding whitespace so "3, 5, 2, 7" parses.
    const std::size_t first = token.find_first_not_of(" \t");
    const std::size_t last = token.find_last_not_of(" \t");
    ESM_REQUIRE(first != std::string::npos,
                "empty unit token in architecture request '" << text << "'");
    token = token.substr(first, last - first + 1);

    std::string depth_text = token;
    int kernel = default_kernel;
    double expansion = default_expansion;
    const std::size_t colon = token.find(':');
    if (colon != std::string::npos) {
      depth_text = token.substr(0, colon);
      std::string features = token.substr(colon + 1);
      ESM_REQUIRE(!features.empty() && features[0] == 'k',
                  "unit features must start with 'k': '" << token << "'");
      const std::size_t e_pos = features.find('e');
      std::string kernel_text = features.substr(1, e_pos == std::string::npos
                                                       ? std::string::npos
                                                       : e_pos - 1);
      long k = 0;
      ESM_REQUIRE(parse_int_token(kernel_text, k),
                  "'" << kernel_text << "' is not a kernel size in '" << token
                      << "'");
      kernel = static_cast<int>(k);
      if (e_pos != std::string::npos) {
        const std::string expansion_text = features.substr(e_pos + 1);
        char* end = nullptr;
        const double e = std::strtod(expansion_text.c_str(), &end);
        ESM_REQUIRE(end != nullptr && *end == '\0' && !expansion_text.empty(),
                    "'" << expansion_text << "' is not an expansion in '"
                        << token << "'");
        // Snap to the nearest spec option so "0.667" selects 2/3 exactly;
        // spec.validate compares at 1e-9, far tighter than users type.
        double best = e;
        double best_gap = 1e9;
        for (double option : spec.expansion_options) {
          const double gap = std::abs(option - e);
          if (gap < best_gap) {
            best_gap = gap;
            best = option;
          }
        }
        ESM_REQUIRE(spec.expansion_options.empty() || best_gap < 1e-2,
                    "expansion " << e << " is not close to any option of "
                                 << spec.name);
        expansion = best;
      }
    }

    long depth = 0;
    ESM_REQUIRE(parse_int_token(depth_text, depth),
                "'" << depth_text << "' is not a depth");
    ESM_REQUIRE(depth > 0 && depth <= 1000,
                "depth " << depth << " out of range in '" << token << "'");
    UnitConfig unit;
    unit.blocks.assign(static_cast<std::size_t>(depth), {kernel, expansion});
    arch.units.push_back(std::move(unit));
  }
  spec.validate(arch);
  return arch;
}

std::vector<ArchConfig> parse_arch_batch(const SupernetSpec& spec,
                                         const std::string& payload,
                                         std::size_t max_archs) {
  std::vector<ArchConfig> archs;
  std::istringstream elements(payload);
  std::string element;
  std::size_t index = 0;
  while (std::getline(elements, element, ';')) {
    ++index;
    ESM_REQUIRE(archs.size() < max_archs,
                "batch exceeds the " << max_archs << "-architecture limit");
    try {
      archs.push_back(parse_arch_request(spec, element));
    } catch (const ConfigError& e) {
      throw ConfigError("batch element " + std::to_string(index) + ": " +
                        e.what());
    }
  }
  ESM_REQUIRE(!archs.empty(), "empty architecture batch");
  return archs;
}

}  // namespace esm::serve
