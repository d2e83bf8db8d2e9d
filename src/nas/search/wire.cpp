#include "nas/search/wire.hpp"

#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "common/error.hpp"
#include "common/strings.hpp"

namespace esm::search {
namespace {

double parse_double(const std::string& key, const std::string& text) {
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  ESM_REQUIRE(!text.empty() && end != nullptr && *end == '\0',
              "'" << text << "' is not a number for search key '" << key
                  << "'");
  return value;
}

long parse_long(const std::string& key, const std::string& text) {
  char* end = nullptr;
  const long value = std::strtol(text.c_str(), &end, 10);
  ESM_REQUIRE(!text.empty() && end != nullptr && *end == '\0',
              "'" << text << "' is not an integer for search key '" << key
                  << "'");
  return value;
}

std::vector<std::string> split_comma(const std::string& text) {
  std::vector<std::string> parts;
  std::istringstream is(text);
  std::string part;
  while (std::getline(is, part, ',')) parts.push_back(part);
  return parts;
}

}  // namespace

SearchRequest parse_search_request(const std::string& payload) {
  SearchRequest request;
  bool have_budget = false;
  bool have_limits = false;
  double budget_ms = 0.0;

  std::istringstream tokens(payload);
  std::string token;
  while (tokens >> token) {
    const std::size_t eq = token.find('=');
    ESM_REQUIRE(eq != std::string::npos && eq > 0,
                "search expects k=v tokens, got '" << token << "'");
    const std::string key = token.substr(0, eq);
    const std::string value = token.substr(eq + 1);
    ESM_REQUIRE(!value.empty(), "search key '" << key << "' has no value");
    if (key == "mode") {
      request.config.mode = parse_mode(value);
    } else if (key == "algo") {
      request.config.algorithm = parse_algorithm(value);
    } else if (key == "population") {
      const long n = parse_long(key, value);
      ESM_REQUIRE(n >= 2 && n <= 100000, "population out of range: " << n);
      request.config.population = static_cast<std::size_t>(n);
    } else if (key == "generations") {
      const long n = parse_long(key, value);
      ESM_REQUIRE(n >= 1 && n <= 100000, "generations out of range: " << n);
      request.config.generations = static_cast<int>(n);
    } else if (key == "seed") {
      request.config.seed =
          static_cast<std::uint64_t>(parse_long(key, value));
    } else if (key == "min_quality") {
      request.config.min_quality = parse_double(key, value);
    } else if (key == "bias") {
      request.config.front_bias = parse_double(key, value);
    } else if (key == "budget_ms") {
      budget_ms = parse_double(key, value);
      ESM_REQUIRE(budget_ms > 0.0, "budget_ms must be > 0");
      have_budget = true;
    } else if (key == "limits_ms") {
      for (const std::string& part : split_comma(value)) {
        const double limit = parse_double(key, part);
        ESM_REQUIRE(limit > 0.0, "limits_ms entries must be > 0");
        request.limits_ms.push_back(limit);
      }
      have_limits = true;
    } else if (key == "models") {
      for (const std::string& part : split_comma(value)) {
        ESM_REQUIRE(!part.empty(), "models has an empty name");
        request.models.push_back(part);
      }
    } else {
      throw ConfigError(
          "unknown search key '" + key +
          "' (mode, algo, population, generations, seed, min_quality, "
          "bias, budget_ms, limits_ms, models)");
    }
  }

  ESM_REQUIRE(!(have_budget && have_limits),
              "budget_ms and limits_ms are mutually exclusive");
  const std::size_t targets =
      request.models.empty() ? 1 : request.models.size();
  if (have_budget) {
    request.limits_ms.assign(targets, budget_ms);
  }
  ESM_REQUIRE(request.limits_ms.empty() || request.limits_ms.size() == targets,
              "limits_ms has " << request.limits_ms.size() << " entries for "
                               << targets << " model(s)");
  return request;
}

std::string format_search_request(const SearchRequest& request) {
  std::ostringstream os;
  os << "mode=" << mode_name(request.config.mode)
     << " algo=" << algorithm_name(request.config.algorithm)
     << " population=" << request.config.population
     << " generations=" << request.config.generations
     << " seed=" << request.config.seed;
  if (request.config.min_quality > 0.0) {
    os << " min_quality=" << format_g17(request.config.min_quality);
  }
  if (request.config.front_bias > 0.0) {
    os << " bias=" << format_g17(request.config.front_bias);
  }
  if (!request.models.empty()) {
    os << " models=";
    for (std::size_t i = 0; i < request.models.size(); ++i) {
      if (i > 0) os << ',';
      os << request.models[i];
    }
  }
  if (!request.limits_ms.empty()) {
    os << " limits_ms=";
    for (std::size_t i = 0; i < request.limits_ms.size(); ++i) {
      if (i > 0) os << ',';
      os << format_g17(request.limits_ms[i]);
    }
  }
  return os.str();
}

std::string format_arch_request(const SupernetSpec& spec,
                                const ArchConfig& arch) {
  std::ostringstream os;
  for (std::size_t u = 0; u < arch.units.size(); ++u) {
    const UnitConfig& unit = arch.units[u];
    ESM_REQUIRE(!unit.blocks.empty(), "unit " << u << " has no blocks");
    const BlockConfig& first = unit.blocks.front();
    for (const BlockConfig& block : unit.blocks) {
      ESM_REQUIRE(block.kernel == first.kernel &&
                      block.expansion == first.expansion,
                  "unit " << u << " mixes block features; only per-unit-"
                          "uniform architectures have a request form");
    }
    if (u > 0) os << ',';
    os << unit.blocks.size() << ":k" << first.kernel;
    if (!spec.expansion_options.empty()) {
      // %.6g lands within the parser's 1e-2 snap of the exact option
      // ("0.666667" selects 2/3) while staying nearest to it.
      char buffer[32];
      std::snprintf(buffer, sizeof(buffer), "%.6g", first.expansion);
      os << 'e' << buffer;
    }
  }
  return os.str();
}

std::string format_front_payload(const SupernetSpec& spec,
                                 const EngineConfig& config,
                                 const SearchOutcome& outcome) {
  auto entry = [&](const ScoredArch& c) {
    std::string text = format_arch_request(spec, c.arch);
    text += '|';
    text += format_g17(c.quality);
    text += '|';
    for (std::size_t k = 0; k < c.latency_ms.size(); ++k) {
      if (k > 0) text += ',';
      text += format_g17(c.latency_ms[k]);
    }
    return text;
  };

  std::ostringstream os;
  os << "mode=" << mode_name(config.mode)
     << " algo=" << algorithm_name(config.algorithm)
     << " population=" << config.population
     << " generations=" << config.generations << " seed=" << config.seed
     << " evaluations=" << outcome.evaluations
     << " feasible=" << (outcome.found_feasible ? 1 : 0)
     << " front=" << outcome.front.size();
  if (!outcome.candidates.empty()) {
    os << " best=" << entry(outcome.candidates[outcome.best]);
  }
  if (!outcome.front.empty()) {
    os << ' ';
    for (std::size_t i = 0; i < outcome.front.size(); ++i) {
      if (i > 0) os << ';';
      os << entry(outcome.candidates[outcome.front[i]]);
    }
  }
  return os.str();
}

}  // namespace esm::search
