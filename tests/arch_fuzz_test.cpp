// Differential fuzz test of the wire arch parser (src/serve/protocol.cpp).
//
// A seeded, in-repo mutator grows hostile inputs from canonical wire forms
// of all three spaces: bit flips, splices, truncation, duplicated tokens,
// stray whitespace, signs, hex floats, inf/nan, huge depths, empty units,
// NUL bytes and batch separators. Every case runs through the shipped
// scanner layers (parse_arch_request, arch_cache_key and the batch form
// arch_cache_keys) and through a verbatim copy of the istringstream
// tokenizer they replaced, kept below as the reference. They must agree
// on accept or reject, on the error text (up to the source location
// ESM_REQUIRE appends), and on the ArchConfig; and the packed keys must
// be equal exactly when the configurations' to_string() is.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "fuzz_mutator.hpp"
#include "nets/supernet.hpp"
#include "serve/protocol.hpp"

namespace esm {
namespace {

// ------------------------------------------------ reference tokenizer
// The istringstream parser the scanner replaced, copied verbatim.

/// Parses a base-10 integer covering the whole token.
bool parse_int_token(const std::string& token, long& out) {
  if (token.empty()) return false;
  char* end = nullptr;
  const long v = std::strtol(token.c_str(), &end, 10);
  if (end == nullptr || *end != '\0') return false;
  out = v;
  return true;
}

ArchConfig reference_parse_arch_request(const SupernetSpec& spec,
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

std::vector<ArchConfig> reference_split_arch_batch(const SupernetSpec& spec,
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
      archs.push_back(reference_parse_arch_request(spec, element));
    } catch (const ConfigError& e) {
      throw ConfigError("batch element " + std::to_string(index) + ": " +
                        e.what());
    }
  }
  ESM_REQUIRE(!archs.empty(), "empty architecture batch");
  return archs;
}

// ------------------------------------------------------------ harness

/// ESM_REQUIRE ends every message with " [<condition> at <file>:<line>]";
/// the location differs between the reference copy and the shipped
/// parser, everything before it must not.
std::string without_location(const std::string& what) {
  const std::size_t at = what.rfind(" at ");
  if (at == std::string::npos || what.empty() || what.back() != ']') {
    return what;
  }
  return what.substr(0, at) + "]";
}

/// The outcome of one parse: the value, or the error text.
template <typename T>
struct Outcome {
  std::optional<T> value;
  std::string error;
};

template <typename T, typename F>
Outcome<T> attempt(F&& parse) {
  Outcome<T> out;
  try {
    out.value = parse();
  } catch (const ConfigError& e) {
    out.error = without_location(e.what());
  }
  return out;
}

/// ArchConfig equality that also holds for NaN expansions (a space without
/// expansion options accepts any strtod value, "nan" included).
bool same_arch(const ArchConfig& a, const ArchConfig& b) {
  if (a.kind != b.kind || a.units.size() != b.units.size()) return false;
  for (std::size_t u = 0; u < a.units.size(); ++u) {
    const auto& x = a.units[u].blocks;
    const auto& y = b.units[u].blocks;
    if (x.size() != y.size()) return false;
    for (std::size_t i = 0; i < x.size(); ++i) {
      if (x[i].kernel != y[i].kernel ||
          std::bit_cast<std::uint64_t>(x[i].expansion) !=
              std::bit_cast<std::uint64_t>(y[i].expansion)) {
        return false;
      }
    }
  }
  return true;
}

/// `arch` as the cache sees it: a space without expansion options keys
/// every spelling of the expansion alike, as its encoders read none.
ArchConfig as_keyed(const SupernetSpec& spec, ArchConfig arch) {
  if (spec.expansion_options.empty()) {
    for (UnitConfig& unit : arch.units) {
      for (BlockConfig& block : unit.blocks) block.expansion = 1.0;
    }
  }
  return arch;
}

std::string format_g(const char* format, double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), format, value);
  return buf;
}

/// A canonical wire form of a random arch of `spec`, in one of the
/// spellings clients use: bare depths, explicit kernels, explicit kernels
/// and expansions (as %.6g, %.3g or the 3-decimal text of to_string; a
/// random decimal where the space has no expansion options).
std::string canonical_wire(const SupernetSpec& spec, Rng& rng) {
  std::string wire;
  const int style = rng.uniform_int(0, 3);
  for (int u = 0; u < spec.num_units; ++u) {
    if (u > 0) wire += rng.bernoulli(0.2) ? ", " : ",";
    wire += std::to_string(
        rng.uniform_int(spec.min_blocks_per_unit, spec.max_blocks_per_unit));
    if (style == 0) continue;
    const int kernel = spec.kernel_options[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<int>(spec.kernel_options.size()) - 1))];
    wire += ":k" + std::to_string(kernel);
    if (style == 1) continue;
    if (spec.expansion_options.empty()) {
      // Any expansion parses in a space without options, and
      // parse_arch_request keeps its exact value: random decimals check
      // that the scanner reads every digit as strtod does.
      static const char* kFormats[] = {"%.17g", "%.9g", "%.3f", "%.1f"};
      wire += "e" + format_g(kFormats[rng.uniform_int(0, 3)],
                             rng.uniform(0.0, 4.0));
      continue;
    }
    const double expansion = spec.expansion_options[static_cast<std::size_t>(
        rng.uniform_int(0,
                        static_cast<int>(spec.expansion_options.size()) - 1))];
    static const char* kFormats[] = {"%.6g", "%.3g", "%.3f"};
    wire += "e" + format_g(kFormats[rng.uniform_int(0, 2)], expansion);
  }
  return wire;
}

constexpr std::string_view kInserts[] = {
    " ",          "\t",         "\n",   "\r",    "\v",    "\f",
    "+",          "-",          ",",    ",,",    ";",     ":",
    "k",          "e",          "E",    ":k",    "e1",    "0x1p-1",
    "0X1.8p0",    "0x2",        "inf",  "-inf",  "nan",   "NaN",
    "infinity",   "1e-1",       "5e-1", ".5",    "0.667", "1001",
    "1000",       "2147483648", "-0",   "00003", "4294967299",
    "99999999999999999999",     std::string_view("\0", 1),
};

/// Applies one random mutation to `s`; `seeds` supplies splice partners.
void mutate(std::string& s, const std::vector<std::string>& seeds, Rng& rng) {
  static const char* const kNumbers[] = {
      "0", "-3", "+3", "1e3", "0x10", "inf", "nan", "20", "21", "7", "8",
      "2.5", "99999999999999999999"};
  switch (rng.uniform_int(0, 8)) {
    case 0: fuzz::flip_bit(s, rng); break;
    case 1: fuzz::splice(s, seeds, rng); break;
    case 2: fuzz::truncate(s, rng); break;
    case 3: fuzz::duplicate_field(s, ',', rng); break;  // one unit token
    case 4: fuzz::erase_byte(s, rng); break;
    case 5: fuzz::insert_fragment(s, kInserts, rng); break;
    case 6: fuzz::replace_number(s, kNumbers, rng); break;
    case 7: fuzz::insert_random_byte(s, rng); break;
    default:  // a second canonical arch joined as a batch element
      s += ';' + seeds[rng.uniform_u64(seeds.size())];
      break;
  }
}

/// Keys must be equal exactly when the keyed configurations' to_string()
/// is: both maps stay functions over every accepted case.
struct KeyLedger {
  std::unordered_map<std::string, std::string> key_of_text;
  std::unordered_map<std::string, std::string> text_of_key;

  void record(const std::string& text, const std::string& key) {
    const auto [k, new_text] = key_of_text.emplace(text, key);
    ASSERT_EQ(k->second, key) << "one arch, two keys: " << text;
    const auto [t, new_key] = text_of_key.emplace(key, text);
    ASSERT_EQ(t->second, text) << "one key, two archs: " << text;
  }
};

TEST(ArchFuzzTest, ScannerMatchesTheReferenceTokenizer) {
  const std::vector<SupernetSpec> specs = {resnet_spec(), mobilenet_v3_spec(),
                                           densenet_spec()};
  Rng rng(0xA5C11);
  std::vector<std::vector<std::string>> seeds(specs.size());
  for (std::size_t s = 0; s < specs.size(); ++s) {
    for (int i = 0; i < 64; ++i) {
      seeds[s].push_back(canonical_wire(specs[s], rng));
    }
  }
  std::vector<KeyLedger> ledgers(specs.size());
  constexpr std::uint64_t kGeneration = 300;  // a two-byte varint
  constexpr int kCases = 120000;
  int accepted = 0;
  int batches = 0;
  for (int c = 0; c < kCases; ++c) {
    const std::size_t s = static_cast<std::size_t>(c) % specs.size();
    const SupernetSpec& spec = specs[s];
    std::string text = seeds[s][rng.uniform_u64(seeds[s].size())];
    const int mutations = rng.uniform_int(0, 4);
    for (int m = 0; m < mutations; ++m) mutate(text, seeds[s], rng);

    const Outcome<ArchConfig> want = attempt<ArchConfig>(
        [&] { return reference_parse_arch_request(spec, text); });
    const Outcome<ArchConfig> got = attempt<ArchConfig>(
        [&] { return serve::parse_arch_request(spec, text); });
    const Outcome<std::string> key = attempt<std::string>(
        [&] { return serve::arch_cache_key(spec, kGeneration, text); });
    ASSERT_EQ(got.error, want.error) << "case " << c << ": '" << text << "'";
    ASSERT_EQ(key.error, want.error) << "case " << c << ": '" << text << "'";
    if (want.value) {
      ++accepted;
      ASSERT_TRUE(got.value && same_arch(*got.value, *want.value))
          << "case " << c << ": '" << text << "'";
      const ArchConfig keyed = as_keyed(spec, *want.value);
      ASSERT_LE(key.value->size(), 15u) << "'" << text << "'";
      ledgers[s].record(keyed.to_string(), *key.value);
    }

    if (text.find(';') == std::string::npos && !rng.bernoulli(0.1)) continue;
    ++batches;
    const std::size_t max_archs = static_cast<std::size_t>(
        rng.uniform_int(1, 4));
    const auto want_batch = attempt<std::vector<ArchConfig>>([&] {
      return reference_split_arch_batch(spec, text, max_archs);
    });
    const auto keys = attempt<std::vector<serve::KeyedArch>>([&] {
      return serve::arch_cache_keys(spec, kGeneration, text, max_archs);
    });
    ASSERT_EQ(keys.error, want_batch.error) << "'" << text << "'";
    if (!want_batch.value) continue;
    ASSERT_EQ(keys.value->size(), want_batch.value->size());
    for (std::size_t i = 0; i < want_batch.value->size(); ++i) {
      // A miss re-parses the element's text for flush().
      ASSERT_TRUE(same_arch(
          serve::parse_arch_request(spec, (*keys.value)[i].text),
          (*want_batch.value)[i]));
      ledgers[s].record(as_keyed(spec, (*want_batch.value)[i]).to_string(),
                        (*keys.value)[i].key);
    }
  }
  // The mutator must reach both sides of the grammar, and batches.
  EXPECT_GT(accepted, kCases / 10);
  EXPECT_LT(accepted, kCases * 9 / 10);
  EXPECT_GT(batches, kCases / 10);
}

TEST(ArchFuzzTest, SpellingsOfOneArchShareOneKey) {
  // The canonical rule by example: whitespace, a redundant default
  // feature, a trailing comma, and expansions typed at any precision that
  // snap to the same option all name one arch, so they share one key.
  const SupernetSpec spec = resnet_spec();
  const std::string key = serve::arch_cache_key(spec, 1, "3:k3e0.5,5,2,7");
  for (const char* spelling :
       {"3,5,2,7", " 3, 5, 2, 7 ", "3:k3,5,2,7", "3:k3e0.5,5,2,7,",
        "3:k3e0.500,5:k3,2:k3e.5,7:k3e0.5", "+3,05,2,7"}) {
    EXPECT_EQ(serve::arch_cache_key(spec, 1, spelling), key) << spelling;
  }
  EXPECT_NE(serve::arch_cache_key(spec, 2, "3,5,2,7"), key);  // generation
  EXPECT_NE(serve::arch_cache_key(spec, 1, "3:k5,5,2,7"), key);
  EXPECT_NE(serve::arch_cache_key(spec, 1, "3:k3e0.667,5,2,7"), key);
  EXPECT_NE(serve::arch_cache_key(spec, 1, "3,5,2,6"), key);
  EXPECT_EQ(serve::arch_cache_key(spec, 1, "3:k3e0.667,5,2,7"),
            serve::arch_cache_key(spec, 1, "3:k3e0.6666667,5,2,7"));

  // DenseNet has no expansion options: its encoders read no expansion, so
  // the key drops it and every spelling shares the entry.
  const SupernetSpec dense = densenet_spec();
  EXPECT_EQ(serve::arch_cache_key(dense, 1, "3:k3e2.5,1,1,1,1"),
            serve::arch_cache_key(dense, 1, "3:k3,1,1,1,1"));
}

}  // namespace
}  // namespace esm
