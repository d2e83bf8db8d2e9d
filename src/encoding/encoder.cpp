#include "encoding/encoder.hpp"

#include "common/error.hpp"
#include "common/strings.hpp"
#include "encoding/encoders.hpp"

namespace esm {
namespace {

struct EncodingRow {
  EncodingKind kind;
  const char* key;    // stored in artifacts
  const char* name;   // printed by Encoder::name()
  const char* alias;  // long spelling, also accepted on input
  std::unique_ptr<Encoder> (*make)(const SupernetSpec& spec);
};

template <typename E>
std::unique_ptr<Encoder> make_row_encoder(const SupernetSpec& spec) {
  return std::make_unique<E>(spec);
}

// Baseline-first: the order keys(), error lists and ablations follow.
constexpr EncodingRow kEncodings[] = {
    {EncodingKind::kOneHot, "onehot", "one-hot", "one-hot",
     &make_row_encoder<OneHotEncoder>},
    {EncodingKind::kFeature, "feature", "feature", "feature",
     &make_row_encoder<FeatureEncoder>},
    {EncodingKind::kStatistical, "stat", "statistical", "statistical",
     &make_row_encoder<StatisticalEncoder>},
    {EncodingKind::kFeatureCount, "fc", "fc", "feature-count",
     &make_row_encoder<FeatureCountEncoder>},
    {EncodingKind::kFcc, "fcc", "fcc", "feature-combination-count",
     &make_row_encoder<FccEncoder>},
};

const EncodingRow& row(EncodingKind kind) {
  for (const EncodingRow& r : kEncodings) {
    if (r.kind == kind) return r;
  }
  throw ConfigError("unknown encoding kind");
}

}  // namespace

const char* encoding_kind_name(EncodingKind kind) { return row(kind).name; }

std::string encoder_registry_key(EncodingKind kind) { return row(kind).key; }

std::optional<EncodingKind> find_encoding_kind(const std::string& name) {
  const std::string lower = to_lower(name);
  for (const EncodingRow& r : kEncodings) {
    if (lower == r.key || lower == r.name || lower == r.alias) return r.kind;
  }
  return std::nullopt;
}

EncodingKind encoding_kind_from_name(const std::string& name) {
  const std::optional<EncodingKind> kind = find_encoding_kind(name);
  if (!kind) {
    throw ConfigError("unknown encoder key '" + name +
                      "' (registered: " + join(encoder_keys(), ", ") + ")");
  }
  return *kind;
}

std::vector<EncodingKind> all_encoding_kinds() {
  std::vector<EncodingKind> kinds;
  for (const EncodingRow& r : kEncodings) kinds.push_back(r.kind);
  return kinds;
}

std::vector<std::string> encoder_keys() {
  std::vector<std::string> keys;
  for (const EncodingRow& r : kEncodings) keys.emplace_back(r.key);
  return keys;
}

Matrix Encoder::encode_all(std::span<const ArchConfig> archs) const {
  Matrix out(archs.size(), dimension());
  for (std::size_t r = 0; r < archs.size(); ++r) {
    encode_into(archs[r], out.row(r));
  }
  return out;
}

double Encoder::sparsity(const ArchConfig& arch) const {
  const std::vector<double> z = encode(arch);
  if (z.empty()) return 0.0;
  std::size_t zeros = 0;
  for (double v : z) {
    if (v == 0.0) ++zeros;
  }
  return static_cast<double>(zeros) / static_cast<double>(z.size());
}

std::unique_ptr<Encoder> make_encoder(EncodingKind kind,
                                      const SupernetSpec& spec) {
  return row(kind).make(spec);
}

std::unique_ptr<Encoder> make_encoder(const std::string& name,
                                      const SupernetSpec& spec) {
  return make_encoder(encoding_kind_from_name(name), spec);
}

}  // namespace esm
