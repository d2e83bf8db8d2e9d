// Architecture encoding schemes  z = eta(arch)  (paper §II-C.4, Fig. 7).
//
// All encoders are unit-wise: each unit contributes a fixed-width segment and
// segments are concatenated in unit order (Fig. 7b). The five schemes:
//
//   one-hot      — depth one-hot + per-block-slot one-hots (long, sparse)
//   feature      — depth + per-block-slot raw feature values (long, sparse)
//   statistical  — depth + mean/std of each feature per unit (short, dense;
//                  the HAT-style SoTA baseline [11]; loses the *joint*
//                  distribution of features, hence overlapping
//                  representations on diverse spaces)
//   fc           — per-unit count of each individual feature value
//                  (proposed Feature Count)
//   fcc          — per-unit count of each feature *combination*
//                  (proposed Feature Combination Count; the headline
//                  encoding: preserves the full multiset of block types
//                  per unit while staying short and dense)
#pragma once

#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "linalg/matrix.hpp"
#include "nets/arch.hpp"
#include "nets/supernet.hpp"

namespace esm {

/// Encoding-scheme selector mirroring the paper's user input eta.
enum class EncodingKind {
  kOneHot,
  kFeature,
  kStatistical,
  kFeatureCount,
  kFcc,
};

// Every function below reads one table (encoder.cpp) holding, per kind,
// its key, display name and long alias, baseline-first.

/// Display name ("statistical"), as printed in "MLP+..." labels.
const char* encoding_kind_name(EncodingKind kind);

/// Canonical key ("stat"), as stored in the artifact's esm.encoder.
std::string encoder_registry_key(EncodingKind kind);

/// Resolves a key, display name or alias, case-insensitively.
std::optional<EncodingKind> find_encoding_kind(const std::string& name);

/// Same, but throws ConfigError listing the canonical keys when the name
/// is unknown.
EncodingKind encoding_kind_from_name(const std::string& name);

/// All five kinds, baseline-first.
std::vector<EncodingKind> all_encoding_kinds();

/// Their canonical keys, in the same order.
std::vector<std::string> encoder_keys();

/// Translates architectures of one space into fixed-width feature vectors.
class Encoder {
 public:
  virtual ~Encoder() = default;

  /// Vector width (constant per encoder instance).
  virtual std::size_t dimension() const = 0;

  /// Encodes one architecture; the result has exactly dimension() entries.
  virtual std::vector<double> encode(const ArchConfig& arch) const = 0;

  /// Encodes one architecture into a caller-provided buffer of exactly
  /// dimension() entries (zero-filled first, then written — bit-identical
  /// to encode()), so batch paths (encode_all, the fused
  /// MlpSurrogate::predict_all) fill preallocated matrix rows with zero
  /// per-architecture heap allocations.
  virtual void encode_into(const ArchConfig& arch,
                           std::span<double> out) const = 0;

  virtual EncodingKind kind() const = 0;
  virtual const SupernetSpec& spec() const = 0;

  std::string name() const { return encoding_kind_name(kind()); }

  /// Encodes a batch into a row-per-architecture matrix.
  Matrix encode_all(std::span<const ArchConfig> archs) const;

  /// Fraction of zero entries in the encoding of `arch` (sparsity metric
  /// used by the encoding ablation).
  double sparsity(const ArchConfig& arch) const;
};

/// Factory for the encoder of a given kind over a given space.
std::unique_ptr<Encoder> make_encoder(EncodingKind kind,
                                      const SupernetSpec& spec);

/// Same, for a key, display name or alias (see encoding_kind_from_name).
std::unique_ptr<Encoder> make_encoder(const std::string& name,
                                      const SupernetSpec& spec);

}  // namespace esm
