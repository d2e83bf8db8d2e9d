// The fixed table of trainable surrogate families ("mlp", "lut", "gbdt",
// "ensemble"), plus the uniform artifact format. The ESM loop, the CLI, and
// the benches select surrogates by key from EsmConfig; save_surrogate/
// load_surrogate round-trip any family through a self-describing archive
// (header: esm.format, esm.kind, esm.encoder, spec.*), so a surrogate
// trained in one process can serve predictions in another.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "hwsim/measurement.hpp"
#include "ml/trainer.hpp"
#include "nets/supernet.hpp"
#include "surrogate/trainable.hpp"

namespace esm {

/// Artifact schema version written as "esm.format". Bump when the header
/// layout changes incompatibly; load_surrogate rejects other versions.
inline constexpr long long kSurrogateFormatVersion = 1;

/// Everything a surrogate factory may need. Factories take what applies to
/// their family and ignore the rest (e.g. the LUT ignores `encoder` and
/// `train`; the MLP ignores `device`).
struct SurrogateContext {
  SupernetSpec spec;
  std::string encoder = "fcc";  ///< encoding key, name or alias
  TrainConfig train;
  std::uint64_t seed = 0;
  SimulatedDevice* device = nullptr;  ///< required by "lut" for training
  std::size_t ensemble_members = 4;   ///< used by "ensemble"
};

/// Read-only view of the fixed family table: each key maps to a factory
/// (fresh trainable instance) and a loader (instance restored from an
/// artifact archive). Keys match case-insensitively.
class SurrogateRegistry {
 public:
  static const SurrogateRegistry& instance();

  bool has(const std::string& key) const;

  /// Builds a fresh, unfitted surrogate of the family; throws ConfigError
  /// listing the keys when the key is unknown.
  std::unique_ptr<TrainableSurrogate> create(
      const std::string& key, const SurrogateContext& context) const;

  /// Restores a surrogate of the family from an artifact archive.
  std::unique_ptr<TrainableSurrogate> load(
      const std::string& key, const ArchiveReader& archive,
      const SurrogateContext& context) const;

  /// Keys in table order.
  std::vector<std::string> keys() const;

 private:
  SurrogateRegistry() = default;
};

/// Writes `surrogate` to `path` with the self-describing artifact header.
void save_surrogate(const TrainableSurrogate& surrogate,
                    const std::string& path);

/// Same artifact, written atomically (write-temp -> fsync -> rename): a
/// concurrent reader or a crash mid-publish sees the old file or the new
/// one, never a torn artifact. Returns the CRC32 hex of the written bytes
/// — the identity fleet manifests pin the artifact to.
std::string save_surrogate_atomic(const TrainableSurrogate& surrogate,
                                  const std::string& path);

/// Reads the artifact header at `path` and dispatches to the family table's
/// loader for its kind. The result predicts immediately; fitting again
/// requires family-specific context (device, encoder) and is not restored.
std::unique_ptr<TrainableSurrogate> load_surrogate(const std::string& path);

/// Same, from an already-read buffer holding the full artifact file.
/// `path` only names the artifact in error messages. Callers that already
/// hold the bytes — the serve layer reads them once for both the identity
/// CRC32 and the parse — avoid a second read of the file.
std::unique_ptr<TrainableSurrogate> load_surrogate(const std::string& path,
                                                   const std::string& contents);

}  // namespace esm
