// Fleet mode: a registry of named models served by one process.
//
// Production ESM means one server answering for every
// (device x search space x encoding) surrogate, not one model per process.
// The unit of deployment is a *manifest* — a small text file listing named
// models, each with the artifact path and the CRC32 the artifact bytes are
// expected to have — and the unit of serving is a ModelFleet: an immutable
// snapshot holding every manifest entry fully loaded, each model with its
// own generation-keyed cache shard-set.
//
// Manifest format (`manifest.esmf`, text, '#' comments and blank lines ok):
//
//   esm-fleet v1
//   default <name>
//   model <name> <crc32hex> <path>
//
// `default` names the model keyless requests route to and must reference a
// listed entry. Model names match [A-Za-z][A-Za-z0-9_.-]* (a leading letter
// keeps them distinguishable from architecture requests, whose first token
// always starts with a digit or sign; '_'-prefixed names are reserved for
// metrics pseudo-sections like "_unrouted"). Paths are resolved relative to
// the manifest's directory unless absolute, and may contain spaces (the
// path is the rest of the line).
//
// Atomicity contract: ModelFleet::load() verifies and loads *every* entry
// before anything is published to the server — a missing artifact, a CRC
// mismatch, a duplicate name, or an unreadable manifest throws an error
// naming the offending entry, and the caller keeps serving the previous
// fleet untouched (the PR-5 keep-old reload pin, extended to N models).
// Publishing the other way — `esm_cli pipeline` adding a gated model —
// rewrites the manifest via write_file_atomic, so a reader never sees a
// torn manifest.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "serve/cache.hpp"
#include "surrogate/trainable.hpp"

namespace esm::serve {

class ModelMetrics;
class ServerMetrics;

/// First line of every manifest; bump on incompatible format changes.
inline constexpr const char* kManifestMagic = "esm-fleet v1";

/// True for tokens usable as model names: [A-Za-z][A-Za-z0-9_.-]*. The
/// leading letter is what keeps routed requests ("predict rpi4 3,5,2,7")
/// unambiguous against keyless ones ("predict 3,5,2,7").
bool valid_model_name(const std::string& name);

/// CRC32 (hex) of a file's bytes — the identity manifests pin artifacts to.
std::string file_crc32_hex(const std::string& path);

/// One `model` line of a manifest.
struct ManifestEntry {
  std::string name;
  std::string crc32_hex;  ///< expected CRC32 of the artifact bytes
  std::string path;       ///< as written (resolved against the manifest dir)
};

/// A parsed manifest. Entry order is preserved (it is the order `models`
/// responses and stats sections list, and upserts keep it stable so a
/// republished manifest stays byte-identical).
struct FleetManifest {
  std::string default_model;
  std::vector<ManifestEntry> entries;

  /// True when `contents` starts with the manifest magic line — how the
  /// server tells a manifest from a bare `.esm` artifact on reload.
  static bool looks_like_manifest(std::string_view contents);

  /// Parses manifest text; `origin` names the file in errors. Throws
  /// esm::ConfigError on bad magic, malformed lines, duplicate or invalid
  /// names, a missing default, or a default naming no entry.
  static FleetManifest parse(const std::string& contents,
                             const std::string& origin);

  /// parse() over the file at `path`.
  static FleetManifest load(const std::string& path);

  /// Renders the canonical text form (round-trips through parse()).
  std::string to_string() const;

  /// Entry index by name, or npos.
  std::size_t find(const std::string& name) const;

  /// Inserts or replaces the entry with `entry.name`, preserving position
  /// for replacements and appending new names. The first model ever added
  /// becomes the default; later upserts leave the default untouched.
  void upsert(const ManifestEntry& entry);

  /// Throws esm::ConfigError if names/default are inconsistent.
  void validate(const std::string& origin) const;
};

/// Writes the manifest atomically (write-temp -> fsync -> rename), so a
/// concurrent or crashed reader sees the old or the new manifest, whole.
void write_manifest_atomic(const FleetManifest& manifest,
                           const std::string& path);

/// One loaded, serving-ready model of a fleet.
struct FleetModel {
  std::string name;
  std::string artifact_path;  ///< resolved path the bytes were read from
  std::string crc32_hex;      ///< actual CRC32 of those bytes (== expected)
  std::uint64_t generation = 0;  ///< unique per loaded instance
  std::shared_ptr<const TrainableSurrogate> model;
  /// Per-model cache shard-set. Keys carry the generation, and the cache
  /// object travels with the model across fleet swaps (an unchanged model
  /// keeps its warm cache through a reload).
  std::shared_ptr<PredictionCache> cache;
  /// This model's stats section, resolved by name when the fleet loads
  /// (never null). A model carried across a reload resolves to the same
  /// section.
  ModelMetrics* metrics = nullptr;
};

/// An immutable fleet snapshot: the server swaps a shared_ptr<const
/// ModelFleet> on reload, so the front end and flush() always see one
/// coherent fleet (requests already routed finish on the fleet they were
/// routed against).
class ModelFleet {
 public:
  /// Loads every entry of the manifest at `manifest_path`, all-or-nothing:
  /// each artifact is read once, its CRC32 checked against the manifest,
  /// and parsed through load_surrogate(); the first failure throws an
  /// esm::ConfigError naming the entry and nothing is returned. `previous`
  /// (may be null) lets entries whose name AND artifact CRC are unchanged
  /// carry over their loaded model, generation, and warm cache; every
  /// other entry gets a fresh generation from `generation_counter`. Every
  /// model's stats section in `metrics` is resolved once, here.
  static std::shared_ptr<const ModelFleet> load(
      const std::string& manifest_path, const ModelFleet* previous,
      std::uint64_t& generation_counter, std::size_t cache_capacity,
      std::size_t cache_shards, ServerMetrics& metrics);

  /// A one-model fleet around an already-loaded artifact (single-artifact
  /// serving, the PR-5 mode). The model is named `name` and is the default.
  static std::shared_ptr<const ModelFleet> single(
      const std::string& name, const std::string& artifact_path,
      const std::string& crc32_hex,
      std::shared_ptr<const TrainableSurrogate> model,
      std::uint64_t& generation_counter, std::size_t cache_capacity,
      std::size_t cache_shards, ServerMetrics& metrics);

  /// The model named `name`, or nullptr.
  const FleetModel* find(std::string_view name) const;

  const FleetModel& default_model() const {
    return models_[default_index_];
  }

  /// Models in manifest order.
  const std::vector<FleetModel>& models() const { return models_; }

  /// The manifest (or single artifact) path this fleet was loaded from.
  const std::string& source_path() const { return source_path_; }

  /// CRC32 hex of the manifest bytes ("" for single-artifact fleets, whose
  /// identity is the artifact CRC itself).
  const std::string& manifest_crc32() const { return manifest_crc32_; }

  bool from_manifest() const { return from_manifest_; }

 private:
  ModelFleet() = default;

  /// Points every model at its stats section in `metrics`.
  void resolve_sections(ServerMetrics& metrics);

  std::vector<FleetModel> models_;
  std::size_t default_index_ = 0;
  std::string source_path_;
  std::string manifest_crc32_;
  bool from_manifest_ = false;
};

}  // namespace esm::serve
