#include "serve/fleet.hpp"

#include <sstream>

#include "common/checksum.hpp"
#include "common/error.hpp"
#include "common/fsio.hpp"
#include "serve/metrics.hpp"
#include "surrogate/registry.hpp"

namespace esm::serve {
namespace {

bool is_name_start(char c) {
  return (c >= 'A' && c <= 'Z') || (c >= 'a' && c <= 'z');
}

bool is_name_char(char c) {
  return is_name_start(c) || (c >= '0' && c <= '9') || c == '_' || c == '.' ||
         c == '-';
}

std::string trim(const std::string& s) {
  const std::size_t first = s.find_first_not_of(" \t\r");
  if (first == std::string::npos) return "";
  const std::size_t last = s.find_last_not_of(" \t\r");
  return s.substr(first, last - first + 1);
}

/// Directory part of a path, for resolving relative artifact paths.
std::string dir_of(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) return ".";
  if (slash == 0) return "/";
  return path.substr(0, slash);
}

std::string resolve_artifact_path(const std::string& manifest_path,
                                  const std::string& entry_path) {
  if (!entry_path.empty() && entry_path.front() == '/') return entry_path;
  return dir_of(manifest_path) + "/" + entry_path;
}

}  // namespace

bool valid_model_name(const std::string& name) {
  if (name.empty() || !is_name_start(name.front())) return false;
  for (char c : name) {
    if (!is_name_char(c)) return false;
  }
  return true;
}

std::string file_crc32_hex(const std::string& path) {
  return crc32_hex(crc32(read_file(path, "artifact")));
}

bool FleetManifest::looks_like_manifest(std::string_view contents) {
  std::string_view first = contents.substr(0, contents.find('\n'));
  if (!first.empty() && first.back() == '\r') first.remove_suffix(1);
  return first == kManifestMagic;
}

FleetManifest FleetManifest::parse(const std::string& contents,
                                   const std::string& origin) {
  std::istringstream in(contents);
  std::string line;
  ESM_REQUIRE(std::getline(in, line),
              "empty fleet manifest: " << origin);
  if (!line.empty() && line.back() == '\r') line.pop_back();
  ESM_REQUIRE(line == kManifestMagic,
              "not a fleet manifest (expected '" << kManifestMagic
                                                 << "', got '" << line
                                                 << "'): " << origin);
  FleetManifest manifest;
  std::size_t line_no = 1;
  while (std::getline(in, line)) {
    ++line_no;
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line = line.substr(0, hash);
    line = trim(line);
    if (line.empty()) continue;

    std::istringstream tokens(line);
    std::string keyword;
    tokens >> keyword;
    if (keyword == "default") {
      std::string name, extra;
      ESM_REQUIRE(static_cast<bool>(tokens >> name),
                  origin << ":" << line_no << ": 'default' needs a name");
      ESM_REQUIRE(!(tokens >> extra), origin << ":" << line_no
                                             << ": trailing tokens after "
                                                "'default " << name << "'");
      ESM_REQUIRE(manifest.default_model.empty(),
                  origin << ":" << line_no << ": duplicate 'default' line");
      manifest.default_model = name;
      continue;
    }
    ESM_REQUIRE(keyword == "model",
                origin << ":" << line_no << ": unknown keyword '" << keyword
                       << "' (expected 'model' or 'default')");
    ManifestEntry entry;
    ESM_REQUIRE(static_cast<bool>(tokens >> entry.name >> entry.crc32_hex),
                origin << ":" << line_no
                       << ": 'model' needs <name> <crc32> <path>");
    std::getline(tokens, entry.path);
    entry.path = trim(entry.path);
    ESM_REQUIRE(!entry.path.empty(),
                origin << ":" << line_no << ": model '" << entry.name
                       << "' has no artifact path");
    std::uint32_t crc = 0;
    ESM_REQUIRE(parse_crc32_hex(entry.crc32_hex, crc),
                origin << ":" << line_no << ": model '" << entry.name
                       << "' has a malformed crc32 '" << entry.crc32_hex
                       << "' (want 8 hex digits)");
    manifest.entries.push_back(std::move(entry));
  }
  manifest.validate(origin);
  return manifest;
}

FleetManifest FleetManifest::load(const std::string& path) {
  return parse(read_file(path, "fleet manifest"), path);
}

std::string FleetManifest::to_string() const {
  std::ostringstream os;
  os << kManifestMagic << "\n";
  os << "default " << default_model << "\n";
  for (const ManifestEntry& entry : entries) {
    os << "model " << entry.name << " " << entry.crc32_hex << " "
       << entry.path << "\n";
  }
  return os.str();
}

std::size_t FleetManifest::find(const std::string& name) const {
  for (std::size_t i = 0; i < entries.size(); ++i) {
    if (entries[i].name == name) return i;
  }
  return static_cast<std::size_t>(-1);
}

void FleetManifest::upsert(const ManifestEntry& entry) {
  const std::size_t at = find(entry.name);
  if (at == static_cast<std::size_t>(-1)) {
    entries.push_back(entry);
  } else {
    entries[at] = entry;
  }
  if (default_model.empty()) default_model = entry.name;
}

void FleetManifest::validate(const std::string& origin) const {
  ESM_REQUIRE(!entries.empty(),
              "fleet manifest lists no models: " << origin);
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const ManifestEntry& entry = entries[i];
    ESM_REQUIRE(valid_model_name(entry.name),
                origin << ": invalid model name '" << entry.name
                       << "' (must match [A-Za-z][A-Za-z0-9_.-]*)");
    for (std::size_t j = 0; j < i; ++j) {
      ESM_REQUIRE(entries[j].name != entry.name,
                  origin << ": duplicate model name '" << entry.name << "'");
    }
  }
  ESM_REQUIRE(!default_model.empty(),
              origin << ": manifest has no 'default <name>' line");
  ESM_REQUIRE(find(default_model) != static_cast<std::size_t>(-1),
              origin << ": default model '" << default_model
                     << "' is not a listed entry");
}

void write_manifest_atomic(const FleetManifest& manifest,
                           const std::string& path) {
  manifest.validate(path);
  write_file_atomic(path, manifest.to_string());
}

std::shared_ptr<const ModelFleet> ModelFleet::load(
    const std::string& manifest_path, const ModelFleet* previous,
    std::uint64_t& generation_counter, std::size_t cache_capacity,
    std::size_t cache_shards, ServerMetrics& metrics) {
  const std::string manifest_bytes = read_file(manifest_path,
                                               "fleet manifest");
  const FleetManifest manifest =
      FleetManifest::parse(manifest_bytes, manifest_path);

  // Load every entry before publishing anything: one bad entry aborts the
  // whole swap and the caller keeps the previous fleet (all-or-nothing).
  auto fleet = std::shared_ptr<ModelFleet>(new ModelFleet());
  fleet->source_path_ = manifest_path;
  fleet->manifest_crc32_ = crc32_hex(crc32(manifest_bytes));
  fleet->from_manifest_ = true;
  // Staged generation bumps: nothing is drawn from the real counter until
  // every entry loaded, so a failed reload leaves generations untouched.
  std::uint64_t next_generation = generation_counter;
  for (const ManifestEntry& entry : manifest.entries) {
    const std::string artifact_path =
        resolve_artifact_path(manifest_path, entry.path);
    std::string bytes;
    try {
      bytes = read_file(artifact_path, "artifact");
    } catch (const std::exception& e) {
      throw ConfigError("manifest entry '" + entry.name + "': " + e.what());
    }
    const std::string actual = crc32_hex(crc32(bytes));
    ESM_REQUIRE(actual == entry.crc32_hex,
                "manifest entry '" << entry.name << "': artifact "
                                   << artifact_path << " has crc32 " << actual
                                   << ", manifest expects "
                                   << entry.crc32_hex);

    // An unchanged model (same name, same bytes) carries over its loaded
    // instance, generation, and warm cache across the fleet swap.
    const FleetModel* old =
        previous != nullptr ? previous->find(entry.name) : nullptr;
    if (old != nullptr && old->crc32_hex == actual) {
      FleetModel carried = *old;
      carried.artifact_path = artifact_path;
      fleet->models_.push_back(std::move(carried));
      continue;
    }
    FleetModel loaded;
    loaded.name = entry.name;
    loaded.artifact_path = artifact_path;
    loaded.crc32_hex = actual;
    loaded.generation = ++next_generation;
    try {
      loaded.model = load_surrogate(artifact_path, bytes);
    } catch (const std::exception& e) {
      throw ConfigError("manifest entry '" + entry.name + "': " + e.what());
    }
    loaded.cache =
        std::make_shared<PredictionCache>(cache_capacity, cache_shards);
    fleet->models_.push_back(std::move(loaded));
  }
  generation_counter = next_generation;
  fleet->default_index_ = manifest.find(manifest.default_model);
  fleet->resolve_sections(metrics);
  return fleet;
}

std::shared_ptr<const ModelFleet> ModelFleet::single(
    const std::string& name, const std::string& artifact_path,
    const std::string& crc32_hex,
    std::shared_ptr<const TrainableSurrogate> model,
    std::uint64_t& generation_counter, std::size_t cache_capacity,
    std::size_t cache_shards, ServerMetrics& metrics) {
  ESM_REQUIRE(valid_model_name(name),
              "invalid model name '" << name << "'");
  auto fleet = std::shared_ptr<ModelFleet>(new ModelFleet());
  fleet->source_path_ = artifact_path;
  fleet->from_manifest_ = false;
  FleetModel loaded;
  loaded.name = name;
  loaded.artifact_path = artifact_path;
  loaded.crc32_hex = crc32_hex;
  loaded.generation = ++generation_counter;
  loaded.model = std::move(model);
  loaded.cache =
      std::make_shared<PredictionCache>(cache_capacity, cache_shards);
  fleet->models_.push_back(std::move(loaded));
  fleet->default_index_ = 0;
  fleet->resolve_sections(metrics);
  return fleet;
}

void ModelFleet::resolve_sections(ServerMetrics& metrics) {
  for (FleetModel& model : models_) {
    model.metrics = metrics.model_section(model.name);
  }
}

const FleetModel* ModelFleet::find(std::string_view name) const {
  for (const FleetModel& model : models_) {
    if (model.name == name) return &model;
  }
  return nullptr;
}

}  // namespace esm::serve
