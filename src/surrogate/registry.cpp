#include "surrogate/registry.hpp"

#include <cstdio>
#include <map>

#include "common/checksum.hpp"
#include "common/error.hpp"
#include "common/fsio.hpp"
#include "common/strings.hpp"
#include "encoding/encoder.hpp"
#include "surrogate/ensemble_surrogate.hpp"
#include "surrogate/gbdt_surrogate.hpp"
#include "surrogate/lut_surrogate.hpp"
#include "surrogate/mlp_surrogate.hpp"

namespace esm {
namespace {

std::map<std::string, double> read_lut_table(const ArchiveReader& archive) {
  const std::vector<std::string> keys = archive.get_strings("lut.keys");
  const std::vector<double> values = archive.get_doubles("lut.values");
  ESM_REQUIRE(keys.size() == values.size(),
              "LUT artifact table keys/values length mismatch");
  std::map<std::string, double> table;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    ESM_REQUIRE(table.emplace(keys[i], values[i]).second,
                "LUT artifact has a duplicate table key '" << keys[i] << "'");
  }
  return table;
}

/// The LUT never encodes; its header records the canonical key of the
/// encoding the run was configured with, or "none" for a LUT built
/// outside one.
std::string lut_encoder_key(const std::string& name) {
  return name == "none" ? name
                        : encoder_registry_key(encoding_kind_from_name(name));
}

using Surrogate = std::unique_ptr<TrainableSurrogate>;

struct Family {
  const char* key;
  Surrogate (*create)(const SurrogateContext& ctx);
  Surrogate (*load)(const ArchiveReader& archive, const SurrogateContext& ctx);
};

constexpr Family kFamilies[] = {
    {"mlp",
     [](const SurrogateContext& ctx) -> Surrogate {
       return std::make_unique<MlpSurrogate>(
           make_encoder(ctx.encoder, ctx.spec), ctx.train, ctx.seed);
     },
     [](const ArchiveReader& archive, const SurrogateContext& ctx)
         -> Surrogate {
       return MlpSurrogate::load_state(archive, "",
                                       make_encoder(ctx.encoder, ctx.spec));
     }},
    {"lut",
     [](const SurrogateContext& ctx) -> Surrogate {
       ESM_REQUIRE(ctx.device != nullptr,
                   "the 'lut' surrogate needs a device to profile on");
       auto lut = std::make_unique<LutSurrogate>(ctx.spec, *ctx.device);
       lut->set_encoder_key(lut_encoder_key(ctx.encoder));
       return lut;
     },
     [](const ArchiveReader& archive, const SurrogateContext& ctx)
         -> Surrogate {
       auto lut =
           std::make_unique<LutSurrogate>(ctx.spec, read_lut_table(archive));
       lut->set_encoder_key(lut_encoder_key(ctx.encoder));
       if (archive.get_int("lut.bias_corrected") != 0) {
         lut->set_bias_state(archive.get_doubles("lut.bias.weights"),
                             archive.get_double("lut.bias.intercept"));
       }
       return lut;
     }},
    {"gbdt",
     [](const SurrogateContext& ctx) -> Surrogate {
       return std::make_unique<GbdtSurrogate>(
           make_encoder(ctx.encoder, ctx.spec));
     },
     [](const ArchiveReader& archive, const SurrogateContext& ctx)
         -> Surrogate {
       return GbdtSurrogate::load_state(archive,
                                        make_encoder(ctx.encoder, ctx.spec));
     }},
    {"ensemble",
     [](const SurrogateContext& ctx) -> Surrogate {
       return std::make_unique<EnsembleSurrogate>(
           ctx.encoder, ctx.spec, ctx.train, ctx.ensemble_members, ctx.seed);
     },
     [](const ArchiveReader& archive, const SurrogateContext& ctx)
         -> Surrogate {
       return EnsembleSurrogate::load_state(archive, ctx.encoder, ctx.spec);
     }},
};

const Family* find_family(const std::string& key) {
  const std::string lower = to_lower(key);
  for (const Family& family : kFamilies) {
    if (lower == family.key) return &family;
  }
  return nullptr;
}

const Family& lookup(const std::string& key) {
  const Family* found = find_family(key);
  if (found == nullptr) {
    throw ConfigError("unknown surrogate key '" + key + "' (registered: " +
                      join(SurrogateRegistry::instance().keys(), ", ") + ")");
  }
  return *found;
}

}  // namespace

const SurrogateRegistry& SurrogateRegistry::instance() {
  static const SurrogateRegistry registry;
  return registry;
}

bool SurrogateRegistry::has(const std::string& key) const {
  return find_family(key) != nullptr;
}

std::unique_ptr<TrainableSurrogate> SurrogateRegistry::create(
    const std::string& key, const SurrogateContext& context) const {
  return lookup(key).create(context);
}

std::unique_ptr<TrainableSurrogate> SurrogateRegistry::load(
    const std::string& key, const ArchiveReader& archive,
    const SurrogateContext& context) const {
  return lookup(key).load(archive, context);
}

std::vector<std::string> SurrogateRegistry::keys() const {
  std::vector<std::string> keys;
  for (const Family& family : kFamilies) keys.emplace_back(family.key);
  return keys;
}

namespace {

ArchiveWriter render_artifact(const TrainableSurrogate& surrogate) {
  ESM_REQUIRE(surrogate.fitted(), "cannot save an unfitted surrogate");
  ArchiveWriter archive;
  archive.put_int("esm.format", kSurrogateFormatVersion);
  archive.put_string("esm.kind", surrogate.kind());
  archive.put_string("esm.encoder", surrogate.encoder_key());
  surrogate.spec().save(archive, "spec");
  surrogate.save(archive);
  return archive;
}

}  // namespace

void save_surrogate(const TrainableSurrogate& surrogate,
                    const std::string& path) {
  render_artifact(surrogate).save(path);
}

std::string save_surrogate_atomic(const TrainableSurrogate& surrogate,
                                  const std::string& path) {
  const std::string bytes = render_artifact(surrogate).to_string();
  write_file_atomic(path, bytes);
  return crc32_hex(crc32(bytes));
}

std::unique_ptr<TrainableSurrogate> load_surrogate(const std::string& path) {
  return load_surrogate(path, read_file(path, "archive"));
}

std::unique_ptr<TrainableSurrogate> load_surrogate(
    const std::string& path, const std::string& contents) {
  const ArchiveReader archive = ArchiveReader::from_string(contents);
  if (!archive.checksummed()) {
    // Pre-v2 artifact: readable, but carries no CRC32 footer, so silent
    // corruption cannot be detected. Note it rather than failing.
    std::fprintf(stderr,
                 "note: %s predates archive checksums (v1); loaded without "
                 "integrity verification\n",
                 path.c_str());
  }
  ESM_REQUIRE(archive.has("esm.format"),
              "not an ESM surrogate artifact (missing esm.format): " << path);
  const long long format = archive.get_int("esm.format");
  ESM_REQUIRE(format == kSurrogateFormatVersion,
              "unsupported surrogate artifact format v"
                  << format << " (this build reads v"
                  << kSurrogateFormatVersion << "): " << path);
  SurrogateContext context;
  context.spec = SupernetSpec::load(archive, "spec");
  context.encoder = archive.get_string("esm.encoder");
  return SurrogateRegistry::instance().load(archive.get_string("esm.kind"),
                                            archive, context);
}

}  // namespace esm
