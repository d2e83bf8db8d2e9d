#include "surrogate/registry.hpp"

#include <cstdio>
#include <utility>

#include "common/checksum.hpp"
#include "common/error.hpp"
#include "common/fsio.hpp"
#include "common/strings.hpp"
#include "encoding/registry.hpp"
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

}  // namespace

SurrogateRegistry& SurrogateRegistry::instance() {
  // Built-ins are registered here, not via self-registering globals: this
  // library links statically, and unreferenced registration TUs would be
  // dead-stripped.
  static SurrogateRegistry* registry = [] {
    auto* r = new SurrogateRegistry();
    r->add(
        "mlp",
        [](const SurrogateContext& ctx) -> std::unique_ptr<TrainableSurrogate> {
          return std::make_unique<MlpSurrogate>(
              make_encoder(ctx.encoder, ctx.spec), ctx.train, ctx.seed);
        },
        [](const ArchiveReader& archive, const SurrogateContext& ctx)
            -> std::unique_ptr<TrainableSurrogate> {
          return MlpSurrogate::load_state(
              archive, "", make_encoder(ctx.encoder, ctx.spec));
        });
    r->add(
        "lut",
        [](const SurrogateContext& ctx) -> std::unique_ptr<TrainableSurrogate> {
          ESM_REQUIRE(ctx.device != nullptr,
                      "the 'lut' surrogate needs a device to profile on");
          auto lut = std::make_unique<LutSurrogate>(ctx.spec, *ctx.device);
          lut->set_encoder_key(ctx.encoder);
          return lut;
        },
        [](const ArchiveReader& archive, const SurrogateContext& ctx)
            -> std::unique_ptr<TrainableSurrogate> {
          auto lut = std::make_unique<LutSurrogate>(ctx.spec,
                                                    read_lut_table(archive));
          lut->set_encoder_key(ctx.encoder);
          if (archive.get_int("lut.bias_corrected") != 0) {
            lut->set_bias_state(archive.get_doubles("lut.bias.weights"),
                                archive.get_double("lut.bias.intercept"));
          }
          return lut;
        });
    r->add(
        "gbdt",
        [](const SurrogateContext& ctx) -> std::unique_ptr<TrainableSurrogate> {
          return std::make_unique<GbdtSurrogate>(
              make_encoder(ctx.encoder, ctx.spec));
        },
        [](const ArchiveReader& archive, const SurrogateContext& ctx)
            -> std::unique_ptr<TrainableSurrogate> {
          return GbdtSurrogate::load_state(
              archive, make_encoder(ctx.encoder, ctx.spec));
        });
    r->add(
        "ensemble",
        [](const SurrogateContext& ctx) -> std::unique_ptr<TrainableSurrogate> {
          return std::make_unique<EnsembleSurrogate>(
              ctx.encoder, ctx.spec, ctx.train, ctx.ensemble_members,
              ctx.seed);
        },
        [](const ArchiveReader& archive, const SurrogateContext& ctx)
            -> std::unique_ptr<TrainableSurrogate> {
          return EnsembleSurrogate::load_state(archive, ctx.encoder,
                                               ctx.spec);
        });
    return r;
  }();
  return *registry;
}

void SurrogateRegistry::add(const std::string& key, Factory factory,
                            Loader loader) {
  ESM_REQUIRE(!key.empty() && factory && loader,
              "surrogate registration needs key+factory+loader");
  ESM_REQUIRE(
      entries_.emplace(key, Entry{std::move(factory), std::move(loader)})
          .second,
      "surrogate key already registered: '" << key << "'");
  order_.push_back(key);
}

bool SurrogateRegistry::has(const std::string& key) const {
  return entries_.count(to_lower(key)) > 0;
}

const SurrogateRegistry::Entry& SurrogateRegistry::entry(
    const std::string& key) const {
  const auto it = entries_.find(to_lower(key));
  if (it == entries_.end()) {
    throw ConfigError("unknown surrogate key '" + key +
                      "' (registered: " + join(keys(), ", ") + ")");
  }
  return it->second;
}

std::unique_ptr<TrainableSurrogate> SurrogateRegistry::create(
    const std::string& key, const SurrogateContext& context) const {
  return entry(key).factory(context);
}

std::unique_ptr<TrainableSurrogate> SurrogateRegistry::load(
    const std::string& key, const ArchiveReader& archive,
    const SurrogateContext& context) const {
  return entry(key).loader(archive, context);
}

std::vector<std::string> SurrogateRegistry::keys() const { return order_; }

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
