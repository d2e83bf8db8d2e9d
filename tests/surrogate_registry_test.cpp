// Tests for the surrogate family table and the uniform artifact format: key
// lookup and error reporting, the artifact-bytes golden, and the
// property-style guarantee that every surrogate x encoder combination
// round-trips through save_surrogate/load_surrogate with bit-identical
// predictions on every space.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "common/archive.hpp"
#include "common/error.hpp"
#include "common/fsio.hpp"
#include "common/rng.hpp"
#include "hwsim/device.hpp"
#include "hwsim/measurement.hpp"
#include "nets/builder.hpp"
#include "nets/sampler.hpp"
#include "surrogate/lut_surrogate.hpp"
#include "surrogate/registry.hpp"

namespace esm {
namespace {

/// Tiny config so 60 surrogate fits stay fast.
TrainConfig tiny_train() {
  TrainConfig cfg;
  cfg.epochs = 8;
  cfg.batch_size = 32;
  return cfg;
}

struct Fitted {
  std::unique_ptr<TrainableSurrogate> surrogate;
  std::vector<ArchConfig> archs;
};

/// Samples 64 archs of `spec`, fits a `kind` x `encoder_key` surrogate on
/// their true latencies, and returns both.
Fitted fit_combo(const std::string& kind, const std::string& encoder_key,
                 const SupernetSpec& spec, SimulatedDevice& device) {
  Rng rng(0x5eed ^ std::hash<std::string>{}(spec.name));
  BalancedSampler sampler(spec, 4);
  Fitted out;
  out.archs = sampler.sample_n(64, rng);
  std::vector<double> latencies;
  latencies.reserve(out.archs.size());
  for (const ArchConfig& arch : out.archs) {
    latencies.push_back(device.true_latency_ms(build_graph(spec, arch)));
  }

  SurrogateContext context;
  context.spec = spec;
  context.encoder = encoder_key;
  context.train = tiny_train();
  context.seed = 11;
  context.device = &device;
  context.ensemble_members = 2;
  out.surrogate = SurrogateRegistry::instance().create(kind, context);
  out.surrogate->fit(SurrogateDataset{out.archs, latencies});
  return out;
}

// ------------------------------------------------------ surrogate registry

TEST(SurrogateRegistryTest, ListsBuiltinKeysInOrder) {
  const std::vector<std::string> keys = SurrogateRegistry::instance().keys();
  EXPECT_EQ(keys, (std::vector<std::string>{"mlp", "lut", "gbdt",
                                            "ensemble"}));
}

TEST(SurrogateRegistryTest, UnknownKeyErrorListsRegisteredKeys) {
  SurrogateContext context;
  context.spec = resnet_spec();
  try {
    (void)SurrogateRegistry::instance().create("svm", context);
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("mlp, lut, gbdt, ensemble"),
              std::string::npos)
        << e.what();
  }
}

TEST(SurrogateRegistryTest, LutStoresTheCanonicalEncoderKey) {
  // The LUT never encodes, but its header names the run's encoding in the
  // same canonical spelling the MLP stores, however the flag was typed.
  std::vector<std::string> bytes;
  for (const char* spelling : {"Statistical", "stat"}) {
    SimulatedDevice device(rtx4090_spec(), 5);
    const Fitted lut = fit_combo("lut", spelling, resnet_spec(), device);
    EXPECT_EQ(lut.surrogate->encoder_key(), "stat") << spelling;
    const std::string path = testing::TempDir() + "/esm_lut_alias.esm";
    save_surrogate(*lut.surrogate, path);
    bytes.push_back(read_file(path, "artifact"));
    std::remove(path.c_str());
  }
  EXPECT_EQ(bytes[0], bytes[1]);
}

TEST(SurrogateRegistryTest, LutCreationWithoutDeviceThrows) {
  SurrogateContext context;
  context.spec = resnet_spec();
  context.device = nullptr;
  EXPECT_THROW(SurrogateRegistry::instance().create("lut", context),
               ConfigError);
}

TEST(SurrogateRegistryTest, PredictAllIsBatchCompositionIndependent) {
  // The search engine prices each arch once per search and reuses the
  // value wherever the arch reappears, in whatever batch: predict_all must
  // give every arch the same bits whatever batch surrounds it.
  std::size_t combos = 0;
  for (const std::string& space : {"resnet", "mobilenetv3", "densenet"}) {
    const SupernetSpec spec = spec_by_name(space);
    for (const std::string& kind : SurrogateRegistry::instance().keys()) {
      for (const char* encoder : {"onehot", "feature", "stat", "fc", "fcc"}) {
        SimulatedDevice device(rtx4090_spec(), 77);
        const Fitted fitted = fit_combo(kind, encoder, spec, device);
        const TrainableSurrogate& model = *fitted.surrogate;
        const std::string label = kind + " x " + encoder + " on " + space;
        // The training archs plus fresh ones, with repeats inside the
        // batch.
        std::vector<ArchConfig> archs = fitted.archs;
        RandomSampler sampler(spec);
        Rng rng(909);
        for (const ArchConfig& arch : sampler.sample_n(40, rng)) {
          archs.push_back(arch);
        }
        archs.push_back(archs[3]);
        archs.push_back(archs.back());
        const std::vector<double> whole = model.predict_all(archs);
        std::vector<ArchConfig> reversed(archs.rbegin(), archs.rend());
        const std::vector<double> backwards = model.predict_all(reversed);
        ASSERT_EQ(whole.size(), archs.size()) << label;
        ASSERT_EQ(backwards.size(), archs.size()) << label;
        for (std::size_t i = 0; i < archs.size(); ++i) {
          const double alone =
              model.predict_all(std::span<const ArchConfig>(&archs[i], 1))
                  .front();
          const std::uint64_t bits = std::bit_cast<std::uint64_t>(whole[i]);
          ASSERT_EQ(std::bit_cast<std::uint64_t>(
                        backwards[archs.size() - 1 - i]),
                    bits)
              << label << ", reversed, arch " << i;
          ASSERT_EQ(std::bit_cast<std::uint64_t>(alone), bits)
              << label << ", batch of one, arch " << i;
          ASSERT_EQ(std::bit_cast<std::uint64_t>(model.predict_ms(archs[i])),
                    bits)
              << label << ", predict_ms, arch " << i;
        }
        ++combos;
      }
    }
  }
  EXPECT_EQ(combos, 60u);
}

// ------------------------------------------------------- artifact format

TEST(SurrogateArtifactTest, LoadRejectsMissingHeader) {
  const std::string path = testing::TempDir() + "/esm_headerless.esm";
  {
    ArchiveWriter writer;
    writer.put_int("something", 1);
    writer.save(path);
  }
  EXPECT_THROW(load_surrogate(path), ConfigError);
  std::remove(path.c_str());
}

TEST(SurrogateArtifactTest, LoadRejectsUnknownFormatVersion) {
  const std::string path = testing::TempDir() + "/esm_future.esm";
  {
    ArchiveWriter writer;
    writer.put_int("esm.format", kSurrogateFormatVersion + 1);
    writer.put_string("esm.kind", "mlp");
    writer.put_string("esm.encoder", "fcc");
    writer.save(path);
  }
  try {
    (void)load_surrogate(path);
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("unsupported surrogate artifact"),
              std::string::npos)
        << e.what();
  }
  std::remove(path.c_str());
}

TEST(SurrogateArtifactTest, LoadRejectsUnknownKind) {
  const std::string path = testing::TempDir() + "/esm_unknown_kind.esm";
  {
    ArchiveWriter writer;
    writer.put_int("esm.format", kSurrogateFormatVersion);
    writer.put_string("esm.kind", "svm");
    writer.put_string("esm.encoder", "fcc");
    resnet_spec().save(writer, "spec");
    writer.save(path);
  }
  EXPECT_THROW(load_surrogate(path), ConfigError);
  std::remove(path.c_str());
}

TEST(SurrogateArtifactTest, LoadedLutServesTableOnlyAndThrowsOnUnseen) {
  const SupernetSpec spec = resnet_spec();
  SimulatedDevice device(rtx4090_spec(), 5);
  Rng rng(6);
  BalancedSampler sampler(spec, 4);
  // Warm on shallow archs only so deep ones contain unseen layer shapes...
  std::vector<ArchConfig> shallow;
  for (int i = 0; i < 8; ++i) shallow.push_back(sampler.sample_in_bin(0, rng));
  LutSurrogate lut(spec, device);
  lut.warm_table(shallow);

  const std::string path = testing::TempDir() + "/esm_partial_lut.esm";
  save_surrogate(lut, path);
  const std::unique_ptr<TrainableSurrogate> restored = load_surrogate(path);
  std::remove(path.c_str());

  // ...the warmed archs still price identically without a device...
  for (const ArchConfig& arch : shallow) {
    EXPECT_DOUBLE_EQ(restored->predict_ms(arch), lut.predict_ms(arch));
  }
  // ...while unprofiled shapes raise a clear error instead of profiling.
  bool threw = false;
  for (int i = 0; i < 8; ++i) {
    const ArchConfig deep = sampler.sample_in_bin(3, rng);
    try {
      (void)restored->predict_ms(deep);
    } catch (const ConfigError& e) {
      threw = true;
      EXPECT_NE(std::string(e.what()).find("no device"), std::string::npos)
          << e.what();
      break;
    }
  }
  EXPECT_TRUE(threw);
}

// ------------------------------------------------- artifact-bytes golden

/// CRC32 of the artifact bytes `save_surrogate_atomic` writes for `kind` x
/// `encoder` fitted on one fixed tiny ResNet dataset.
std::string artifact_crc(const std::string& kind, const std::string& encoder) {
  SimulatedDevice device(rtx4090_spec(), 77);
  const Fitted fitted = fit_combo(kind, encoder, resnet_spec(), device);
  const std::string path =
      testing::TempDir() + "/esm_golden_" + kind + "_" + encoder + ".esm";
  const std::string crc = save_surrogate_atomic(*fitted.surrogate, path);
  std::remove(path.c_str());
  return crc;
}

TEST(ArtifactGoldenTest, SavedBytesMatchRecordedCrc32) {
  // Recorded before the encodings and surrogate families moved into fixed
  // tables; a change to any of these bytes breaks every published artifact.
  const std::vector<std::tuple<std::string, std::string, std::string>>
      golden = {
          {"mlp", "onehot", "7fc1e759"},   {"mlp", "feature", "72411400"},
          {"mlp", "stat", "843d049d"},     {"mlp", "fc", "dfd0a245"},
          {"mlp", "fcc", "e98b2c6e"},      {"lut", "fcc", "132de052"},
          {"gbdt", "fcc", "bfe41312"},     {"ensemble", "fcc", "d92ab46e"},
      };
  for (const auto& [kind, encoder, crc] : golden) {
    EXPECT_EQ(artifact_crc(kind, encoder), crc) << kind << " x " << encoder;
  }
}

// ---------------------------------------------- property: full round-trip

using ComboParam = std::tuple<std::string, std::string, std::string>;

class RoundTripTest : public ::testing::TestWithParam<ComboParam> {};

TEST_P(RoundTripTest, FitSaveLoadPredictsBitIdentically) {
  const auto& [kind, encoder_key, space] = GetParam();
  const SupernetSpec spec = spec_by_name(space);
  SimulatedDevice device(rtx4090_spec(), 77);
  const Fitted fitted = fit_combo(kind, encoder_key, spec, device);
  ASSERT_TRUE(fitted.surrogate->fitted());
  EXPECT_EQ(fitted.surrogate->kind(), kind);
  EXPECT_EQ(fitted.surrogate->encoder_key(), encoder_key);

  // In-process predictions first: for the LUT this also freezes the memo
  // table the artifact must carry.
  const std::vector<double> expected =
      fitted.surrogate->predict_all(fitted.archs);

  const std::string path = testing::TempDir() + "/esm_rt_" + kind + "_" +
                           encoder_key + "_" + space + ".esm";
  save_surrogate(*fitted.surrogate, path);
  const std::unique_ptr<TrainableSurrogate> restored = load_surrogate(path);
  std::remove(path.c_str());

  EXPECT_EQ(restored->kind(), kind);
  EXPECT_EQ(restored->encoder_key(), encoder_key);
  EXPECT_EQ(restored->spec().name, spec.name);
  EXPECT_EQ(restored->name(), fitted.surrogate->name());
  const std::vector<double> actual = restored->predict_all(fitted.archs);
  ASSERT_EQ(actual.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(actual[i], expected[i]) << kind << "x" << encoder_key << " on "
                                      << space << ", arch " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllCombos, RoundTripTest,
    ::testing::Combine(::testing::Values("mlp", "lut", "gbdt", "ensemble"),
                       ::testing::Values("onehot", "feature", "stat", "fc",
                                         "fcc"),
                       ::testing::Values("resnet", "mobilenetv3",
                                         "densenet")),
    [](const ::testing::TestParamInfo<ComboParam>& combo) {
      return std::get<0>(combo.param) + "_" + std::get<1>(combo.param) + "_" +
             std::get<2>(combo.param);
    });

}  // namespace
}  // namespace esm
