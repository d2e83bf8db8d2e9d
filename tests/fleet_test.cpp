// Tests for fleet building blocks below the server: manifest parsing and
// its failure-mode matrix (bad magic, duplicate names, malformed CRCs,
// missing defaults), atomic manifest writes, ModelFleet::load's
// all-or-nothing contract (missing artifact, CRC mismatch, garbage bytes —
// each error naming the offending entry, nothing published, the staged
// generation counter untouched), carry-over of unchanged models across
// loads, the durable-I/O primitives they ride on, and the measure -> train
// -> extend -> gate -> publish pipeline: gate failures never publish, and a
// rerun — after completion, after a simulated crash between artifact and
// manifest, after losing a journal, or after a kill at any record of its
// extension rounds — converges to a byte-identical published state.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/fsio.hpp"
#include "common/rng.hpp"
#include "encoding/registry.hpp"
#include "esm/pipeline.hpp"
#include "hwsim/device.hpp"
#include "ml/gbdt.hpp"
#include "nets/builder.hpp"
#include "nets/sampler.hpp"
#include "nets/supernet.hpp"
#include "serve/fleet.hpp"
#include "serve/metrics.hpp"
#include "serve/protocol.hpp"
#include "surrogate/gbdt_surrogate.hpp"
#include "surrogate/registry.hpp"

namespace esm {
namespace {

/// A small trained artifact under TempDir; `label_scale` makes variants
/// with genuinely different bytes (and CRCs).
std::string build_artifact(const std::string& name, double label_scale) {
  const SupernetSpec spec = resnet_spec();
  SimulatedDevice device(rtx4090_spec(), 7);
  Rng rng(0x5eed);
  BalancedSampler sampler(spec, 4);
  const std::vector<ArchConfig> archs = sampler.sample_n(32, rng);
  std::vector<double> labels;
  labels.reserve(archs.size());
  for (const ArchConfig& arch : archs) {
    labels.push_back(label_scale *
                     device.true_latency_ms(build_graph(spec, arch)));
  }
  GbdtConfig gbdt;
  gbdt.n_estimators = 10;
  GbdtSurrogate surrogate(make_encoder("fcc", spec), gbdt);
  surrogate.fit(SurrogateDataset{archs, labels});
  const std::string path = testing::TempDir() + "/" + name;
  save_surrogate(surrogate, path);
  return path;
}

/// A per-test scratch directory under TempDir, wiped of any state a prior
/// run of this binary may have left (gtest's TempDir persists across runs).
std::string fresh_dir(const std::string& name) {
  const std::string dir = testing::TempDir() + "/" + name;
  std::filesystem::remove_all(dir);
  make_dirs(dir);
  return dir;
}

/// What a thrown ConfigError must mention, asserted with context.
void expect_throw_mentioning(const std::function<void()>& fn,
                             const std::string& needle,
                             const std::string& context) {
  try {
    fn();
    FAIL() << context << ": expected a ConfigError mentioning '" << needle
           << "'";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << context << ": error was '" << e.what() << "'";
  }
}

// ------------------------------------------------------------- model names

TEST(FleetManifestTest, ValidModelNames) {
  EXPECT_TRUE(serve::valid_model_name("a"));
  EXPECT_TRUE(serve::valid_model_name("rpi4"));
  EXPECT_TRUE(serve::valid_model_name("Gpu-fp16.v2_3"));
  EXPECT_FALSE(serve::valid_model_name(""));
  EXPECT_FALSE(serve::valid_model_name("_unrouted"));  // reserved prefix
  EXPECT_FALSE(serve::valid_model_name("4090"));       // digit lead = arch
  EXPECT_FALSE(serve::valid_model_name("-x"));
  EXPECT_FALSE(serve::valid_model_name("a b"));
  EXPECT_FALSE(serve::valid_model_name("a/b"));
}

// ----------------------------------------------------------- manifest text

TEST(FleetManifestTest, ParsesCommentsRelativePathsAndSpaces) {
  const std::string text =
      "esm-fleet v1\n"
      "# fleet of two\n"
      "default rpi4\n"
      "model rpi4 0a1b2c3d models/rpi4.esm   # trailing comment\n"
      "model gpu deadbeef models/dir with spaces/gpu.esm\n";
  const serve::FleetManifest m = serve::FleetManifest::parse(text, "test");
  ASSERT_EQ(m.entries.size(), 2u);
  EXPECT_EQ(m.default_model, "rpi4");
  EXPECT_EQ(m.entries[0].name, "rpi4");
  EXPECT_EQ(m.entries[0].crc32_hex, "0a1b2c3d");
  EXPECT_EQ(m.entries[0].path, "models/rpi4.esm");
  EXPECT_EQ(m.entries[1].path, "models/dir with spaces/gpu.esm");
  // The canonical form round-trips through parse().
  const serve::FleetManifest again =
      serve::FleetManifest::parse(m.to_string(), "round-trip");
  EXPECT_EQ(again.to_string(), m.to_string());
}

TEST(FleetManifestTest, LooksLikeManifestSniffsTheMagicLine) {
  EXPECT_TRUE(serve::FleetManifest::looks_like_manifest("esm-fleet v1\n"));
  EXPECT_TRUE(serve::FleetManifest::looks_like_manifest("esm-fleet v1\r\nx"));
  EXPECT_FALSE(serve::FleetManifest::looks_like_manifest("esm-fleet v2\n"));
  EXPECT_FALSE(serve::FleetManifest::looks_like_manifest("esm1 archive\n"));
  EXPECT_FALSE(serve::FleetManifest::looks_like_manifest(""));
}

TEST(FleetManifestTest, RejectsMalformedManifests) {
  const std::vector<std::pair<const char*, const char*>> matrix = {
      {"", "empty fleet manifest"},
      {"esm-fleet v2\n", "not a fleet manifest"},
      {"model a 00000000 a.esm\n", "not a fleet manifest"},
      {"esm-fleet v1\n", "lists no models"},
      {"esm-fleet v1\ndefault a\n", "lists no models"},
      {"esm-fleet v1\nmodel a 00000000 a.esm\n", "no 'default"},
      {"esm-fleet v1\ndefault a\ndefault a\nmodel a 00000000 a.esm\n",
       "duplicate 'default'"},
      {"esm-fleet v1\ndefault b\nmodel a 00000000 a.esm\n",
       "not a listed entry"},
      {"esm-fleet v1\ndefault a\nmodel a 00000000 a.esm\n"
       "model a 00000000 b.esm\n",
       "duplicate model name"},
      {"esm-fleet v1\ndefault a\nmodel a zzzzzzzz a.esm\n",
       "malformed crc32"},
      {"esm-fleet v1\ndefault a\nmodel a 00000000\n", "no artifact path"},
      {"esm-fleet v1\ndefault a\nmodel a\n", "needs <name> <crc32> <path>"},
      {"esm-fleet v1\ndefault\n", "'default' needs a name"},
      {"esm-fleet v1\ndefault a extra\nmodel a 00000000 a.esm\n",
       "trailing tokens"},
      {"esm-fleet v1\nflotilla a\n", "unknown keyword"},
      {"esm-fleet v1\ndefault 4bad\nmodel 4bad 00000000 a.esm\n",
       "invalid model name"},
  };
  for (const auto& [text, needle] : matrix) {
    expect_throw_mentioning(
        [text = text] { serve::FleetManifest::parse(text, "m.esmf"); },
        needle, std::string("manifest '") + text + "'");
  }
}

TEST(FleetManifestTest, UpsertPreservesOrderAndDefault) {
  serve::FleetManifest m;
  m.upsert({"a", "00000001", "a.esm"});
  m.upsert({"b", "00000002", "b.esm"});
  EXPECT_EQ(m.default_model, "a");  // first model added becomes the default
  m.upsert({"a", "0000000a", "a2.esm"});
  ASSERT_EQ(m.entries.size(), 2u);
  EXPECT_EQ(m.entries[0].name, "a");  // replaced in place, order stable
  EXPECT_EQ(m.entries[0].crc32_hex, "0000000a");
  EXPECT_EQ(m.entries[0].path, "a2.esm");
  EXPECT_EQ(m.default_model, "a");
  EXPECT_EQ(m.find("b"), 1u);
  EXPECT_EQ(m.find("zzz"), static_cast<std::size_t>(-1));
}

TEST(FleetManifestTest, WriteManifestAtomicRoundTripsThroughLoad) {
  serve::FleetManifest m;
  m.upsert({"edge", "00c0ffee", "edge.esm"});
  const std::string path = testing::TempDir() + "/wma.esmf";
  serve::write_manifest_atomic(m, path);
  EXPECT_EQ(serve::FleetManifest::load(path).to_string(), m.to_string());
  // An invalid manifest is refused before any bytes reach the path.
  serve::FleetManifest bad;
  EXPECT_THROW(serve::write_manifest_atomic(bad, path), ConfigError);
  EXPECT_EQ(serve::FleetManifest::load(path).to_string(), m.to_string());
}

// ----------------------------------------------------------- durable I/O

TEST(FsioTest, MakeDirsPathExistsAndAtomicWrite) {
  const std::string root = testing::TempDir() + "/fsio_nested";
  std::filesystem::remove_all(root);
  const std::string deep = root + "/a/b/c";
  EXPECT_FALSE(path_exists(deep));
  make_dirs(deep);
  EXPECT_TRUE(path_exists(deep));
  make_dirs(deep);  // idempotent
  const std::string file = deep + "/x.txt";
  write_file_atomic(file, "one");
  EXPECT_EQ(read_file(file, "test file"), "one");
  write_file_atomic(file, "two");
  EXPECT_EQ(read_file(file, "test file"), "two");
  EXPECT_TRUE(path_exists(file));
  EXPECT_THROW(read_file(deep + "/missing", "test file"), ConfigError);
}

// ----------------------------------------------------------- fleet loading

TEST(ModelFleetTest, LoadFailuresNameTheEntryAndDrawNoGenerations) {
  const std::string good = build_artifact("fleet_good.esm", 1.0);
  const std::string dir = testing::TempDir();

  // Entry 'ghost' references a missing artifact.
  serve::FleetManifest missing;
  missing.upsert({"ok", serve::file_crc32_hex(good), good});
  missing.upsert({"ghost", "00000000", dir + "/fleet_nope.esm"});
  serve::write_manifest_atomic(missing, dir + "/fleet_missing.esmf");

  // Entry 'tampered' lies about its artifact's CRC.
  serve::FleetManifest mismatched;
  mismatched.upsert({"ok", serve::file_crc32_hex(good), good});
  mismatched.upsert({"tampered", "deadbeef", good});
  serve::write_manifest_atomic(mismatched, dir + "/fleet_crc.esmf");

  // Entry 'junk' has a truthful CRC over bytes that are not an artifact.
  const std::string garbage = dir + "/fleet_garbage.esm";
  write_file_atomic(garbage, "these bytes are not an artifact");
  serve::FleetManifest junk;
  junk.upsert({"ok", serve::file_crc32_hex(good), good});
  junk.upsert({"junk", serve::file_crc32_hex(garbage), garbage});
  serve::write_manifest_atomic(junk, dir + "/fleet_junk.esmf");

  const std::vector<std::pair<std::string, const char*>> matrix = {
      {dir + "/fleet_missing.esmf", "ghost"},
      {dir + "/fleet_crc.esmf", "tampered"},
      {dir + "/fleet_junk.esmf", "junk"},
  };
  for (const auto& [manifest, entry] : matrix) {
    std::uint64_t generation_counter = 7;
    serve::ServerMetrics metrics;
    expect_throw_mentioning(
        [&] {
          serve::ModelFleet::load(manifest, nullptr, generation_counter, 16,
                                  1, metrics);
        },
        entry, manifest);
    // All-or-nothing: a failed load draws nothing from the counter.
    EXPECT_EQ(generation_counter, 7u) << manifest;
  }
}

TEST(ModelFleetTest, ResolvesRelativePathsAgainstTheManifestDirectory) {
  const std::string dir = fresh_dir("fleet_rel");
  const std::string artifact = build_artifact("fleet_rel_src.esm", 1.0);
  write_file_atomic(dir + "/a.esm", read_file(artifact, "artifact"));
  serve::FleetManifest m;
  m.upsert({"a", serve::file_crc32_hex(artifact), "a.esm"});
  serve::write_manifest_atomic(m, dir + "/manifest.esmf");

  std::uint64_t generation_counter = 0;
  serve::ServerMetrics metrics;
  const std::shared_ptr<const serve::ModelFleet> fleet =
      serve::ModelFleet::load(dir + "/manifest.esmf", nullptr,
                              generation_counter, 16, 1, metrics);
  ASSERT_NE(fleet->find("a"), nullptr);
  EXPECT_EQ(fleet->find("a")->artifact_path, dir + "/a.esm");
  EXPECT_EQ(fleet->default_model().name, "a");
  EXPECT_TRUE(fleet->from_manifest());
  EXPECT_EQ(fleet->manifest_crc32(),
            serve::file_crc32_hex(dir + "/manifest.esmf"));
  EXPECT_EQ(generation_counter, 1u);
}

TEST(ModelFleetTest, CarryOverKeepsModelGenerationAndCacheWhenUnchanged) {
  const std::string stable = build_artifact("fleet_stable.esm", 1.0);
  const std::string v1 = build_artifact("fleet_v1.esm", 1.2);
  const std::string v2 = build_artifact("fleet_v2.esm", 1.5);
  const std::string path = testing::TempDir() + "/fleet_carry.esmf";

  serve::FleetManifest first;
  first.upsert({"a", serve::file_crc32_hex(stable), stable});
  first.upsert({"b", serve::file_crc32_hex(v1), v1});
  serve::write_manifest_atomic(first, path);
  std::uint64_t generation_counter = 0;
  serve::ServerMetrics metrics;
  const std::shared_ptr<const serve::ModelFleet> fleet1 =
      serve::ModelFleet::load(path, nullptr, generation_counter, 16, 1,
                              metrics);
  EXPECT_EQ(fleet1->find("a")->generation, 1u);
  EXPECT_EQ(fleet1->find("b")->generation, 2u);
  fleet1->find("a")->cache->put("warm", 42.0);

  // 'a' is byte-identical in the new manifest; 'b' changed artifacts.
  serve::FleetManifest second = first;
  second.upsert({"b", serve::file_crc32_hex(v2), v2});
  serve::write_manifest_atomic(second, path);
  const std::shared_ptr<const serve::ModelFleet> fleet2 =
      serve::ModelFleet::load(path, fleet1.get(), generation_counter, 16, 1,
                              metrics);

  // Unchanged entry: same loaded instance, generation, and warm cache.
  EXPECT_EQ(fleet2->find("a")->generation, 1u);
  EXPECT_EQ(fleet2->find("a")->model, fleet1->find("a")->model);
  EXPECT_EQ(fleet2->find("a")->cache, fleet1->find("a")->cache);
  EXPECT_EQ(fleet2->find("a")->cache->get("warm"), 42.0);
  // Every model keeps its stats section by name, changed or not.
  EXPECT_EQ(fleet2->find("a")->metrics, metrics.model_section("a"));
  EXPECT_EQ(fleet2->find("b")->metrics, fleet1->find("b")->metrics);
  // Changed entry: fresh instance and generation.
  EXPECT_EQ(fleet2->find("b")->generation, 3u);
  EXPECT_NE(fleet2->find("b")->model, fleet1->find("b")->model);
  EXPECT_EQ(generation_counter, 3u);
}

// -------------------------------------------------------------- pipeline

/// A small, fast pipeline config publishing into `dir`.
PipelineConfig small_pipeline(const std::string& dir,
                              const std::string& name) {
  PipelineConfig config;
  config.esm.spec = resnet_spec();
  config.esm.surrogate = "gbdt";
  config.esm.encoder = "fcc";
  config.esm.n_initial = 32;
  config.esm.n_test = 20;
  config.esm.n_bins = 4;
  config.esm.acc_threshold = 0.6;
  config.esm.eval_strategy = EvalStrategy::kOverall;
  config.esm.seed = 11;
  config.device = "rtx4090";
  config.model_name = name;
  config.manifest_dir = dir;
  config.batch_size = 8;  // several journal records per stage
  config.durable = false;
  return config;
}

TEST(PipelineTest, RejectsBadConfigs) {
  PipelineConfig config = small_pipeline("/tmp/x", "edge");
  config.model_name = "4bad";
  EXPECT_THROW(config.validate(), ConfigError);
  config = small_pipeline("/tmp/x", "edge");
  config.manifest_dir = "";
  EXPECT_THROW(config.validate(), ConfigError);
  config = small_pipeline("/tmp/x", "edge");
  config.device = "";
  EXPECT_THROW(config.validate(), ConfigError);
}

TEST(PipelineTest, PublishesGatedModelsIntoOneLoadableManifest) {
  const std::string dir = fresh_dir("fleet_pipe_pub");
  const PipelineResult first = run_pipeline(small_pipeline(dir, "edge"));
  ASSERT_TRUE(first.gate_passed)
      << "overall accuracy " << first.eval.overall_accuracy;
  ASSERT_TRUE(first.published);
  EXPECT_EQ(first.iterations, 1);
  EXPECT_EQ(first.train_measured, 32u);
  EXPECT_EQ(first.test_measured, 20u);
  EXPECT_EQ(first.replayed_batches, 0u);
  EXPECT_EQ(first.artifact_crc32,
            serve::file_crc32_hex(first.artifact_path));

  // A second model upserts into the same manifest without disturbing the
  // first entry or the default.
  const PipelineResult second = run_pipeline(small_pipeline(dir, "cloud"));
  ASSERT_TRUE(second.published);
  const serve::FleetManifest manifest =
      serve::FleetManifest::load(first.manifest_path);
  ASSERT_EQ(manifest.entries.size(), 2u);
  EXPECT_EQ(manifest.default_model, "edge");
  EXPECT_EQ(manifest.entries[0].name, "edge");
  EXPECT_EQ(manifest.entries[1].name, "cloud");

  // The published manifest is fully servable.
  std::uint64_t generation_counter = 0;
  serve::ServerMetrics metrics;
  const std::shared_ptr<const serve::ModelFleet> fleet =
      serve::ModelFleet::load(first.manifest_path, nullptr,
                              generation_counter, 16, 1, metrics);
  ASSERT_EQ(fleet->models().size(), 2u);
  const ArchConfig arch =
      serve::parse_arch_request(fleet->find("edge")->model->spec(),
                                "3,5,2,7");
  EXPECT_TRUE(std::isfinite(fleet->find("edge")->model->predict_ms(arch)));
  EXPECT_TRUE(std::isfinite(fleet->find("cloud")->model->predict_ms(arch)));
}

// Acceptance criterion: no matter where a previous attempt stopped —
// after completion, between the artifact and manifest writes, or with a
// journal lost mid-measurement — a rerun converges to a byte-identical
// published manifest and artifact.
TEST(PipelineTest, RerunConvergesToByteIdenticalPublishedState) {
  const std::string dir = fresh_dir("fleet_pipe_rerun");
  const PipelineConfig config = small_pipeline(dir, "edge");
  const PipelineResult first = run_pipeline(config);
  ASSERT_TRUE(first.published);
  const std::string manifest_bytes =
      read_file(first.manifest_path, "manifest");
  const std::string artifact_bytes =
      read_file(first.artifact_path, "artifact");

  // Rerun of a completed pipeline: every batch replays from the journals.
  const PipelineResult again = run_pipeline(config);
  ASSERT_TRUE(again.published);
  EXPECT_GT(again.replayed_batches, 0u);
  EXPECT_EQ(read_file(again.manifest_path, "manifest"), manifest_bytes);
  EXPECT_EQ(read_file(again.artifact_path, "artifact"), artifact_bytes);

  // Crash between artifact and manifest (artifact gone, journals intact).
  std::remove(first.artifact_path.c_str());
  ASSERT_TRUE(run_pipeline(config).published);
  EXPECT_EQ(read_file(first.artifact_path, "artifact"), artifact_bytes);
  EXPECT_EQ(read_file(first.manifest_path, "manifest"), manifest_bytes);

  // Crash that lost the stage-2 journal: the test set is re-measured
  // deterministically and the output still converges.
  std::remove((dir + "/.pipeline/edge.test.journal").c_str());
  ASSERT_TRUE(run_pipeline(config).published);
  EXPECT_EQ(read_file(first.artifact_path, "artifact"), artifact_bytes);
  EXPECT_EQ(read_file(first.manifest_path, "manifest"), manifest_bytes);
}

TEST(PipelineTest, GateFailureNeverPublishesAndTheRerunResumes) {
  const std::string dir = fresh_dir("fleet_pipe_gate");
  PipelineConfig config = small_pipeline(dir, "edge");
  // Unreachable bar for a 32-sample model: every bin at 99.99 %. One
  // iteration: the loop gives up without extending.
  config.esm.acc_threshold = 0.9999;
  config.esm.eval_strategy = EvalStrategy::kBinWise;
  config.esm.max_iterations = 1;

  const PipelineResult failed = run_pipeline(config);
  EXPECT_FALSE(failed.gate_passed);
  EXPECT_EQ(failed.iterations, 1);
  EXPECT_FALSE(failed.published);
  EXPECT_TRUE(failed.artifact_path.empty());
  EXPECT_FALSE(path_exists(dir + "/manifest.esmf"));
  EXPECT_FALSE(path_exists(dir + "/edge.esm"));

  // The measurements were not wasted: the gate is not part of the campaign
  // identity, so a relaxed rerun resumes from the journals (replaying, not
  // re-measuring) and publishes.
  config.esm.acc_threshold = 0.6;
  config.esm.eval_strategy = EvalStrategy::kOverall;
  const PipelineResult passed = run_pipeline(config);
  ASSERT_TRUE(passed.gate_passed);
  ASSERT_TRUE(passed.published);
  EXPECT_GT(passed.replayed_batches, 0u);
  EXPECT_TRUE(path_exists(dir + "/manifest.esmf"));
  EXPECT_TRUE(path_exists(dir + "/edge.esm"));
}

/// First `lines` lines of `text` (a journal cut after a record boundary).
std::string line_prefix(const std::string& text, std::size_t lines) {
  std::size_t pos = 0;
  for (std::size_t i = 0; i < lines; ++i) pos = text.find('\n', pos) + 1;
  return text.substr(0, pos);
}

std::size_t count_lines(const std::string& text) {
  return static_cast<std::size_t>(
      std::count(text.begin(), text.end(), '\n'));
}

// A pipeline that extends its dataset three times before every bin passes:
// each extension round lands as records in the train journal, so a kill
// at any record boundary (or mid-record) is resumed by replaying the
// rounds it re-derives, and the published bytes never change.
TEST(PipelineTest, KillAtAnyExtensionRecordConvergesToTheSameBytes) {
  const std::string ref_dir = fresh_dir("fleet_pipe_extend_ref");
  PipelineConfig config = small_pipeline(ref_dir, "edge");
  config.esm.eval_strategy = EvalStrategy::kBinWise;
  config.esm.acc_threshold = 0.75;
  config.esm.n_step = 16;
  config.esm.max_iterations = 8;
  const PipelineResult ref = run_pipeline(config);
  ASSERT_TRUE(ref.published);
  ASSERT_GE(ref.iterations, 3) << "the case must cross 2+ extension rounds";
  EXPECT_GT(ref.train_measured, 32u);
  const std::string manifest = read_file(ref.manifest_path, "manifest");
  const std::string artifact = read_file(ref.artifact_path, "artifact");
  const std::string train_journal =
      read_file(ref_dir + "/.pipeline/edge.train.journal", "train journal");
  const std::string test_journal =
      read_file(ref_dir + "/.pipeline/edge.test.journal", "test journal");
  // Magic and campaign header, then one line per measured batch.
  const std::size_t train_records = count_lines(train_journal) - 2;
  const std::size_t test_records = count_lines(test_journal) - 2;
  ASSERT_GT(train_records, 4u) << "initial batches plus extension rounds";

  const std::string dir = testing::TempDir() + "/fleet_pipe_extend_kill";
  config.manifest_dir = dir;
  const auto rerun_from = [&](const std::string& train_bytes,
                              std::size_t replayed,
                              const std::string& context) {
    std::filesystem::remove_all(dir);
    make_dirs(dir + "/.pipeline");
    write_file_atomic(dir + "/.pipeline/edge.train.journal", train_bytes);
    write_file_atomic(dir + "/.pipeline/edge.test.journal", test_journal);
    const PipelineResult rerun = run_pipeline(config);
    ASSERT_TRUE(rerun.published) << context;
    EXPECT_EQ(rerun.iterations, ref.iterations) << context;
    EXPECT_EQ(rerun.replayed_batches, test_records + replayed) << context;
    EXPECT_EQ(read_file(rerun.manifest_path, "manifest"), manifest)
        << context;
    EXPECT_EQ(read_file(rerun.artifact_path, "artifact"), artifact)
        << context;
    EXPECT_EQ(read_file(dir + "/.pipeline/edge.train.journal", "journal"),
              train_journal)
        << context;
  };
  // Killed before the header, then after each record.
  rerun_from("", 0, "empty train journal");
  for (std::size_t k = 0; k <= train_records; ++k) {
    rerun_from(line_prefix(train_journal, 2 + k), k,
               "train journal cut after record " + std::to_string(k));
  }
  // Killed mid-record: the torn tail is dropped and that batch re-measured.
  const std::size_t last = train_journal.rfind('\n', train_journal.size() - 2);
  rerun_from(train_journal.substr(0, last + 1 + 17), train_records - 1,
             "torn final record");

  // A rerun that re-derives a different extension round than the journal
  // holds is refused, never measured over: here N_Step changed.
  PipelineConfig changed = config;
  changed.manifest_dir = ref_dir;
  changed.esm.n_step = 12;
  expect_throw_mentioning([&] { run_pipeline(changed); },
                          "written for a different batch",
                          "rerun with a different N_Step");
  EXPECT_EQ(read_file(ref.artifact_path, "artifact"), artifact);
}

TEST(PipelineTest, ExhaustedIterationsPublishNothing) {
  const std::string dir = fresh_dir("fleet_pipe_exhaust");
  PipelineConfig config = small_pipeline(dir, "edge");
  config.esm.eval_strategy = EvalStrategy::kBinWise;
  config.esm.acc_threshold = 0.75;  // needs 4 iterations (see above)
  config.esm.n_step = 16;
  config.esm.max_iterations = 2;
  const PipelineResult result = run_pipeline(config);
  EXPECT_FALSE(result.gate_passed);
  EXPECT_FALSE(result.published);
  EXPECT_EQ(result.iterations, 2);
  EXPECT_GT(result.train_measured, 32u);  // it did extend once
  EXPECT_FALSE(path_exists(dir + "/manifest.esmf"));
  EXPECT_FALSE(path_exists(dir + "/edge.esm"));
}

}  // namespace
}  // namespace esm
