#include "esm/pipeline.hpp"

#include <algorithm>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/fsio.hpp"
#include "esm/framework.hpp"
#include "hwsim/device.hpp"
#include "nets/sampler.hpp"
#include "serve/fleet.hpp"
#include "surrogate/registry.hpp"

namespace esm {
namespace {

/// One journaled measurement campaign: a device, generator and arch stream
/// seeded from `seed` alone, so a rerun issues the identical requests and
/// the journal answers every batch it holds.
struct Campaign {
  Campaign(const PipelineConfig& pipeline, std::string journal_path,
           std::uint64_t seed)
      : config([&] {
          EsmConfig stage = pipeline.esm;
          stage.seed = seed;
          // Resume always: a missing journal is an empty resume.
          stage.journal = {std::move(journal_path), true, pipeline.durable};
          return stage;
        }()),
        device(device_by_name(pipeline.device), seed),
        generator(config, device, Rng(seed).split()),
        arch_rng(seed ^ 0x7e57a5c5ull),
        batch_size(pipeline.batch_size) {}

  /// Measures `archs` in `batch_size` chunks, one journal record each.
  std::vector<MeasuredSample> measure(const std::vector<ArchConfig>& archs) {
    const std::size_t step = batch_size > 0 ? batch_size : archs.size();
    std::vector<MeasuredSample> samples;
    for (std::size_t begin = 0; begin < archs.size(); begin += step) {
      const std::size_t end = std::min(begin + step, archs.size());
      const BatchResult batch = generator.measure_batch(
          std::vector<ArchConfig>(archs.begin() + begin, archs.begin() + end));
      samples.insert(samples.end(), batch.samples.begin(),
                     batch.samples.end());
    }
    return samples;
  }

  std::vector<MeasuredSample> sample_and_measure(SamplingStrategy strategy,
                                                 int count) {
    return measure(make_sampler(config.spec, strategy, config.n_bins)
                       ->sample_n(static_cast<std::size_t>(count), arch_rng));
  }

  EsmConfig config;
  SimulatedDevice device;
  DatasetGenerator generator;
  Rng arch_rng;
  std::size_t batch_size;
};

}  // namespace

void PipelineConfig::validate() const {
  ESM_REQUIRE(serve::valid_model_name(model_name),
              "invalid model name '"
                  << model_name
                  << "' (must match [A-Za-z][A-Za-z0-9_.-]*)");
  ESM_REQUIRE(!manifest_dir.empty(), "pipeline needs a --manifest-dir");
  ESM_REQUIRE(!manifest_file.empty(), "pipeline manifest file name is empty");
  ESM_REQUIRE(!device.empty(), "pipeline needs a device");
  esm.validate();
}

PipelineResult run_pipeline(const PipelineConfig& config) {
  config.validate();
  make_dirs(config.manifest_dir + "/.pipeline");

  PipelineResult result;
  const std::string journal_stem =
      config.manifest_dir + "/.pipeline/" + config.model_name;

  // Stages 1-2: journaled measurement. Distinct stage seeds keep the two
  // campaigns (and their journals) independent; both derive only from the
  // config, so a rerun issues the identical campaigns.
  Campaign train(config, journal_stem + ".train.journal", config.esm.seed);
  Campaign test(config, journal_stem + ".test.journal",
                config.esm.seed ^ 0x9e3779b97f4a7c15ull);
  std::vector<MeasuredSample> train_set =
      train.sample_and_measure(config.esm.strategy, config.esm.n_initial);
  std::vector<MeasuredSample> test_set = test.sample_and_measure(
      SamplingStrategy::kBalanced, config.esm.n_test);
  result.test_measured = test_set.size();

  // Stages 3-4: the loop. Extension archs come from the train campaign's
  // arch stream and the eval report alone and land as train-journal
  // records, so a rerun re-derives every round and the journal replays it.
  // The LUT family profiles its context device: a separate seeded one.
  SimulatedDevice train_device(device_by_name(config.device),
                               config.esm.seed);
  const EsmResult loop = run_esm_loop(
      config.esm, std::move(train_set), std::move(test_set),
      [&](const std::vector<ArchConfig>& archs) {
        return train.measure(archs);
      },
      train.arch_rng, config.esm.seed, train_device);
  result.train_measured = loop.final_train_set_size;
  result.iterations = static_cast<int>(loop.iterations.size());
  result.replayed_batches =
      train.generator.replayed_batches() + test.generator.replayed_batches();
  result.eval = loop.iterations.back().eval;
  result.gate_passed = loop.converged;
  if (!result.gate_passed) return result;

  // Stage 5: publish, artifact before manifest. Both writes are atomic;
  // a crash between them leaves the manifest referencing the previous
  // artifact state, and the rerun converges to the same final bytes.
  result.artifact_path =
      config.manifest_dir + "/" + config.model_name + ".esm";
  result.artifact_crc32 =
      save_surrogate_atomic(*loop.predictor, result.artifact_path);

  result.manifest_path = config.manifest_dir + "/" + config.manifest_file;
  serve::FleetManifest manifest;
  if (path_exists(result.manifest_path)) {
    manifest = serve::FleetManifest::load(result.manifest_path);
  }
  serve::ManifestEntry entry;
  entry.name = config.model_name;
  entry.crc32_hex = result.artifact_crc32;
  entry.path = config.model_name + ".esm";  // relative to the manifest dir
  manifest.upsert(entry);
  serve::write_manifest_atomic(manifest, result.manifest_path);
  result.published = true;
  return result;
}

}  // namespace esm
