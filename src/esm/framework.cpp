#include "esm/framework.hpp"

#include <chrono>
#include <iterator>
#include <span>
#include <utility>

#include "common/error.hpp"
#include "esm/extension.hpp"
#include "surrogate/registry.hpp"

namespace esm {

EsmResult run_esm_loop(const EsmConfig& config,
                       std::vector<MeasuredSample> train_set,
                       std::vector<MeasuredSample> test_set,
                       const MeasureFn& measure, Rng& extension_rng,
                       std::uint64_t predictor_seed, SimulatedDevice& device) {
  ESM_REQUIRE(!train_set.empty() && !test_set.empty(),
              "the loop needs non-empty train and held-out test sets");
  SurrogateContext context;
  context.spec = config.spec;
  context.encoder = config.encoder;
  context.train = config.train;
  context.seed = predictor_seed;
  context.device = &device;
  context.ensemble_members = config.ensemble_members;
  const BinwiseEvaluator evaluator(config.spec, config.n_bins,
                                   config.acc_threshold);

  EsmResult result;
  result.train_set = std::move(train_set);
  result.test_set = std::move(test_set);
  // Training views grow incrementally instead of being rebuilt from the
  // sample structs every iteration.
  std::vector<ArchConfig> archs;
  std::vector<double> latencies;
  const auto append_views = [&](std::span<const MeasuredSample> samples) {
    archs.reserve(archs.size() + samples.size());
    latencies.reserve(latencies.size() + samples.size());
    for (const MeasuredSample& s : samples) {
      archs.push_back(s.arch);
      latencies.push_back(s.latency_ms);
    }
  };
  append_views(result.train_set);

  double measured_cost_before = device.measurement_cost_seconds();
  for (int iteration = 1; iteration <= config.max_iterations; ++iteration) {
    // Train from scratch on the current dataset (the paper retrains after
    // every extension).
    auto predictor =
        SurrogateRegistry::instance().create(config.surrogate, context);
    const auto fit_start = std::chrono::steady_clock::now();
    predictor->fit(SurrogateDataset{archs, latencies});
    const std::chrono::duration<double> fit_elapsed =
        std::chrono::steady_clock::now() - fit_start;

    IterationReport report;
    report.iteration = iteration;
    report.train_set_size = result.train_set.size();
    report.train_seconds = fit_elapsed.count();
    report.eval = evaluator.evaluate(*predictor, result.test_set);
    report.passed =
        report.eval.passed(config.eval_strategy, config.acc_threshold);
    const double measured_cost_now = device.measurement_cost_seconds();
    report.measurement_seconds = measured_cost_now - measured_cost_before;
    measured_cost_before = measured_cost_now;

    result.total_train_seconds += report.train_seconds;
    result.iterations.push_back(report);
    result.predictor = std::move(predictor);

    if (report.passed) {
      result.converged = true;
      break;
    }
    if (iteration == config.max_iterations) break;

    // Extend the dataset (Algorithm 1) and measure the new samples.
    std::vector<MeasuredSample> extra =
        measure(extend_dataset(config, report.eval, extension_rng));
    append_views(extra);
    result.train_set.insert(result.train_set.end(),
                            std::make_move_iterator(extra.begin()),
                            std::make_move_iterator(extra.end()));
  }

  result.final_train_set_size = result.train_set.size();
  result.total_measurement_seconds = device.measurement_cost_seconds();
  return result;
}

EsmFramework::EsmFramework(EsmConfig config, SimulatedDevice& device)
    : config_(std::move(config)), device_(&device) {
  config_.validate();
}

EsmResult EsmFramework::run() { return run_impl(std::nullopt); }

EsmResult EsmFramework::run(std::vector<MeasuredSample> test_set) {
  return run_impl(std::move(test_set));
}

EsmResult EsmFramework::run_impl(
    std::optional<std::vector<MeasuredSample>> test_set) {
  Rng rng(config_.seed);
  DatasetGenerator generator(config_, *device_, rng.split());
  const MeasureFn measure = [&](const std::vector<ArchConfig>& archs) {
    return generator.measure_batch(archs).samples;
  };

  // Held-out evaluation set: balanced so every depth bin is represented
  // (an all-random test set would leave corner bins untested). The RNG
  // split happens either way so a supplied test set leaves every
  // downstream sampling stream unchanged.
  Rng test_rng = rng.split();
  if (!test_set.has_value()) {
    BalancedSampler test_sampler(config_.spec, config_.n_bins);
    test_set = measure(test_sampler.sample_n(
        static_cast<std::size_t>(config_.n_test), test_rng));
  }

  // Initial training set (input N_I) under the configured strategy; the
  // same stream then draws every extension.
  Rng sample_rng = rng.split();
  std::vector<MeasuredSample> train_set =
      measure(make_sampler(config_.spec, config_.strategy, config_.n_bins)
                  ->sample_n(static_cast<std::size_t>(config_.n_initial),
                             sample_rng));
  return run_esm_loop(config_, std::move(train_set), std::move(*test_set),
                      measure, sample_rng, config_.seed ^ 0xe5717a7eull,
                      *device_);
}

}  // namespace esm
