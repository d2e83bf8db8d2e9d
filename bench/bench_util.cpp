#include "bench_util.hpp"

#include <algorithm>
#include <ostream>

#include "common/error.hpp"
#include "common/stats.hpp"
#include "common/strings.hpp"
#include "ml/metrics.hpp"

namespace esm::bench {

EsmConfig dataset_config(const SupernetSpec& spec) {
  EsmConfig cfg;
  cfg.spec = spec;
  cfg.n_bins = 5;
  cfg.n_reference_models = 8;
  cfg.qc_variance_limit = 0.03;
  return cfg;
}

LabeledSet generate_dataset(const SupernetSpec& spec, SimulatedDevice& device,
                            SamplingStrategy strategy, std::size_t n,
                            std::uint64_t seed) {
  const EsmConfig cfg = dataset_config(spec);
  Rng rng(seed);
  DatasetGenerator generator(cfg, device, rng.split());
  auto sampler = make_sampler(spec, strategy, cfg.n_bins);
  Rng sample_rng = rng.split();

  LabeledSet set;
  // Measure in batches of 500 — each batch is one QC-controlled session,
  // matching how a long measurement campaign is actually split up.
  constexpr std::size_t kBatch = 500;
  std::size_t remaining = n;
  while (remaining > 0) {
    const std::size_t take = std::min(kBatch, remaining);
    const auto archs = sampler->sample_n(take, sample_rng);
    for (const MeasuredSample& s : generator.measure_batch(archs).samples) {
      set.add(s);
    }
    remaining -= take;
  }
  return set;
}

TrainConfig paper_train_config(int epochs) {
  TrainConfig cfg;
  cfg.epochs = epochs;
  cfg.batch_size = 256;
  cfg.adam.learning_rate = 0.01;
  cfg.adam.weight_decay = 1e-4;
  return cfg;
}

SurrogateResult evaluate_predictor(const LatencyPredictor& predictor,
                                   const LabeledSet& test) {
  SurrogateResult result;
  result.name = predictor.name();
  const std::vector<double> pred = predictor.predict_all(test.archs);
  result.accuracy = mean_accuracy(pred, test.latencies_ms);
  result.rmse_ms = rmse(pred, test.latencies_ms);
  result.kendall = kendall_tau(pred, test.latencies_ms);
  return result;
}

SurrogateResult run_mlp_experiment(EncodingKind encoding,
                                   const SupernetSpec& spec,
                                   const LabeledSet& train,
                                   const LabeledSet& test,
                                   std::uint64_t seed, int epochs) {
  MlpSurrogate surrogate(make_encoder(encoding, spec),
                         paper_train_config(epochs), seed);
  const TrainResult fit = surrogate.fit(train.archs, train.latencies_ms);
  SurrogateResult result = evaluate_predictor(surrogate, test);
  result.train_seconds = fit.train_seconds;
  return result;
}

SurrogateResult run_lut_experiment(const SupernetSpec& spec,
                                   SimulatedDevice& device,
                                   const LabeledSet& train,
                                   const LabeledSet& test,
                                   bool bias_correction) {
  LutSurrogate lut(spec, device);
  if (bias_correction) {
    lut.fit_bias_correction(train.archs, train.latencies_ms);
  }
  return evaluate_predictor(lut, test);
}

void print_scatter_sample(std::ostream& os, const LatencyPredictor& predictor,
                          const LabeledSet& test, std::size_t n_points) {
  const std::size_t n = std::min(n_points, test.size());
  TablePrinter table({"actual (ms)", "predicted (ms)", "error"});
  // Spread the excerpt across the latency range: sort by actual latency and
  // take evenly spaced points.
  std::vector<std::size_t> order(test.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return test.latencies_ms[a] < test.latencies_ms[b];
  });
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t idx = order[i * (test.size() - 1) / std::max<std::size_t>(1, n - 1)];
    const double actual = test.latencies_ms[idx];
    const double pred = predictor.predict_ms(test.archs[idx]);
    table.add_row({format_double(actual, 3), format_double(pred, 3),
                   format_percent(std::abs(pred - actual) / actual, 1)});
  }
  table.print(os);
}

}  // namespace esm::bench
