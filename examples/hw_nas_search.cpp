// Hardware-aware NAS end to end (the workflow of paper Fig. 1):
//
//   1. Build a latency predictor for the MobileNetV3 space on the target
//      device with the ESM framework (balanced sampling + FCC encoding).
//   2. Run a latency-constrained evolutionary search (the seeded engine of
//      nas/search/engine.hpp in `best` mode) that queries ONLY the
//      predictor (no device measurements inside the search loop), guarding
//      the budget with the predictor's measured test-set error.
//   3. Cross-check the Pareto front it returns on the ground-truth
//      simulator — an accurate surrogate keeps the search honest (Fig. 2's
//      lesson).
//
//   $ ./examples/hw_nas_search [--device rtx4090] [--budget-ms 2.0]
#include <algorithm>
#include <iostream>

#include "common/argparse.hpp"
#include "common/stats.hpp"
#include "common/strings.hpp"
#include "common/table.hpp"
#include "esm/framework.hpp"
#include "nas/accuracy_proxy.hpp"
#include "nas/search/engine.hpp"
#include "nets/builder.hpp"

int main(int argc, char** argv) {
  esm::ArgParser args("Hardware-aware NAS driven by an ESM latency predictor.");
  args.add_string("device", "rtx4090", "target device");
  args.add_double("budget-ms", 0.0,
                  "latency budget (0 = use the median of the test set)");
  args.add_int("seed", 7, "experiment seed");
  if (!args.parse(argc, argv)) return 0;

  const esm::DeviceSpec device_spec =
      esm::device_by_name(args.get_string("device"));
  esm::SimulatedDevice device(device_spec,
                              static_cast<std::uint64_t>(args.get_int("seed")));

  // --- 1. build the latency predictor ---------------------------------
  esm::EsmConfig config;
  config.spec = esm::mobilenet_v3_spec();
  config.strategy = esm::SamplingStrategy::kBalanced;
  config.surrogate = "mlp";
  config.encoder = "fcc";
  config.n_initial = 400;
  config.n_step = 100;
  config.acc_threshold = 0.95;
  config.max_iterations = 10;
  config.seed = static_cast<std::uint64_t>(args.get_int("seed"));

  std::cout << "Building latency predictor for " << config.spec.name
            << " on " << device_spec.name << "...\n";
  esm::EsmResult esm_result = esm::EsmFramework(config, device).run();
  std::cout << "  " << (esm_result.converged ? "converged" : "stopped")
            << " after " << esm_result.iterations.size()
            << " iterations, " << esm_result.final_train_set_size
            << " measured samples, overall accuracy "
            << esm::format_percent(
                   esm_result.iterations.back().eval.overall_accuracy)
            << "\n\n";

  // --- 2. evolutionary search under the latency budget ----------------
  double budget_ms = args.get_double("budget-ms");
  std::vector<double> lats;
  std::vector<esm::ArchConfig> test_archs;
  for (const esm::MeasuredSample& s : esm_result.test_set) {
    lats.push_back(s.latency_ms);
    test_archs.push_back(s.arch);
  }
  if (budget_ms <= 0.0) budget_ms = esm::median(lats);
  // Maximizing quality under a predicted-latency limit favours exactly the
  // candidates the surrogate underpredicts, so the search runs under the
  // budget shrunk by the surrogate's 95th-percentile underprediction on
  // its own held-out test set.
  const std::vector<double> predicted =
      esm_result.predictor->predict_all(test_archs);
  std::vector<double> under;
  for (std::size_t i = 0; i < lats.size(); ++i) {
    under.push_back((lats[i] - predicted[i]) / predicted[i]);
  }
  const double limit_ms =
      budget_ms / (1.0 + std::max(0.0, esm::percentile(under, 95.0)));
  std::cout << "Searching for the most accurate model under "
            << esm::format_double(budget_ms, 3) << " ms (predicted limit "
            << esm::format_double(limit_ms, 3) << " ms)...\n";

  esm::search::EngineConfig search_config;
  search_config.mode = esm::search::Mode::best;
  search_config.population = 64;
  search_config.generations = 25;
  search_config.seed = static_cast<std::uint64_t>(args.get_int("seed")) + 1;
  const esm::search::SearchEngine search(config.spec, search_config);
  const esm::AccuracyProxy proxy(config.spec);
  const esm::search::SearchOutcome found =
      search.run({esm::search::Objective{device_spec.name,
                                         esm_result.predictor.get(),
                                         limit_ms}},
                 proxy);

  std::cout << "  evaluated " << found.evaluations
            << " candidates through the surrogate (zero device runs)\n\n";
  if (!found.found_feasible) {
    std::cout << "No architecture met the budget; raise --budget-ms.\n";
    return 2;
  }

  // --- 3. verify the front on the ground truth -------------------------
  esm::print_banner(std::cout, "Pareto front: surrogate vs ground truth");
  esm::TablePrinter table({"blocks", "proxy top-5", "predicted (ms)",
                           "actual (ms)", "meets budget"});
  for (const std::size_t i : found.front) {
    const esm::search::ScoredArch& c = found.candidates[i];
    const double actual =
        device.true_latency_ms(esm::build_graph(config.spec, c.arch));
    table.add_row({std::to_string(c.arch.total_blocks()),
                   esm::format_percent(c.quality, 1),
                   esm::format_double(c.latency_ms.front(), 3),
                   esm::format_double(actual, 3),
                   actual <= budget_ms * 1.02 ? "yes" : "NO"});
  }
  table.print(std::cout);
  std::cout << "\nBest architecture: "
            << found.candidates[found.best].arch.to_string() << "\n";
  return 0;
}
