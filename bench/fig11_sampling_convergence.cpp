// Fig. 11 reproduction: random vs balanced sampling inside the full ESM
// train-evaluate-extend loop (ResNet / simulated RTX 4090, N_I = 300,
// N_Step = 100, bin-wise evaluation).
//
// The paper reports balanced sampling converging after 3 iterations / 500
// samples vs 37 iterations / 4,000 samples for random. To keep the
// comparison statistically meaningful the harness averages several seeds
// and reports the worst-bin accuracy trajectory per measurement budget.
//
// Known deviation (see EXPERIMENTS.md): in this reproduction the balanced
// advantage is clearest at small budgets (the corner depth bins random
// sampling starves); at larger budgets the FCC encoding extrapolates into
// the corners well enough that both strategies become label-noise-limited
// and converge at similar budgets — the paper's ~8x sample gap does not
// reproduce at this simulator's noise floor.
#include <iostream>

#include "bench_util.hpp"
#include "common/stats.hpp"
#include "common/strings.hpp"
#include "esm/framework.hpp"

using namespace esm;
using namespace esm::bench;

int main(int argc, char** argv) {
  ArgParser args("Fig. 11: random vs balanced sampling convergence");
  args.add_int("n-initial", 300, "N_I: initial samples");
  args.add_int("n-step", 100, "N_Step: samples added per extension");
  args.add_double("acc-th", 0.95, "Acc_TH: per-bin accuracy threshold");
  args.add_int("max-iters", 25, "iteration budget per run");
  args.add_int("n-bins", 5, "N_Bins: depth bins for balancing/evaluation");
  args.add_int("seeds", 3, "seeds to average");
  args.add_int("epochs", 150, "training epochs per iteration");
  args.add_int("seed", 11, "base experiment seed");
  if (!args.parse(argc, argv)) return 0;

  EsmConfig base;
  base.spec = resnet_spec();
  base.surrogate = "mlp";
  base.encoder = "fcc";
  base.n_initial = static_cast<int>(args.get_int("n-initial"));
  base.n_step = static_cast<int>(args.get_int("n-step"));
  base.n_bins = static_cast<int>(args.get_int("n-bins"));
  base.n_test = 100 * base.n_bins;
  base.acc_threshold = args.get_double("acc-th");
  base.max_iterations = static_cast<int>(args.get_int("max-iters"));
  base.train = paper_train_config(static_cast<int>(args.get_int("epochs")));

  const int n_seeds = static_cast<int>(args.get_int("seeds"));
  const auto base_seed = static_cast<std::uint64_t>(args.get_int("seed"));

  struct StrategyStats {
    std::string name;
    // Per-iteration min-bin accuracies across seeds.
    std::vector<RunningStats> min_bin{};
    std::vector<RunningStats> overall{};
    RunningStats samples_to_converge{};
    int converged_runs = 0;
  };
  std::vector<StrategyStats> strategies{{.name = "balanced"},
                                        {.name = "random"}};
  strategies[0].min_bin.resize(static_cast<std::size_t>(base.max_iterations));
  strategies[0].overall.resize(static_cast<std::size_t>(base.max_iterations));
  strategies[1].min_bin.resize(static_cast<std::size_t>(base.max_iterations));
  strategies[1].overall.resize(static_cast<std::size_t>(base.max_iterations));

  // Every (seed, strategy) pair is an independent end-to-end ESM run with
  // its own device, folded into its strategy's accumulators in run order.
  for (int s = 0; s < n_seeds; ++s) {
    for (std::size_t which = 0; which < strategies.size(); ++which) {
      EsmConfig cfg = base;
      cfg.strategy = which == 0 ? SamplingStrategy::kBalanced
                                : SamplingStrategy::kRandom;
      cfg.seed = base_seed + static_cast<std::uint64_t>(s) * 101;
      SimulatedDevice device(rtx4090_spec(), cfg.seed * 53 + 1);
      const EsmResult result = EsmFramework(cfg, device).run();
      StrategyStats& stats = strategies[which];
      for (std::size_t i = 0; i < result.iterations.size(); ++i) {
        stats.min_bin[i].add(result.iterations[i].eval.min_bin_accuracy);
        stats.overall[i].add(result.iterations[i].eval.overall_accuracy);
      }
      if (result.converged) {
        ++stats.converged_runs;
        stats.samples_to_converge.add(
            static_cast<double>(result.final_train_set_size));
      }
    }
  }

  print_banner(std::cout,
               "Fig. 11: worst-bin accuracy vs measurement budget, mean of " +
                   std::to_string(n_seeds) +
                   " seeds (ResNet / RTX 4090, N_I=300, N_Step=100)");
  TablePrinter trace({"train samples", "balanced: min-bin acc",
                      "random: min-bin acc", "gap"});
  for (int i = 0; i < base.max_iterations; ++i) {
    const auto idx = static_cast<std::size_t>(i);
    if (strategies[0].min_bin[idx].count() == 0 &&
        strategies[1].min_bin[idx].count() == 0) {
      break;
    }
    const double b = strategies[0].min_bin[idx].mean();
    const double r = strategies[1].min_bin[idx].mean();
    const bool b_alive = strategies[0].min_bin[idx].count() > 0;
    const bool r_alive = strategies[1].min_bin[idx].count() > 0;
    trace.add_row({std::to_string(base.n_initial + i * base.n_step),
                   b_alive ? format_percent(b, 1) : "-",
                   r_alive ? format_percent(r, 1) : "-",
                   b_alive && r_alive
                       ? format_double((b - r) * 100.0, 1) + " pts"
                       : "-"});
  }
  trace.print(std::cout);

  print_banner(std::cout, "Convergence summary (Acc_TH = " +
                              format_percent(base.acc_threshold, 0) + ")");
  TablePrinter summary({"strategy", "runs converged", "mean samples",
                        "paper"});
  for (const StrategyStats& stats : strategies) {
    summary.add_row(
        {stats.name,
         std::to_string(stats.converged_runs) + "/" + std::to_string(n_seeds),
         stats.converged_runs > 0
             ? format_double(stats.samples_to_converge.mean(), 0)
             : "-",
         stats.name == "balanced" ? "3 iters / 500 samples"
                                  : "37 iters / 4000 samples"});
  }
  summary.print(std::cout);
  std::cout << "Reproduced shape: balanced sampling leads on the worst bin "
               "at small budgets (random starves the\ncorner depth bins). "
               "Known deviation: both strategies reach the simulator's "
               "noise ceiling at similar\nbudgets, so the paper's ~8x "
               "samples-to-convergence gap does not reproduce here (see "
               "EXPERIMENTS.md).\n";
  return 0;
}
