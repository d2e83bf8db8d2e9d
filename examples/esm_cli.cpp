// esm_cli — command-line front end for the ESM framework.
//
// Subcommands (first argument):
//   train     build a surrogate with the train-evaluate-extend loop and
//             save it as an artifact (-o/--model PATH). --surrogate and
//             --encoder pick any registered kind ("mlp", "lut", "gbdt",
//             "ensemble" x "onehot", "feature", "stat", "fc", "fcc").
//   predict   load an artifact (positional PATH or --model) and price
//             sampled architectures. The printed predictions are
//             bit-identical to the verification block `train` printed for
//             the same --seed/--count, across processes. With --stdin,
//             read arch requests one per line (the serve-protocol grammar,
//             parsed by the same parse_arch_request()) and emit
//             full-precision CSV instead.
//   eval      load an artifact and score it bin-wise against freshly
//             measured latencies on a simulated device.
//   search    multi-objective NAS through the loaded surrogate(s) with the
//             seeded engine in nas/search/engine.hpp. --mode picks the
//             query (pareto | best | fastest), --algo the algorithm
//             (evolutionary | random), and --population/--generations/
//             --seed the (deterministic) effort. Constraints: --budget-ms
//             applies one latency limit to every objective (0 = none);
//             --limits-ms gives one per model; --min-quality floors the
//             accuracy proxy. --models adds comma-separated extra
//             artifacts as joint objectives (multi-device search), all
//             serving the same space. Every run re-measures the front on
//             hwsim (--device) and reports pareto_regret/front_jaccard.
//             --format picks table (default), csv, json, or serve — the
//             last prints exactly the served `search` verb's payload, so
//             stdout is byte-comparable with a server answering the same
//             artifact/seed. Exit codes: 0 a feasible architecture was
//             found, 2 no feasible architecture under the constraints.
//   measure   run the fault-tolerant measurement pipeline on a device and
//             print the DatasetReport (samples measured, retries,
//             quarantined architectures, simulated cost). Architectures
//             come from --archs FILE (one per line, comma-separated
//             per-unit depths like "3,5,2,7") or are sampled (--count).
//             With --journal PATH every accepted batch is fsync'd to a
//             write-ahead journal; a killed run restarted with --resume
//             replays the journaled batches and measures only the rest,
//             producing a byte-identical --out CSV. Exit codes: 0 all
//             measured, 2 shortfall, 3 resumed-and-complete.
//   pipeline  measure -> train -> gate -> publish in one crash-safe
//             command: journaled measurement campaigns (auto-resumed from
//             <manifest-dir>/.pipeline/), the same train -> evaluate ->
//             extend loop as `train` (extension rounds are journaled
//             too), and an atomic publish of <name>.esm plus the fleet
//             manifest esm_serve serves from. Rerunning after a kill at
//             ANY stage converges to a byte-identical published manifest;
//             a model that does not pass Acc_TH within --max-iters is
//             never published. Exit codes: 0 published, 2 gate failed, 3
//             resumed-and-published.
//
// Examples:
//   esm_cli train --surrogate gbdt --encoder fcc -o /tmp/m.esm
//   esm_cli predict /tmp/m.esm --count 10
//   esm_cli eval /tmp/m.esm --device rtx4090
//   esm_cli search /tmp/m.esm --budget-ms 3.5
//   esm_cli search fleet/rtx4090.esm --models fleet/rpi4.esm
//           --mode pareto --limits-ms 3,40 --format csv
//   esm_cli measure --device rpi4 --count 50 --fault-profile flaky
//           --retries 4 --report-json /tmp/report.json
//   esm_cli measure --device rpi4 --count 64 --batch-size 8
//           --journal /tmp/camp.journal --out /tmp/dataset.csv
//   esm_cli measure --device rpi4 --count 64 --batch-size 8
//           --journal /tmp/camp.journal --out /tmp/dataset.csv --resume
//   esm_cli pipeline --name rpi4 --device rpi4 --surrogate gbdt
//           --manifest-dir /tmp/fleet
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "common/argparse.hpp"
#include "common/csv.hpp"
#include "common/error.hpp"
#include "common/fsio.hpp"
#include "common/strings.hpp"
#include "common/table.hpp"
#include "esm/framework.hpp"
#include "esm/pipeline.hpp"
#include "nas/accuracy_proxy.hpp"
#include "nas/search/engine.hpp"
#include "nas/search/wire.hpp"
#include "nets/builder.hpp"
#include "serve/protocol.hpp"
#include "surrogate/registry.hpp"

namespace {

/// Samples `count` architectures with the shared verification stream so
/// `train` and `predict` price the same models in different processes.
std::vector<esm::ArchConfig> verification_archs(const esm::SupernetSpec& spec,
                                                std::uint64_t seed,
                                                std::size_t count) {
  esm::Rng rng(seed ^ 0x7e57a5c5ull);
  esm::RandomSampler sampler(spec);
  return sampler.sample_n(count, rng);
}

/// Prints full-precision predictions for the verification architectures.
void print_predictions(const esm::LatencyPredictor& predictor,
                       const esm::SupernetSpec& spec, std::uint64_t seed,
                       std::size_t count) {
  const std::vector<esm::ArchConfig> archs =
      verification_archs(spec, seed, count);
  const std::vector<double> predicted = predictor.predict_all(archs);
  esm::TablePrinter table(
      {"architecture (depths)", "blocks", "predicted latency (ms)"});
  for (std::size_t i = 0; i < archs.size(); ++i) {
    std::vector<std::string> depths;
    for (int d : archs[i].depths()) depths.push_back(std::to_string(d));
    table.add_row({"[" + esm::join(depths, ",") + "]",
                   std::to_string(archs[i].total_blocks()),
                   esm::format_g17(predicted[i])});
  }
  table.print(std::cout);
}

int run_train(const esm::ArgParser& args) {
  const esm::DeviceSpec device_spec =
      esm::device_by_name(args.get_string("device"));
  esm::SimulatedDevice device(device_spec,
                              static_cast<std::uint64_t>(args.get_int("seed")));

  esm::EsmConfig config;
  config.spec = esm::spec_by_name(args.get_string("supernet"));
  config.strategy =
      esm::sampling_strategy_from_name(args.get_string("strategy"));
  config.surrogate = args.get_string("surrogate");
  config.encoder = args.get_string("encoder");
  config.ensemble_members =
      static_cast<std::size_t>(args.get_int("ensemble-members"));
  config.n_initial = static_cast<int>(args.get_int("n-initial"));
  config.n_step = static_cast<int>(args.get_int("n-step"));
  config.n_bins = static_cast<int>(args.get_int("n-bins"));
  config.acc_threshold = args.get_double("acc-th");
  config.max_iterations = static_cast<int>(args.get_int("max-iters"));
  config.seed = static_cast<std::uint64_t>(args.get_int("seed"));

  std::cout << "Training a '" << config.surrogate << "' surrogate ("
            << config.encoder << " encoding, "
            << esm::sampling_strategy_name(config.strategy)
            << " sampling) for " << config.spec.name << " on "
            << device_spec.name << "...\n";
  const esm::EsmResult result = esm::EsmFramework(config, device).run();
  const esm::IterationReport& last = result.iterations.back();
  std::cout << (result.converged ? "Converged" : "Budget exhausted")
            << " after " << result.iterations.size() << " iteration(s), "
            << result.final_train_set_size << " measured samples.\n"
            << "Overall accuracy "
            << esm::format_percent(last.eval.overall_accuracy)
            << ", worst bin "
            << esm::format_percent(last.eval.min_bin_accuracy) << ".\n";

  // Verification block BEFORE saving: pricing these architectures also
  // fills any lazily profiled state (the LUT memo table), so the artifact
  // reproduces exactly these numbers in a fresh process.
  std::cout << "Verification predictions (reproduce with `esm_cli predict "
            << "--seed " << args.get_int("seed") << " --count "
            << args.get_int("count") << "`):\n";
  print_predictions(*result.predictor, config.spec, config.seed,
                    static_cast<std::size_t>(args.get_int("count")));

  const std::string path = args.get_string("model");
  esm::save_surrogate(*result.predictor, path);
  std::cout << "Saved " << result.predictor->kind() << " artifact to " << path
            << "\n";
  return result.converged ? 0 : 2;
}

/// Batch mode: reads architecture requests one per line from stdin — the
/// same grammar the serve protocol and --archs files use, through the same
/// parse_arch_request() — and emits full-precision CSV on stdout. Blank
/// lines and '#' comments are skipped; a malformed line aborts with its
/// line number (exit 1) before anything is priced.
int run_predict_stdin(const esm::TrainableSurrogate& predictor) {
  const esm::SupernetSpec& spec = predictor.spec();
  std::vector<esm::ArchConfig> archs;
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(std::cin, line)) {
    ++line_no;
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line = line.substr(0, hash);
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    try {
      archs.push_back(esm::serve::parse_arch_request(spec, line));
    } catch (const esm::ConfigError& e) {
      ESM_REQUIRE(false, "stdin:" << line_no << ": " << e.what());
    }
  }
  const std::vector<double> predicted = predictor.predict_all(archs);
  std::cout << "arch,predicted_ms\n";
  for (std::size_t i = 0; i < archs.size(); ++i) {
    std::cout << archs[i].to_string() << ',' << esm::format_g17(predicted[i])
              << '\n';
  }
  return 0;
}

int run_predict(const esm::ArgParser& args) {
  const std::unique_ptr<esm::TrainableSurrogate> predictor =
      esm::load_surrogate(args.get_string("model"));
  if (args.get_bool("stdin")) return run_predict_stdin(*predictor);
  const esm::SupernetSpec& spec = predictor->spec();
  std::cout << "Loaded " << predictor->name() << " (kind '"
            << predictor->kind() << "', encoder '" << predictor->encoder_key()
            << "') for the " << spec.name << " space.\n";
  print_predictions(*predictor, spec,
                    static_cast<std::uint64_t>(args.get_int("seed")),
                    static_cast<std::size_t>(args.get_int("count")));
  return 0;
}

int run_eval(const esm::ArgParser& args) {
  const std::unique_ptr<esm::TrainableSurrogate> predictor =
      esm::load_surrogate(args.get_string("model"));
  const esm::SupernetSpec& spec = predictor->spec();
  const esm::DeviceSpec device_spec =
      esm::device_by_name(args.get_string("device"));
  esm::SimulatedDevice device(device_spec,
                              static_cast<std::uint64_t>(args.get_int("seed")));

  // Balanced so every depth bin is represented, like the framework's own
  // held-out set; measured fresh so the score reflects this device.
  esm::EsmConfig config;
  config.spec = spec;
  config.surrogate = predictor->kind();
  config.n_bins = static_cast<int>(args.get_int("n-bins"));
  config.n_test = static_cast<int>(args.get_int("count"));
  config.acc_threshold = args.get_double("acc-th");
  config.seed = static_cast<std::uint64_t>(args.get_int("seed"));
  config.validate();

  esm::Rng rng(config.seed);
  esm::DatasetGenerator generator(config, device, rng.split());
  esm::BalancedSampler sampler(spec, config.n_bins);
  esm::Rng sample_rng = rng.split();
  const std::vector<esm::ArchConfig> archs = sampler.sample_n(
      static_cast<std::size_t>(config.n_test), sample_rng);
  const std::vector<esm::MeasuredSample> test_set =
      generator.measure_batch(archs).samples;

  const esm::BinwiseEvaluator evaluator(spec, config.n_bins,
                                        config.acc_threshold);
  const esm::EvalReport report = evaluator.evaluate(*predictor, test_set);

  std::cout << "Evaluated " << predictor->name() << " on " << test_set.size()
            << " freshly measured " << spec.name << " samples ("
            << device_spec.name << ").\n";
  esm::TablePrinter table({"bin", "blocks", "samples", "accuracy", "pass"});
  for (const esm::BinAccuracy& bin : report.bins) {
    table.add_row({std::to_string(bin.bin), bin.label,
                   std::to_string(bin.count),
                   esm::format_percent(bin.accuracy),
                   bin.below_threshold ? "no" : "yes"});
  }
  table.print(std::cout);
  std::cout << "Overall " << esm::format_percent(report.overall_accuracy)
            << ", worst bin " << esm::format_percent(report.min_bin_accuracy)
            << " (threshold " << esm::format_percent(config.acc_threshold)
            << ").\n";
  return report.min_bin_accuracy >= config.acc_threshold ? 0 : 2;
}

/// Artifact path -> short objective label ("fleet/rpi4.esm" -> "rpi4").
std::string objective_label(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  std::string label =
      slash == std::string::npos ? path : path.substr(slash + 1);
  const std::size_t dot = label.find_last_of('.');
  if (dot != std::string::npos && dot > 0) label = label.substr(0, dot);
  return label;
}

std::vector<std::string> split_comma_list(const std::string& text) {
  std::vector<std::string> parts;
  std::istringstream is(text);
  std::string part;
  while (std::getline(is, part, ',')) {
    if (!part.empty()) parts.push_back(part);
  }
  return parts;
}

/// `esm_cli search`: multi-objective NAS through the loaded surrogate(s),
/// built on nas/search/engine.hpp. Exit codes: 0 = a feasible architecture
/// was found, 2 = nothing satisfied the constraints (raise the budget).
int run_search(const esm::ArgParser& args) {
  // Primary artifact first; --models adds one objective per extra artifact
  // (joint multi-device constraints). All must serve the same space.
  std::vector<std::string> paths{args.get_string("model")};
  for (const std::string& extra :
       split_comma_list(args.get_string("models"))) {
    paths.push_back(extra);
  }
  std::vector<std::unique_ptr<esm::TrainableSurrogate>> predictors;
  predictors.reserve(paths.size());
  for (const std::string& path : paths) {
    predictors.push_back(esm::load_surrogate(path));
    ESM_REQUIRE(predictors.back()->spec().name ==
                    predictors.front()->spec().name,
                "search models must share one space; " << path << " serves "
                    << predictors.back()->spec().name << ", not "
                    << predictors.front()->spec().name);
  }
  const esm::SupernetSpec& spec = predictors.front()->spec();

  // Budgets: --limits-ms gives one per model; --budget-ms applies one to
  // every model; --budget-ms 0 lifts the constraint entirely.
  std::vector<double> limits;
  const std::vector<std::string> limit_texts =
      split_comma_list(args.get_string("limits-ms"));
  if (!limit_texts.empty()) {
    ESM_REQUIRE(limit_texts.size() == paths.size(),
                "--limits-ms has " << limit_texts.size() << " entries for "
                                   << paths.size() << " model(s)");
    for (const std::string& text : limit_texts) {
      limits.push_back(std::stod(text));
    }
  } else if (args.get_double("budget-ms") > 0.0) {
    limits.assign(paths.size(), args.get_double("budget-ms"));
  }

  esm::search::EngineConfig config;
  config.mode = esm::search::parse_mode(args.get_string("mode"));
  config.algorithm = esm::search::parse_algorithm(args.get_string("algo"));
  config.population = static_cast<std::size_t>(args.get_int("population"));
  config.generations = static_cast<int>(args.get_int("generations"));
  config.min_quality = args.get_double("min-quality");
  config.front_bias = args.get_double("bias");
  config.seed = static_cast<std::uint64_t>(args.get_int("seed"));

  const esm::search::SearchEngine engine(spec, config);
  const esm::AccuracyProxy proxy(spec);
  std::vector<esm::search::Objective> objectives;
  for (std::size_t i = 0; i < paths.size(); ++i) {
    esm::search::Objective objective;
    objective.name = objective_label(paths[i]);
    objective.predictor = predictors[i].get();
    objective.limit_ms = limits.empty() ? 0.0 : limits[i];
    objectives.push_back(std::move(objective));
  }
  const esm::search::SearchOutcome outcome = engine.run(objectives, proxy);

  // Ground truth: re-measure every candidate on hwsim and score the found
  // front against the true one (paper Fig. 2b).
  const esm::DeviceSpec device = esm::device_by_name(args.get_string("device"));
  const esm::search::FrontCheck check = esm::search::verify_front(
      spec, outcome, device, limits.empty() ? 0.0 : limits.front(),
      config.min_quality);

  auto render_csv = [&] {
    std::ostringstream os;
    os << "arch,quality,true_ms,on_true_front";
    for (const esm::search::Objective& o : objectives) {
      os << ",predicted_" << o.name << "_ms";
    }
    os << "\n";
    for (std::size_t i : outcome.front) {
      const esm::search::ScoredArch& c = outcome.candidates[i];
      const bool on_truth =
          std::find(check.true_front.begin(), check.true_front.end(), i) !=
          check.true_front.end();
      os << esm::search::format_arch_request(spec, c.arch) << ','
         << esm::format_g17(c.quality) << ','
         << esm::format_g17(check.true_ms[i]) << ',' << (on_truth ? 1 : 0);
      for (double ms : c.latency_ms) os << ',' << esm::format_g17(ms);
      os << "\n";
    }
    return os.str();
  };
  auto render_json = [&] {
    std::ostringstream os;
    os << "{\n  \"mode\": \"" << esm::search::mode_name(config.mode)
       << "\",\n  \"algo\": \""
       << esm::search::algorithm_name(config.algorithm)
       << "\",\n  \"population\": " << config.population
       << ",\n  \"generations\": " << config.generations
       << ",\n  \"seed\": " << config.seed
       << ",\n  \"evaluations\": " << outcome.evaluations
       << ",\n  \"feasible\": " << (outcome.found_feasible ? "true" : "false")
       << ",\n  \"verify_device\": \"" << device.name
       << "\",\n  \"pareto_regret\": " << esm::format_g17(check.regret)
       << ",\n  \"front_jaccard\": " << esm::format_g17(check.jaccard)
       << ",\n  \"objectives\": [";
    for (std::size_t k = 0; k < objectives.size(); ++k) {
      os << (k ? ", " : "") << "{\"name\": \"" << objectives[k].name
         << "\", \"limit_ms\": " << esm::format_g17(objectives[k].limit_ms)
         << "}";
    }
    os << "],\n  \"front\": [";
    for (std::size_t n = 0; n < outcome.front.size(); ++n) {
      const std::size_t i = outcome.front[n];
      const esm::search::ScoredArch& c = outcome.candidates[i];
      os << (n ? "," : "") << "\n    {\"arch\": \""
         << esm::search::format_arch_request(spec, c.arch)
         << "\", \"quality\": " << esm::format_g17(c.quality)
         << ", \"true_ms\": " << esm::format_g17(check.true_ms[i])
         << ", \"predicted_ms\": [";
      for (std::size_t k = 0; k < c.latency_ms.size(); ++k) {
        os << (k ? ", " : "") << esm::format_g17(c.latency_ms[k]);
      }
      os << "]}";
    }
    os << "\n  ]\n}\n";
    return os.str();
  };

  const std::string format = args.get_string("format");
  const std::string verdict =
      "evaluations=" + std::to_string(outcome.evaluations) +
      " front=" + std::to_string(outcome.front.size()) +
      " pareto_regret=" + esm::format_double(check.regret, 6) +
      " front_jaccard=" + esm::format_double(check.jaccard, 3) + " (vs " +
      device.name + " ground truth)";
  if (format == "serve") {
    // Exactly the served `search` verb's payload — stdout stays
    // byte-comparable against the server (ci.sh pins this); diagnostics
    // go to stderr.
    std::cout << esm::search::format_front_payload(spec, config, outcome)
              << "\n";
    std::cerr << verdict << "\n";
  } else if (format == "csv") {
    std::cout << render_csv();
    std::cerr << verdict << "\n";
  } else if (format == "json") {
    std::cout << render_json();
  } else if (format == "table") {
    std::cout << "Searched the " << spec.name << " space ("
              << esm::search::algorithm_name(config.algorithm) << ", mode "
              << esm::search::mode_name(config.mode) << ", "
              << outcome.evaluations << " evaluations through "
              << objectives.size() << " surrogate(s)).\n";
    for (const esm::search::Objective& o : objectives) {
      std::cout << "  objective " << o.name << ": "
                << (o.limit_ms > 0.0
                        ? "under " + esm::format_double(o.limit_ms, 3) + " ms"
                        : "unconstrained")
                << "\n";
    }
    if (!outcome.found_feasible) {
      std::cout << "No feasible architecture found — raise --budget-ms / "
                   "--limits-ms or lower --min-quality.\n";
      if (!outcome.candidates.empty()) {
        const esm::search::ScoredArch& c = outcome.candidates[outcome.best];
        std::cout << "Closest miss (violation "
                  << esm::format_double(c.violation, 4) << "): "
                  << esm::search::format_arch_request(spec, c.arch) << "\n";
      }
      return 2;
    }
    std::vector<std::string> header{"arch", "quality"};
    for (const esm::search::Objective& o : objectives) {
      header.push_back("pred " + o.name + " (ms)");
    }
    header.push_back("true " + std::string(device.name) + " (ms)");
    header.push_back("true front");
    esm::TablePrinter table(header);
    for (std::size_t i : outcome.front) {
      const esm::search::ScoredArch& c = outcome.candidates[i];
      std::vector<std::string> row{
          esm::search::format_arch_request(spec, c.arch),
          esm::format_percent(c.quality)};
      for (double ms : c.latency_ms) {
        row.push_back(esm::format_double(ms, 3));
      }
      row.push_back(esm::format_double(check.true_ms[i], 3));
      const bool on_truth =
          std::find(check.true_front.begin(), check.true_front.end(), i) !=
          check.true_front.end();
      row.push_back(on_truth ? "yes" : "no");
      table.add_row(std::move(row));
    }
    table.print(std::cout);
    const esm::search::ScoredArch& best = outcome.candidates[outcome.best];
    std::cout << "Best (" << esm::search::mode_name(config.mode) << "): "
              << esm::search::format_arch_request(spec, best.arch)
              << " — quality " << esm::format_percent(best.quality)
              << ", predicted " << esm::format_double(best.latency_ms.front(), 3)
              << " ms, true "
              << esm::format_double(check.true_ms[outcome.best], 3)
              << " ms on " << device.name << "\n"
              << "Surrogate-vs-true: pareto_regret "
              << esm::format_double(check.regret, 6) << ", front jaccard "
              << esm::format_double(check.jaccard, 3) << "\n";
  } else {
    ESM_REQUIRE(false, "unknown --format '" << format
                                            << "' (table, csv, json, serve)");
  }

  if (!args.get_string("out").empty()) {
    // The machine-readable rendering rides along regardless of the stdout
    // format: JSON stays JSON, everything else lands as CSV.
    esm::write_file_atomic(args.get_string("out"),
                           format == "json" ? render_json() : render_csv());
  }
  return outcome.found_feasible ? 0 : 2;
}

/// Loads architectures from a text file: one request per line in the shared
/// serve-protocol grammar (comma-separated per-unit depths like "3,5,2,7",
/// optionally "<depth>:k<kernel>e<expansion>" per unit); blank lines and
/// '#' comments are skipped. Parsing is parse_arch_request() — the same
/// code path the prediction server and `predict --stdin` use.
std::vector<esm::ArchConfig> load_arch_file(const esm::SupernetSpec& spec,
                                            const std::string& path) {
  std::ifstream in(path);
  ESM_REQUIRE(in.good(), "cannot open arch file " << path);
  std::vector<esm::ArchConfig> archs;
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line = line.substr(0, hash);
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    try {
      archs.push_back(esm::serve::parse_arch_request(spec, line));
    } catch (const esm::ConfigError& e) {
      ESM_REQUIRE(false, path << ":" << line_no << ": " << e.what());
    }
  }
  ESM_REQUIRE(!archs.empty(), "arch file " << path << " holds no architectures");
  return archs;
}

int run_measure(const esm::ArgParser& args) {
  const esm::SupernetSpec spec =
      esm::spec_by_name(args.get_string("supernet"));
  const esm::DeviceSpec device_spec =
      esm::device_by_name(args.get_string("device"));
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed"));
  esm::SimulatedDevice device(device_spec, seed);

  esm::EsmConfig config;
  config.spec = spec;
  config.seed = seed;
  config.faults = esm::parse_fault_profile(args.get_string("fault-profile"));
  config.retry.max_attempts = static_cast<int>(args.get_int("retries"));
  config.threads = static_cast<int>(args.get_int("threads"));
  config.journal.path = args.get_string("journal");
  config.journal.resume = args.get_bool("resume");
  config.validate();

  std::vector<esm::ArchConfig> archs;
  if (!args.get_string("archs").empty()) {
    archs = load_arch_file(spec, args.get_string("archs"));
  } else {
    esm::Rng arch_rng(seed ^ 0x7e57a5c5ull);
    esm::RandomSampler sampler(spec);
    archs = sampler.sample_n(static_cast<std::size_t>(args.get_int("count")),
                             arch_rng);
  }

  const long long batch_arg = args.get_int("batch-size");
  const std::size_t batch_size =
      batch_arg > 0 ? static_cast<std::size_t>(batch_arg) : archs.size();

  std::cout << "Measuring " << archs.size() << " " << spec.name
            << " architecture(s) on " << device_spec.name
            << " (fault profile: " << args.get_string("fault-profile")
            << ", " << config.retry.max_attempts << " attempt(s)).\n";
  esm::Rng rng(seed);
  esm::DatasetGenerator generator(config, device, rng.split());

  // One journal record per measure_batch() call: --batch-size controls the
  // checkpoint granularity. The batch partition is derived from the arch
  // list and flags alone, so a resumed invocation re-issues the identical
  // batches and the journal answers the already-measured prefix.
  std::vector<esm::MeasuredSample> measured;
  esm::DatasetReport report;
  report.qc_passed = true;
  for (std::size_t begin = 0; begin < archs.size(); begin += batch_size) {
    const std::size_t end = std::min(begin + batch_size, archs.size());
    const std::vector<esm::ArchConfig> chunk(archs.begin() + begin,
                                             archs.begin() + end);
    const esm::BatchResult batch = generator.measure_batch(chunk);
    measured.insert(measured.end(), batch.samples.begin(),
                    batch.samples.end());
    report.requested += batch.report.requested;
    report.measured += batch.report.measured;
    report.quarantined += batch.report.quarantined;
    report.skipped_quarantined += batch.report.skipped_quarantined;
    report.sessions += batch.report.sessions;
    report.retries += batch.report.retries;
    report.timeouts += batch.report.timeouts;
    report.device_losses += batch.report.device_losses;
    report.read_errors += batch.report.read_errors;
    report.qc_passed = report.qc_passed && batch.report.qc_passed;
    report.cost_seconds += batch.report.cost_seconds;
    report.backoff_seconds += batch.report.backoff_seconds;
    report.quarantined_archs.insert(report.quarantined_archs.end(),
                                    batch.report.quarantined_archs.begin(),
                                    batch.report.quarantined_archs.end());
  }
  if (generator.replayed_batches() > 0) {
    std::cerr << "note: " << generator.replayed_batches()
              << " batch(es) answered from journal "
              << config.journal.path << " without re-measuring\n";
  }

  esm::TablePrinter samples({"architecture (depths)", "latency (ms)"});
  for (const esm::MeasuredSample& s : measured) {
    std::vector<std::string> depths;
    for (int d : s.arch.depths()) depths.push_back(std::to_string(d));
    samples.add_row({"[" + esm::join(depths, ",") + "]",
                     esm::format_double(s.latency_ms, 3)});
  }
  samples.print(std::cout);

  esm::TablePrinter table({"dataset report", "value"});
  table.add_row({"requested", std::to_string(report.requested)});
  table.add_row({"measured", std::to_string(report.measured)});
  table.add_row({"quarantined", std::to_string(report.quarantined)});
  table.add_row(
      {"skipped (quarantined)", std::to_string(report.skipped_quarantined)});
  table.add_row({"device sessions", std::to_string(report.sessions)});
  table.add_row({"retries", std::to_string(report.retries)});
  table.add_row({"timeouts", std::to_string(report.timeouts)});
  table.add_row({"device losses", std::to_string(report.device_losses)});
  table.add_row({"read errors", std::to_string(report.read_errors)});
  table.add_row({"QC passed", report.qc_passed ? "yes" : "no"});
  table.add_row(
      {"simulated cost (s)", esm::format_double(report.cost_seconds, 2)});
  table.add_row({"  of which backoff (s)",
                 esm::format_double(report.backoff_seconds, 2)});
  table.print(std::cout);

  // Full-precision dataset CSV: this is the byte-identity artifact the
  // crash/resume guarantee is stated over (same seed + same flags =>
  // identical file, interrupted or not).
  const std::string csv_path = args.get_string("out");
  if (!csv_path.empty()) {
    esm::CsvWriter csv(csv_path, {"arch", "latency_ms"});
    for (const esm::MeasuredSample& s : measured) {
      csv.add_row({s.arch.to_string(), esm::format_g17(s.latency_ms)});
    }
    std::cout << "Wrote " << csv.row_count() << " sample(s) to " << csv_path
              << "\n";
  }

  const std::string json_path = args.get_string("report-json");
  if (!json_path.empty()) {
    std::ofstream out(json_path);
    ESM_REQUIRE(out.good(), "cannot open " << json_path << " for writing");
    out << "{\n"
        << "  \"requested\": " << report.requested << ",\n"
        << "  \"measured\": " << report.measured << ",\n"
        << "  \"quarantined\": " << report.quarantined << ",\n"
        << "  \"skipped_quarantined\": " << report.skipped_quarantined
        << ",\n"
        << "  \"sessions\": " << report.sessions << ",\n"
        << "  \"retries\": " << report.retries << ",\n"
        << "  \"timeouts\": " << report.timeouts << ",\n"
        << "  \"device_losses\": " << report.device_losses << ",\n"
        << "  \"read_errors\": " << report.read_errors << ",\n"
        << "  \"qc_passed\": " << (report.qc_passed ? "true" : "false")
        << ",\n"
        << "  \"cost_seconds\": " << report.cost_seconds << ",\n"
        << "  \"backoff_seconds\": " << report.backoff_seconds << ",\n"
        << "  \"quarantined_archs\": [";
    // Arch keys are whitespace-free and contain no quotes or backslashes
    // (ArchConfig::to_string()), so they embed in JSON strings verbatim.
    for (std::size_t i = 0; i < report.quarantined_archs.size(); ++i) {
      out << (i == 0 ? "" : ", ") << '"' << report.quarantined_archs[i]
          << '"';
    }
    out << "]\n"
        << "}\n";
    std::cout << "Wrote JSON report to " << json_path << "\n";
  }
  // 0: everything measured. 2: the pipeline gave up on at least one arch.
  // 3: everything measured, and at least one batch came from the journal
  // (resumed-complete) — lets scripts tell a resumed finish from a fresh
  // one without parsing output.
  if (report.measured != report.requested) return 2;
  return generator.replayed_batches() > 0 ? 3 : 0;
}

int run_pipeline_cmd(const esm::ArgParser& args) {
  esm::PipelineConfig config;
  config.esm.spec = esm::spec_by_name(args.get_string("supernet"));
  config.esm.strategy =
      esm::sampling_strategy_from_name(args.get_string("strategy"));
  config.esm.surrogate = args.get_string("surrogate");
  config.esm.encoder = args.get_string("encoder");
  config.esm.ensemble_members =
      static_cast<std::size_t>(args.get_int("ensemble-members"));
  config.esm.n_initial = static_cast<int>(args.get_int("n-initial"));
  config.esm.n_step = static_cast<int>(args.get_int("n-step"));
  config.esm.max_iterations = static_cast<int>(args.get_int("max-iters"));
  config.esm.n_test = static_cast<int>(args.get_int("n-test"));
  config.esm.n_bins = static_cast<int>(args.get_int("n-bins"));
  config.esm.acc_threshold = args.get_double("acc-th");
  config.esm.faults =
      esm::parse_fault_profile(args.get_string("fault-profile"));
  config.esm.retry.max_attempts = static_cast<int>(args.get_int("retries"));
  config.esm.threads = static_cast<int>(args.get_int("threads"));
  config.esm.seed = static_cast<std::uint64_t>(args.get_int("seed"));
  config.device = args.get_string("device");
  config.model_name = args.get_string("name");
  config.manifest_dir = args.get_string("manifest-dir");
  config.batch_size = static_cast<std::size_t>(args.get_int("batch-size"));

  std::cout << "Pipeline: measure -> train '" << config.esm.surrogate
            << "' -> gate (Acc_TH "
            << esm::format_percent(config.esm.acc_threshold)
            << ") -> publish '" << config.model_name << "' into "
            << config.manifest_dir << "\n";
  const esm::PipelineResult result = esm::run_pipeline(config);

  std::cout << "Measured " << result.train_measured << " train / "
            << result.test_measured << " test samples in "
            << result.iterations << " iteration(s)";
  if (result.replayed_batches > 0) {
    std::cout << " (" << result.replayed_batches
              << " batch(es) replayed from journals)";
  }
  std::cout << ".\nOverall accuracy "
            << esm::format_percent(result.eval.overall_accuracy)
            << ", worst bin "
            << esm::format_percent(result.eval.min_bin_accuracy) << ".\n";
  if (!result.gate_passed) {
    std::cout << "Gate FAILED after " << result.iterations
              << " iteration(s): nothing was published (manifest "
                 "untouched).\n";
    return 2;
  }
  std::cout << "Published " << result.artifact_path << " [crc32 "
            << result.artifact_crc32 << "] and updated "
            << result.manifest_path << ".\n"
            << "Serve it with: esm_serve " << result.manifest_path << "\n";
  return result.replayed_batches > 0 ? 3 : 0;
}

/// Rewrites `subcommand [args...]` into plain flags the parser accepts:
/// the subcommand selects the action, "-o" is shorthand for "--model", and
/// a bare path positional becomes the --model value.
std::vector<const char*> normalize_args(int argc, char** argv,
                                        std::string& subcommand,
                                        std::vector<std::string>& storage) {
  int start = 1;
  if (argc > 1 && argv[1][0] != '-') {
    subcommand = argv[1];
    start = 2;
  }
  storage.clear();
  bool prev_expects_value = false;
  for (int i = start; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "-o") {
      storage.push_back("--model");
      prev_expects_value = true;
    } else if (!arg.empty() && arg[0] != '-' && !prev_expects_value) {
      // A free-standing token is the artifact path ("predict model.esm").
      storage.push_back("--model=" + arg);
    } else {
      storage.push_back(arg);
      // "--name value" form: the next token belongs to this flag.
      prev_expects_value =
          arg.size() > 2 && arg[0] == '-' && arg.find('=') == std::string::npos;
    }
  }
  std::vector<const char*> out;
  out.push_back(argv[0]);
  for (const std::string& s : storage) out.push_back(s.c_str());
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  esm::ArgParser args(
      "esm_cli <train|predict|eval|search|measure|pipeline>: train, query, "
      "score, search, measure, and publish ESM surrogate artifacts.");
  args.add_string("model", "/tmp/esm_model.esm", "surrogate artifact path");
  args.add_string("surrogate", "mlp",
                  "surrogate (train): mlp|lut|gbdt|ensemble");
  args.add_string("encoder", "fcc",
                  "encoder (train): onehot|feature|stat|fc|fcc");
  args.add_int("ensemble-members", 4, "ensemble width (train)");
  args.add_string("supernet", "resnet",
                  "space (train): resnet|mobilenetv3|densenet");
  args.add_string("device", "rtx4090",
                  "device (train/eval/search verification): rtx4090|"
                  "rtx3080maxq|threadripper|rpi4");
  args.add_string("strategy", "balanced", "sampling (train): random|balanced");
  args.add_int("n-initial", 300, "N_I (train)");
  args.add_int("n-step", 100, "N_Step (train/pipeline)");
  args.add_int("n-bins", 5, "N_Bins (train/eval)");
  args.add_double("acc-th", 0.95, "Acc_TH (train/eval)");
  args.add_int("max-iters", 20, "iteration budget (train/pipeline)");
  args.add_int("count", 10,
               "architectures to price/measure (train/predict/eval/measure)");
  args.add_double("budget-ms", 3.0,
                  "latency budget applied to every search objective; 0 "
                  "lifts the constraint (search)");
  args.add_string("mode", "best", "search query: pareto|best|fastest");
  args.add_string("algo", "evolutionary",
                  "search algorithm: evolutionary|random");
  args.add_int("population", 64, "population per generation (search)");
  args.add_int("generations", 25, "generations (search)");
  args.add_double("min-quality", 0.0,
                  "accuracy-proxy floor in [0,1]; required by "
                  "--mode fastest (search)");
  args.add_double("bias", 0.0,
                  "front-bias mutation probability in [0,1]: warm-start "
                  "offspring from the current front (search)");
  args.add_string("models", "",
                  "comma-separated extra artifacts as joint objectives "
                  "(search)");
  args.add_string("limits-ms", "",
                  "comma-separated per-model latency limits, one per "
                  "artifact; overrides --budget-ms (search)");
  args.add_string("format", "table",
                  "search output: table|csv|json|serve (serve = the wire "
                  "payload, byte-comparable with the served verb)");
  args.add_string("archs", "",
                  "arch file (measure): one comma-separated depth list per "
                  "line, e.g. 3,5,2,7");
  args.add_string("fault-profile", "none",
                  "fault profile (measure): none|flaky|harsh or key=value "
                  "pairs");
  args.add_int("retries", 3,
               "measurement attempts per sample incl. the first (measure)");
  args.add_string("report-json", "",
                  "write the DatasetReport as JSON here (measure)");
  args.add_string("journal", "",
                  "write-ahead campaign journal path (measure); every "
                  "accepted batch is fsync'd here before the next starts");
  args.add_bool("resume",
                "resume from --journal (measure): journaled batches are "
                "replayed, only the remainder is measured; exit 3 means "
                "resumed-and-complete");
  args.add_int("batch-size", 0,
               "archs per measurement batch / journal record (measure); "
               "0 = one batch");
  args.add_string("out", "",
                  "write the measured dataset as full-precision CSV here "
                  "(measure)");
  args.add_bool("stdin",
                "predict: read arch requests one per line from stdin (same "
                "grammar as the serve protocol) and emit full-precision "
                "CSV on stdout");
  args.add_int("threads", 0,
               "worker threads (measure/pipeline); 0 = the ESM_THREADS "
               "environment variable (default serial)");
  args.add_string("name", "default",
                  "model name to publish under (pipeline)");
  args.add_string("manifest-dir", "/tmp/esm_fleet",
                  "directory holding artifacts + the fleet manifest "
                  "(pipeline)");
  args.add_int("n-test", 200, "held-out gate set size (pipeline)");
  args.add_int("seed", 42, "seed");

  std::string subcommand;
  std::vector<std::string> storage;
  const std::vector<const char*> rewritten =
      normalize_args(argc, argv, subcommand, storage);
  if (!args.parse(static_cast<int>(rewritten.size()), rewritten.data())) {
    return 0;
  }

  try {
    if (subcommand == "train") return run_train(args);
    if (subcommand == "predict") return run_predict(args);
    if (subcommand == "eval") return run_eval(args);
    if (subcommand == "search") return run_search(args);
    if (subcommand == "measure") return run_measure(args);
    if (subcommand == "pipeline") return run_pipeline_cmd(args);
    std::fputs(args.usage().c_str(), stdout);
    std::fputs(
        "\nPick one of: train, predict, eval, search, measure, pipeline.\n",
        stdout);
    return 1;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
