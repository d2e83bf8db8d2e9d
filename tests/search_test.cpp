// Tests for the NAS search subsystem (PR 10): the seeded multi-objective
// evolutionary engine (NSGA-II non-dominated sort + crowding over
// predicted latency x AccuracyProxy quality) and its random baseline,
// constrained modes, the shared request/response wire grammar, the served
// `search` verb on both wire protocols (byte-identical to an offline engine
// run on the same artifact + seed), and the metrics accounting identity
// with searches in the mix.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <future>
#include <limits>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/checksum.hpp"
#include "common/error.hpp"
#include "common/fsio.hpp"
#include "common/rng.hpp"
#include "fuzz_mutator.hpp"
#include "hwsim/latency_model.hpp"
#include "nas/accuracy_proxy.hpp"
#include "nas/search/engine.hpp"
#include "nas/search/wire.hpp"
#include "serve/fleet.hpp"
#include "serve/metrics.hpp"
#include "serve_harness.hpp"
#include "surrogate/predictor.hpp"

namespace esm {
namespace {

using search::Algorithm;
using search::EngineConfig;
using search::Mode;
using search::Objective;
using search::ScoredArch;
using search::SearchEngine;
using search::SearchOutcome;
using serve::EsmClient;
using serve::PredictionServer;
using serve::Protocol;
using serve::ServeConfig;

// ------------------------------------------------------------- fixtures

const std::string& gpu_artifact() {
  static const std::string path =
      build_artifact("search_gpu.esm", rtx4090_spec(), 30);
  return path;
}

const std::string& edge_artifact() {
  static const std::string path =
      build_artifact("search_edge.esm", raspberry_pi4_spec(), 30);
  return path;
}

/// A heavyweight model (50x the trees) so a served search occupies the
/// worker long enough for the shed/deadline tests to observe it running.
/// A DenseNet-space model, for searches that mix spaces.
const std::string& dense_artifact() {
  static const std::string path = build_artifact(
      "search_dense.esm", rtx4090_spec(), 30, 1.0, 0.0, densenet_spec());
  return path;
}

const std::string& slow_artifact() {
  static const std::string path =
      build_artifact("search_slow.esm", rtx4090_spec(), 1500);
  return path;
}

const TrainableSurrogate& gpu_model() {
  static const std::unique_ptr<TrainableSurrogate> model =
      load_surrogate(gpu_artifact());
  return *model;
}

const TrainableSurrogate& edge_model() {
  static const std::unique_ptr<TrainableSurrogate> model =
      load_surrogate(edge_artifact());
  return *model;
}

EngineConfig small_config() {
  EngineConfig config;
  config.population = 16;
  config.generations = 4;
  config.seed = 42;
  return config;
}

SearchOutcome run_small(const TrainableSurrogate& model, EngineConfig config,
                        double limit_ms = 0.0) {
  SearchEngine engine(model.spec(), config);
  const AccuracyProxy proxy(model.spec());
  return engine.run({Objective{"m", &model, limit_ms}}, proxy);
}

/// The median predicted latency over a fixed sample of the space — a
/// constraint the search can always satisfy, whatever the device scale.
double median_latency(const TrainableSurrogate& model) {
  SearchEngine engine(model.spec(), small_config());
  Rng rng(99);
  std::vector<ArchConfig> archs;
  archs.reserve(64);
  for (int i = 0; i < 64; ++i) archs.push_back(engine.sample(rng));
  std::vector<double> ms = model.predict_all(archs);
  std::nth_element(ms.begin(), ms.begin() + 32, ms.end());
  return ms[32];
}

/// Median quality over the same fixed sample, for quality-floor tests.
double median_quality(const TrainableSurrogate& model) {
  SearchEngine engine(model.spec(), small_config());
  const AccuracyProxy proxy(model.spec());
  Rng rng(99);
  std::vector<double> quality;
  quality.reserve(64);
  for (int i = 0; i < 64; ++i) {
    quality.push_back(proxy.top5_accuracy(engine.sample(rng)));
  }
  std::nth_element(quality.begin(), quality.begin() + 32, quality.end());
  return quality[32];
}

std::string format_full(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

std::string outcome_fingerprint(const SupernetSpec& spec,
                                const EngineConfig& config,
                                const SearchOutcome& outcome) {
  // The canonical payload covers the front plus the winner; append every
  // candidate (round-trip-exact doubles) so the fingerprint pins the
  // whole final population bit for bit.
  std::string fp = search::format_front_payload(spec, config, outcome);
  for (const ScoredArch& c : outcome.candidates) {
    fp += "\n" + search::format_arch_request(spec, c.arch);
    for (double ms : c.latency_ms) fp += "|" + format_full(ms);
    fp += "|" + format_full(c.quality) + "|" + format_full(c.violation);
  }
  return fp;
}

/// Ground truth posing as a surrogate: verify_front must report zero
/// regret and unit jaccard when the "surrogate" is the hwsim oracle.
class OraclePredictor final : public LatencyPredictor {
 public:
  explicit OraclePredictor(SupernetSpec spec, const DeviceSpec& device)
      : spec_(std::move(spec)), model_(device) {}
  std::string name() const override { return "oracle"; }
  double predict_ms(const ArchConfig& arch) const override {
    return model_.true_latency_ms(build_graph(spec_, arch));
  }

 private:
  SupernetSpec spec_;
  LatencyModel model_;
};

// ------------------------------------------------------- engine semantics

TEST(SearchEngineTest, SeededRunsAreIdentical) {
  const SearchOutcome a = run_small(gpu_model(), small_config());
  const SearchOutcome b = run_small(gpu_model(), small_config());
  EXPECT_EQ(outcome_fingerprint(gpu_model().spec(), small_config(), a),
            outcome_fingerprint(gpu_model().spec(), small_config(), b));
  // Initial population plus one cohort per generation, scored once each.
  EXPECT_EQ(a.evaluations, 16u * 5u);

  // The same pin on MobileNetV3 under a latency limit, priced by the
  // hwsim oracle.
  const SupernetSpec mbv3 = mobilenet_v3_spec();
  const OraclePredictor oracle(mbv3, rtx4090_spec());
  const SearchEngine engine(mbv3, small_config());
  const AccuracyProxy proxy(mbv3);
  const auto run = [&] {
    return outcome_fingerprint(
        mbv3, small_config(),
        engine.run({Objective{"oracle", &oracle, 10.0}}, proxy));
  };
  EXPECT_EQ(run(), run());
}

TEST(SearchEngineTest, FrontIsFeasibleSortedAndNonDominated) {
  const double limit = median_latency(gpu_model());
  const SearchOutcome outcome = run_small(gpu_model(), small_config(), limit);
  ASSERT_TRUE(outcome.found_feasible);
  ASSERT_FALSE(outcome.front.empty());
  for (std::size_t n = 0; n < outcome.front.size(); ++n) {
    const ScoredArch& c = outcome.candidates[outcome.front[n]];
    EXPECT_EQ(c.violation, 0.0);
    EXPECT_LE(c.latency_ms.front(), limit);
    if (n > 0) {
      const ScoredArch& prev = outcome.candidates[outcome.front[n - 1]];
      EXPECT_LT(prev.latency_ms.front(), c.latency_ms.front());
      EXPECT_LT(prev.quality, c.quality);  // else prev would dominate c
    }
  }
}

TEST(SearchEngineTest, BestModePicksHighestQualityFrontMember) {
  const SearchOutcome outcome = run_small(gpu_model(), small_config());
  ASSERT_TRUE(outcome.found_feasible);
  for (std::size_t i : outcome.front) {
    EXPECT_LE(outcome.candidates[i].quality,
              outcome.candidates[outcome.best].quality);
  }
}

TEST(SearchEngineTest, FastestModePicksCheapestMeetingQualityFloor) {
  const double floor = median_quality(gpu_model());
  EngineConfig config = small_config();
  config.mode = Mode::fastest;
  config.min_quality = floor;
  const SearchOutcome outcome = run_small(gpu_model(), config);
  ASSERT_TRUE(outcome.found_feasible);
  const ScoredArch& best = outcome.candidates[outcome.best];
  EXPECT_GE(best.quality, floor);
  for (std::size_t i : outcome.front) {
    EXPECT_GE(outcome.candidates[i].quality, floor);
    EXPECT_LE(best.latency_ms.front(), outcome.candidates[i].latency_ms[0]);
  }
}

TEST(SearchEngineTest, FastestModeRequiresQualityFloor) {
  EngineConfig config = small_config();
  config.mode = Mode::fastest;
  config.min_quality = 0.0;
  EXPECT_THROW(SearchEngine(gpu_model().spec(), config), ConfigError);
}

TEST(SearchEngineTest, ImpossibleBudgetReportsClosestMiss) {
  const SearchOutcome outcome =
      run_small(gpu_model(), small_config(), /*limit_ms=*/1e-4);
  EXPECT_FALSE(outcome.found_feasible);
  EXPECT_TRUE(outcome.front.empty());
  ASSERT_FALSE(outcome.candidates.empty());
  const double least = outcome.candidates[outcome.best].violation;
  EXPECT_GT(least, 0.0);
  for (const ScoredArch& c : outcome.candidates) {
    EXPECT_GE(c.violation, least);
  }
}

TEST(SearchEngineTest, JointConstraintsSatisfyEveryObjective) {
  const double gpu_limit = median_latency(gpu_model());
  SearchEngine engine(gpu_model().spec(), small_config());
  const AccuracyProxy proxy(gpu_model().spec());
  const SearchOutcome outcome =
      engine.run({Objective{"gpu", &gpu_model(), gpu_limit},
                  Objective{"edge", &edge_model(), 1e9}},
                 proxy);
  ASSERT_TRUE(outcome.found_feasible);
  for (std::size_t i : outcome.front) {
    const ScoredArch& c = outcome.candidates[i];
    ASSERT_EQ(c.latency_ms.size(), 2u);
    EXPECT_LE(c.latency_ms[0], gpu_limit);
    EXPECT_LE(c.latency_ms[1], 1e9);
  }
}

TEST(SearchEngineTest, RandomBaselineIsSeededAndBudgetMatched) {
  EngineConfig config = small_config();
  config.algorithm = Algorithm::random_search;
  const SearchOutcome a = run_small(gpu_model(), config);
  const SearchOutcome b = run_small(gpu_model(), config);
  EXPECT_EQ(outcome_fingerprint(gpu_model().spec(), config, a),
            outcome_fingerprint(gpu_model().spec(), config, b));
  // The baseline spends exactly the evolutionary budget on i.i.d. samples.
  EXPECT_EQ(a.evaluations, 16u * 5u);
  EXPECT_EQ(a.candidates.size(), 16u * 5u);
}

TEST(SearchEngineTest, EvolutionBeatsRandomAtEqualBudget) {
  const double limit = median_latency(gpu_model());
  EngineConfig config = small_config();
  config.generations = 10;
  const SearchOutcome evo = run_small(gpu_model(), config, limit);
  config.algorithm = Algorithm::random_search;
  const SearchOutcome rnd = run_small(gpu_model(), config, limit);
  ASSERT_TRUE(evo.found_feasible);
  ASSERT_TRUE(rnd.found_feasible);
  // Deterministic given the fixed seed: selection pressure must not lose
  // to blind sampling on its own budget.
  EXPECT_GE(evo.candidates[evo.best].quality,
            rnd.candidates[rnd.best].quality);
}

TEST(SearchEngineTest, FrontBiasModeStaysDeterministicAndFeasible) {
  EngineConfig config = small_config();
  config.front_bias = 0.5;
  const SearchOutcome a = run_small(gpu_model(), config);
  const SearchOutcome b = run_small(gpu_model(), config);
  EXPECT_EQ(outcome_fingerprint(gpu_model().spec(), config, a),
            outcome_fingerprint(gpu_model().spec(), config, b));
  EXPECT_TRUE(a.found_feasible);
}

TEST(SearchEngineTest, CancelCheckAbortsBetweenGenerations) {
  SearchEngine engine(gpu_model().spec(), small_config());
  const AccuracyProxy proxy(gpu_model().spec());
  int calls = 0;
  EXPECT_THROW(engine.run({Objective{"m", &gpu_model(), 0.0}}, proxy,
                          [&] { return ++calls >= 2; }),
               search::SearchCancelled);
  EXPECT_GE(calls, 2);
}

TEST(SearchEngineTest, SampledAndMutatedArchsStayPerUnitUniform) {
  for (const SupernetSpec& spec :
       {resnet_spec(), mobilenet_v3_spec(), densenet_spec()}) {
    SearchEngine engine(spec, small_config());
    Rng rng(11);
    for (int i = 0; i < 50; ++i) {
      ArchConfig arch = engine.sample(rng);
      engine.mutate(arch, rng);
      EXPECT_NO_THROW(spec.validate(arch)) << spec.name;
      // format_arch_request throws on a non-uniform unit — the engine must
      // never leave the wire-expressible subspace.
      EXPECT_NO_THROW(search::format_arch_request(spec, arch)) << spec.name;
      // Crossover takes every unit whole from one parent or the other.
      const ArchConfig other = engine.sample(rng);
      const ArchConfig child = engine.crossover(arch, other, rng);
      ASSERT_EQ(child.units.size(), arch.units.size());
      for (std::size_t u = 0; u < child.units.size(); ++u) {
        EXPECT_TRUE(child.units[u] == arch.units[u] ||
                    child.units[u] == other.units[u])
            << spec.name;
      }
    }
  }
}

TEST(SearchEngineTest, ValidatesConfigAndObjectives) {
  EngineConfig config = small_config();
  config.population = 1;
  EXPECT_THROW(SearchEngine(gpu_model().spec(), config), ConfigError);
  config = small_config();
  config.front_bias = 1.5;
  EXPECT_THROW(SearchEngine(gpu_model().spec(), config), ConfigError);
  SearchEngine engine(gpu_model().spec(), small_config());
  const AccuracyProxy proxy(gpu_model().spec());
  EXPECT_THROW(engine.run({}, proxy), ConfigError);
  EXPECT_THROW(engine.run({Objective{"m", nullptr, 0.0}}, proxy), ConfigError);
  EXPECT_THROW(engine.run({Objective{"m", &gpu_model(), -1.0}}, proxy),
               ConfigError);
}

/// 64-bit FNV-1a over little-endian words and raw bytes.
struct Fnv1a {
  std::uint64_t h = 14695981039346656037ull;
  void fold_byte(std::uint8_t byte) {
    h ^= byte;
    h *= 1099511628211ull;
  }
  void fold(std::uint64_t v) {
    for (int byte = 0; byte < 8; ++byte) fold_byte((v >> (8 * byte)) & 0xff);
  }
  void fold(double v) { fold(std::bit_cast<std::uint64_t>(v)); }
  void fold(const std::string& s) {
    fold(static_cast<std::uint64_t>(s.size()));
    for (char c : s) fold_byte(static_cast<std::uint8_t>(c));
  }
};

/// Digest of everything a search hands back: every candidate's canonical
/// string and the bit patterns of its scores, then the front, the winner,
/// the feasibility flag and the evaluation count.
std::uint64_t outcome_digest(const SearchOutcome& outcome) {
  Fnv1a f;
  for (const ScoredArch& c : outcome.candidates) {
    f.fold(c.arch.to_string());
    for (double ms : c.latency_ms) f.fold(ms);
    f.fold(c.quality);
    f.fold(c.violation);
  }
  f.fold(static_cast<std::uint64_t>(outcome.front.size()));
  for (std::size_t i : outcome.front) f.fold(static_cast<std::uint64_t>(i));
  f.fold(static_cast<std::uint64_t>(outcome.best));
  f.fold(static_cast<std::uint64_t>(outcome.found_feasible));
  f.fold(static_cast<std::uint64_t>(outcome.evaluations));
  return f.h;
}

/// One GoldenOutcomeDigest case. Priced by the hwsim oracle, so no trained
/// model is involved; std::hash inside the accuracy proxy makes the
/// outcomes libstdc++-specific.
struct GoldenCase {
  const char* label;
  SupernetSpec spec;
  Mode mode;
  Algorithm algorithm;
  double gpu_limit_ms;  ///< 0 = unconstrained
  double edge_limit_ms; ///< < 0 = no second objective; 0 = unconstrained
  double min_quality;
  bool mixed;  ///< the first cohort straddles the limits
  std::uint64_t expected;
};

const std::vector<GoldenCase>& golden_cases() {
  static const std::vector<GoldenCase> cases{
      {"resnet pareto", resnet_spec(), Mode::pareto,
       Algorithm::evolutionary, 0.0, -1.0, 0.0, false,
       0xdc570df2320efe75ull},
      {"mobilenet best mixed", mobilenet_v3_spec(), Mode::best,
       Algorithm::evolutionary, 1.2, -1.0, 0.0, true,
       0x11997758a83f7769ull},
      {"densenet fastest", densenet_spec(), Mode::fastest,
       Algorithm::evolutionary, 0.0, -1.0, 0.945, false,
       0x4a49ec622d9a4b42ull},
      {"resnet random mixed", resnet_spec(), Mode::pareto,
       Algorithm::random_search, 2.8, -1.0, 0.0, true,
       0xa34481f23afba667ull},
      {"mobilenet impossible", mobilenet_v3_spec(), Mode::best,
       Algorithm::evolutionary, 1e-4, -1.0, 0.0, false,
       0x9e01919223038dbaull},
      {"resnet joint mixed", resnet_spec(), Mode::pareto,
       Algorithm::evolutionary, 3.0, 450.0, 0.0, true,
       0x47f0a6c65fad33e8ull},
      {"densenet joint best", densenet_spec(), Mode::best,
       Algorithm::evolutionary, 0.0, 0.0, 0.0, false,
       0x06218292211a9275ull},
  };
  return cases;
}

EngineConfig golden_config(const GoldenCase& c) {
  EngineConfig config;
  config.mode = c.mode;
  config.algorithm = c.algorithm;
  config.population = 24;
  config.generations = 5;
  config.min_quality = c.min_quality;
  config.seed = 17;
  return config;
}

SearchOutcome run_golden_case(const GoldenCase& c) {
  const EngineConfig config = golden_config(c);
  const OraclePredictor gpu(c.spec, rtx4090_spec());
  const OraclePredictor edge(c.spec, raspberry_pi4_spec());
  std::vector<Objective> objectives{{"gpu", &gpu, c.gpu_limit_ms}};
  if (c.edge_limit_ms >= 0.0) {
    objectives.push_back({"edge", &edge, c.edge_limit_ms});
  }
  const SearchEngine engine(c.spec, config);
  if (c.mixed) {
    // The first cohort is the seed's first `population` samples; it must
    // hold feasible and infeasible archs, so selection ranks both.
    Rng rng(config.seed);
    std::size_t feasible = 0;
    for (std::size_t i = 0; i < config.population; ++i) {
      const ArchConfig arch = engine.sample(rng);
      if (gpu.predict_ms(arch) <= c.gpu_limit_ms &&
          (c.edge_limit_ms <= 0.0 ||
           edge.predict_ms(arch) <= c.edge_limit_ms)) {
        ++feasible;
      }
    }
    EXPECT_GT(feasible, 0u) << c.label;
    EXPECT_LT(feasible, config.population) << c.label;
  }
  return engine.run(objectives, AccuracyProxy(c.spec));
}

TEST(SearchEngineTest, GoldenOutcomeDigest) {
  // Recorded before the constrained sort and the proxy's FLOPs path were
  // rewritten: any change to candidates, scores, ranks or selection moves
  // a digest.
  for (const GoldenCase& c : golden_cases()) {
    EXPECT_EQ(outcome_digest(run_golden_case(c)), c.expected) << c.label;
  }
}

TEST(SearchEngineTest, FrontPayloadBytesMatchRecordedCrc) {
  // Recorded while both formatters still went through std::ostringstream:
  // the wire text of every golden front, plus every candidate's request
  // form (ResNet, MobileNetV3 with its 2/3 expansion, DenseNet with none),
  // must stay byte for byte what servers and clients already exchange.
  std::uint32_t crc = 0;
  bool saw_two_thirds = false;
  for (const GoldenCase& c : golden_cases()) {
    const SearchOutcome outcome = run_golden_case(c);
    crc = crc32(search::format_front_payload(c.spec, golden_config(c),
                                             outcome),
                crc);
    for (const ScoredArch& candidate : outcome.candidates) {
      const std::string text =
          search::format_arch_request(c.spec, candidate.arch);
      saw_two_thirds |= text.find("e0.666667") != std::string::npos;
      crc = crc32("\n" + text, crc);
    }
  }
  EXPECT_TRUE(saw_two_thirds);
  EXPECT_EQ(crc32_hex(crc), "7dc83cbe");
}

// ------------------------------------------ constrained non-dominated sort

/// Reference for detail::non_dominated_ranks: the engine's original
/// pairwise sort. Deb's constrained-domination rule: a feasible candidate
/// dominates any infeasible one; among infeasible, strictly less violation
/// dominates; among feasible, Pareto dominance over (latencies minimized,
/// quality maximized).
bool reference_dominates(const ScoredArch& a, const ScoredArch& b) {
  const bool a_feasible = a.violation == 0.0;
  const bool b_feasible = b.violation == 0.0;
  if (a_feasible != b_feasible) return a_feasible;
  if (!a_feasible) return a.violation < b.violation;
  bool strictly_better = false;
  for (std::size_t k = 0; k < a.latency_ms.size(); ++k) {
    if (a.latency_ms[k] > b.latency_ms[k]) return false;
    if (a.latency_ms[k] < b.latency_ms[k]) strictly_better = true;
  }
  if (a.quality < b.quality) return false;
  if (a.quality > b.quality) strictly_better = true;
  return strictly_better;
}

std::vector<std::size_t> reference_ranks(const std::vector<ScoredArch>& pop) {
  const std::size_t n = pop.size();
  std::vector<std::size_t> dominated_by(n, 0);
  std::vector<std::vector<std::size_t>> dominates_list(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      if (reference_dominates(pop[i], pop[j])) {
        dominates_list[i].push_back(j);
        ++dominated_by[j];
      } else if (reference_dominates(pop[j], pop[i])) {
        dominates_list[j].push_back(i);
        ++dominated_by[i];
      }
    }
  }
  std::vector<std::size_t> ranks(n, 0);
  std::vector<std::size_t> current;
  for (std::size_t i = 0; i < n; ++i) {
    if (dominated_by[i] == 0) current.push_back(i);
  }
  std::size_t rank = 0;
  while (!current.empty()) {
    std::vector<std::size_t> next;
    for (std::size_t i : current) {
      ranks[i] = rank;
      for (std::size_t j : dominates_list[i]) {
        if (--dominated_by[j] == 0) next.push_back(j);
      }
    }
    std::sort(next.begin(), next.end());
    current = std::move(next);
    ++rank;
  }
  return ranks;
}

/// A seeded population on a coarse grid, so exact ties, duplicate points
/// and equal violations are common. `nan_share` of the scores are NaN.
std::vector<ScoredArch> grid_population(Rng& rng, std::size_t n,
                                        std::size_t latencies,
                                        double feasible_share,
                                        double nan_share) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  auto score = [&](double value) {
    return rng.bernoulli(nan_share) ? nan : value;
  };
  std::vector<ScoredArch> pop;
  pop.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (i > 0 && rng.bernoulli(0.2)) {
      pop.push_back(pop[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<int>(i) - 1))]);
      continue;
    }
    ScoredArch c;
    for (std::size_t k = 0; k < latencies; ++k) {
      c.latency_ms.push_back(score(rng.uniform_int(0, 4)));
    }
    c.quality = score(rng.uniform_int(0, 4) / 4.0);
    c.violation = rng.bernoulli(feasible_share)
                      ? 0.0
                      : score(rng.uniform_int(1, 4) * 0.25);
    pop.push_back(std::move(c));
  }
  return pop;
}

TEST(NonDominatedRanksTest, MatchesPairwiseReferenceSort) {
  Rng rng(2024);
  std::size_t populations = 0;
  for (std::size_t latencies = 1; latencies <= 3; ++latencies) {
    for (double feasible_share : {1.0, 0.0, 0.3, 0.7}) {
      for (double nan_share : {0.0, 0.1}) {
        for (std::size_t n : {0u, 1u, 2u, 7u, 40u, 128u, 256u}) {
          for (int draw = 0; draw < 4; ++draw) {
            const std::vector<ScoredArch> pop = grid_population(
                rng, n, latencies, feasible_share, nan_share);
            ASSERT_EQ(search::detail::non_dominated_ranks(pop),
                      reference_ranks(pop))
                << "latencies " << latencies << " feasible "
                << feasible_share << " nan " << nan_share << " n " << n
                << " draw " << draw;
            ++populations;
          }
        }
      }
    }
  }
  EXPECT_EQ(populations, 3u * 4u * 2u * 7u * 4u);

  // Larger and flatter tables: n = 512, four latencies, and populations of
  // one repeated row, where every candidate ties with every other.
  Rng wide(2025);
  std::size_t wide_populations = 0;
  for (std::size_t latencies : {2u, 4u}) {
    for (double feasible_share : {1.0, 0.7}) {
      for (double nan_share : {0.0, 0.1}) {
        for (std::size_t n : {1u, 40u, 512u}) {
          std::vector<ScoredArch> pop = grid_population(
              wide, n, latencies, feasible_share, nan_share);
          ASSERT_EQ(search::detail::non_dominated_ranks(pop),
                    reference_ranks(pop))
              << "latencies " << latencies << " feasible " << feasible_share
              << " nan " << nan_share << " n " << n;
          pop.assign(n, pop.front());
          ASSERT_EQ(search::detail::non_dominated_ranks(pop),
                    reference_ranks(pop))
              << "all-duplicate latencies " << latencies << " feasible "
              << feasible_share << " nan " << nan_share << " n " << n;
          wide_populations += 2;
        }
      }
    }
  }
  EXPECT_EQ(wide_populations, 2u * 2u * 2u * 3u * 2u);
}

// ------------------------------------------------------- NaN predictions

/// The hwsim oracle, except that about one arch in ten prices as NaN.
class NanInjectingPredictor final : public LatencyPredictor {
 public:
  explicit NanInjectingPredictor(const LatencyPredictor& inner)
      : inner_(inner) {}
  std::string name() const override { return "nan-injecting"; }
  double predict_ms(const ArchConfig& arch) const override {
    if (crc32(arch.to_string()) % 10 == 0) {
      return std::numeric_limits<double>::quiet_NaN();
    }
    return inner_.predict_ms(arch);
  }

 private:
  const LatencyPredictor& inner_;
};

/// Asserts that `before` is a strict total order on [0, n).
void expect_strict_total_order(
    std::size_t n, const std::function<bool(std::size_t, std::size_t)>& before,
    const std::string& label) {
  for (std::size_t a = 0; a < n; ++a) {
    ASSERT_FALSE(before(a, a)) << label << " irreflexive at " << a;
    for (std::size_t b = 0; b < n; ++b) {
      if (a != b) {
        ASSERT_NE(before(a, b), before(b, a))
            << label << " total/asymmetric at " << a << ", " << b;
      }
      if (!before(a, b)) continue;
      for (std::size_t c = 0; c < n; ++c) {
        if (before(b, c)) {
          ASSERT_TRUE(before(a, c))
              << label << " transitive at " << a << ", " << b << ", " << c;
        }
      }
    }
  }
}

TEST(SearchEngineTest, NanPredictionsKeepSelectionOrderTotal) {
  Rng rng(77);
  for (std::size_t latencies = 1; latencies <= 3; ++latencies) {
    for (double feasible_share : {1.0, 0.7}) {
      for (int draw = 0; draw < 8; ++draw) {
        const std::vector<ScoredArch> pop =
            grid_population(rng, 40, latencies, feasible_share, 0.1);
        const std::vector<std::size_t> ranks =
            search::detail::non_dominated_ranks(pop);
        std::vector<double> crowding =
            search::detail::crowding_distances(pop, ranks);
        const std::string label = "latencies " + std::to_string(latencies) +
                                  " draw " + std::to_string(draw);
        for (std::size_t i = 0; i < pop.size(); ++i) {
          ASSERT_FALSE(std::isnan(crowding[i])) << label << " candidate " << i;
        }
        const auto before = [&](std::size_t a, std::size_t b) {
          return search::detail::selection_before(a, b, ranks, crowding);
        };
        expect_strict_total_order(pop.size(), before, label);
        // The order stays total even over NaN crowding distances.
        for (std::size_t i = 0; i < crowding.size(); i += 3) {
          crowding[i] = std::numeric_limits<double>::quiet_NaN();
        }
        expect_strict_total_order(pop.size(), before, label + " nan crowding");
      }
    }
  }

  // A whole search over NaN-laced predictions stays deterministic.
  const SupernetSpec spec = resnet_spec();
  const OraclePredictor oracle(spec, rtx4090_spec());
  const NanInjectingPredictor nan_gpu(oracle);
  EngineConfig config = small_config();
  config.mode = Mode::pareto;
  config.population = 32;
  config.generations = 6;
  const SearchEngine engine(spec, config);
  const AccuracyProxy proxy(spec);
  const std::vector<Objective> objectives{{"gpu", &nan_gpu, 0.0}};
  const SearchOutcome a = engine.run(objectives, proxy);
  const SearchOutcome b = engine.run(objectives, proxy);
  EXPECT_EQ(outcome_fingerprint(spec, config, a),
            outcome_fingerprint(spec, config, b));
  const bool priced_nan = std::any_of(
      a.candidates.begin(), a.candidates.end(),
      [](const ScoredArch& c) { return std::isnan(c.latency_ms.front()); });
  EXPECT_TRUE(priced_nan);
}

// ---------------------------------------------------------- verify_front

TEST(VerifyFrontTest, OracleSurrogateHasZeroRegret) {
  const SupernetSpec spec = resnet_spec();
  const OraclePredictor oracle(spec, rtx4090_spec());
  SearchEngine engine(spec, small_config());
  const AccuracyProxy proxy(spec);
  const SearchOutcome outcome =
      engine.run({Objective{"true", &oracle, 0.0}}, proxy);
  ASSERT_TRUE(outcome.found_feasible);
  const search::FrontCheck check =
      search::verify_front(spec, outcome, rtx4090_spec(), 0.0, 0.0);
  EXPECT_EQ(check.regret, 0.0);
  EXPECT_EQ(check.jaccard, 1.0);
  EXPECT_EQ(check.true_front, outcome.front);
}

TEST(VerifyFrontTest, ImperfectSurrogateReportsBoundedScores) {
  const double limit = median_latency(gpu_model());
  const SearchOutcome outcome = run_small(gpu_model(), small_config(), limit);
  const search::FrontCheck check = search::verify_front(
      gpu_model().spec(), outcome, rtx4090_spec(), limit, 0.0);
  ASSERT_EQ(check.true_ms.size(), outcome.candidates.size());
  EXPECT_GE(check.regret, 0.0);
  EXPECT_GE(check.jaccard, 0.0);
  EXPECT_LE(check.jaccard, 1.0);
}

// ------------------------------------------------------------ wire format

TEST(SearchWireTest, RequestRoundTripsThroughFormat) {
  search::SearchRequest request;
  request.config.mode = Mode::pareto;
  request.config.algorithm = Algorithm::random_search;
  request.config.population = 32;
  request.config.generations = 7;
  request.config.min_quality = 0.25;
  request.config.front_bias = 0.125;
  request.config.seed = 18446744073709551615ull;
  request.models = {"edge", "cloud"};
  request.limits_ms = {8.0, 40.0};
  const search::SearchRequest parsed =
      search::parse_search_request(search::format_search_request(request));
  EXPECT_EQ(parsed.config.mode, request.config.mode);
  EXPECT_EQ(parsed.config.algorithm, request.config.algorithm);
  EXPECT_EQ(parsed.config.population, request.config.population);
  EXPECT_EQ(parsed.config.generations, request.config.generations);
  EXPECT_EQ(parsed.config.min_quality, request.config.min_quality);
  EXPECT_EQ(parsed.config.front_bias, request.config.front_bias);
  EXPECT_EQ(parsed.config.seed, request.config.seed);
  EXPECT_EQ(parsed.models, request.models);
  EXPECT_EQ(parsed.limits_ms, request.limits_ms);
}

TEST(SearchWireTest, EmptyPayloadIsAllDefaults) {
  const search::SearchRequest parsed = search::parse_search_request("");
  const EngineConfig defaults;
  EXPECT_EQ(parsed.config.population, defaults.population);
  EXPECT_EQ(parsed.config.generations, defaults.generations);
  EXPECT_EQ(parsed.config.seed, defaults.seed);
  EXPECT_TRUE(parsed.models.empty());
  EXPECT_TRUE(parsed.limits_ms.empty());
}

TEST(SearchWireTest, BudgetShorthandExpandsPerModel) {
  const search::SearchRequest parsed =
      search::parse_search_request("models=a,b budget_ms=5");
  EXPECT_EQ(parsed.limits_ms, (std::vector<double>{5.0, 5.0}));
}

TEST(SearchWireTest, RejectsMalformedRequests) {
  const std::vector<std::pair<const char*, const char*>> matrix = {
      {"frobnicate=1", "unknown search key"},
      {"population", "k=v"},
      {"population=abc", "population"},
      {"population=1", "population"},
      {"generations=0", "generations"},
      {"mode=slowest", "mode"},
      {"algo=annealing", "algorithm"},
      {"budget_ms=0", "budget_ms"},
      {"budget_ms=5 limits_ms=5", "mutually exclusive"},
      {"models=a,b limits_ms=5", "limits_ms"},
      {"limits_ms=5,6", "limits_ms"},
      {"seed=-1", "seed"},
      {"seed=18446744073709551616", "seed"},
      {"seed=99999999999999999999", "seed"},
  };
  for (const auto& [payload, needle] : matrix) {
    try {
      search::parse_search_request(payload);
      FAIL() << "accepted '" << payload << "'";
    } catch (const ConfigError& e) {
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
          << "for '" << payload << "' got: " << e.what();
    }
  }
}

bool same_request(const search::SearchRequest& a,
                  const search::SearchRequest& b) {
  return a.config.mode == b.config.mode &&
         a.config.algorithm == b.config.algorithm &&
         a.config.population == b.config.population &&
         a.config.generations == b.config.generations &&
         a.config.seed == b.config.seed &&
         a.config.min_quality == b.config.min_quality &&
         a.config.front_bias == b.config.front_bias && a.models == b.models &&
         a.limits_ms == b.limits_ms;
}

/// One random edit of a k=v search payload.
void mutate_search(std::string& s, const std::vector<std::string>& seeds,
                   Rng& rng) {
  static constexpr std::string_view kFragments[] = {
      " ",      "\t",      "=",       ",",          "-",          "+",
      "seed=",  "seed=-1", "models=", "limits_ms=", "budget_ms=", "bias=",
      "min_quality=",      "mode=fastest",          "algo=random",
      "nan",    "inf",     "-0",      "0x1p3",      "1e999",
      "18446744073709551615",         "18446744073709551616",
      "9223372036854775808",          std::string_view("\0", 1)};
  static const char* const kNumbers[] = {
      "0",   "1",    "2",   "-1",  "+2",  "007", "99999999999999999999",
      "18446744073709551615", "18446744073709551616", "-9223372036854775809",
      "1e3", "nan",  "0x10", "0.5", "-0"};
  switch (rng.uniform_int(0, 7)) {
    case 0: fuzz::flip_bit(s, rng); break;
    case 1: fuzz::splice(s, seeds, rng); break;
    case 2: fuzz::truncate(s, rng); break;
    case 3: fuzz::duplicate_field(s, ' ', rng); break;
    case 4: fuzz::erase_byte(s, rng); break;
    case 5: fuzz::insert_fragment(s, kFragments, rng); break;
    case 6: fuzz::replace_number(s, kNumbers, rng); break;
    default: fuzz::insert_random_byte(s, rng); break;
  }
}

TEST(SearchRequestFuzzTest, MutatedPayloadsRejectOrRoundTrip) {
  // Every mutated payload either throws ConfigError or parses to a request
  // that, once the engine accepts its config, survives format -> parse
  // unchanged (the served path rejects the rest inline as bad_request).
  const std::vector<std::string> seeds = {
      "",
      "mode=pareto algo=random population=32 generations=7 seed=99 "
      "min_quality=0.25 bias=0.125 models=edge,cloud limits_ms=8,40",
      "mode=best population=64 generations=25 seed=42 budget_ms=8",
      "mode=fastest min_quality=0.4 seed=18446744073709551615",
      "models=a,b budget_ms=5 seed=7",
      "algo=evolutionary seed=0 limits_ms=12.5",
  };
  const SupernetSpec spec = resnet_spec();
  Rng rng(2024);
  int rejected = 0;
  int round_tripped = 0;
  for (int i = 0; i < 20000; ++i) {
    std::string payload = seeds[rng.uniform_u64(seeds.size())];
    const int edits = rng.uniform_int(1, 3);
    for (int e = 0; e < edits; ++e) mutate_search(payload, seeds, rng);
    search::SearchRequest request;
    try {
      request = search::parse_search_request(payload);
      SearchEngine engine(spec, request.config);
    } catch (const ConfigError&) {
      ++rejected;
      continue;
    }
    const std::string text = search::format_search_request(request);
    search::SearchRequest again;
    try {
      again = search::parse_search_request(text);
    } catch (const ConfigError& e) {
      ADD_FAILURE() << "'" << payload << "' formats to '" << text
                    << "', which fails to parse: " << e.what();
      continue;
    }
    if (!same_request(again, request)) {
      ADD_FAILURE() << "'" << payload << "' -> '" << text << "' -> '"
                    << search::format_search_request(again) << "'";
      continue;
    }
    ++round_tripped;
  }
  // Both outcomes must be common, or the mutator tests nothing.
  EXPECT_GT(rejected, 2000);
  EXPECT_GT(round_tripped, 2000);
}

TEST(SearchWireTest, ArchRequestRoundTripsThroughServeParser) {
  const SupernetSpec spec = resnet_spec();
  SearchEngine engine(spec, small_config());
  Rng rng(3);
  for (int i = 0; i < 50; ++i) {
    const ArchConfig arch = engine.sample(rng);
    const std::string text = search::format_arch_request(spec, arch);
    const ArchConfig parsed = serve::parse_arch_request(spec, text);
    EXPECT_EQ(parsed.to_string(), arch.to_string()) << text;
  }
}

TEST(SearchWireTest, FormatArchRequestRejectsNonUniformUnits) {
  const SupernetSpec spec = resnet_spec();
  SearchEngine engine(spec, small_config());
  Rng rng(5);
  ArchConfig arch = engine.sample(rng);
  while (arch.units.front().depth() < 2) arch = engine.sample(rng);
  BlockConfig& first = arch.units.front().blocks.front();
  first.kernel = first.kernel == 3 ? 5 : 3;
  EXPECT_THROW(search::format_arch_request(spec, arch), ConfigError);
}

TEST(SearchWireTest, FrontPayloadListsFrontInOrder) {
  const EngineConfig config = small_config();
  const SearchOutcome outcome = run_small(gpu_model(), config);
  ASSERT_TRUE(outcome.found_feasible);
  ASSERT_FALSE(outcome.front.empty());
  const std::string payload =
      search::format_front_payload(gpu_model().spec(), config, outcome);
  EXPECT_EQ(payload.rfind("mode=best algo=evolutionary ", 0), 0u) << payload;
  EXPECT_NE(payload.find(" feasible=1"), std::string::npos);
  EXPECT_NE(payload.find(" front=" + std::to_string(outcome.front.size())),
            std::string::npos);
  EXPECT_NE(payload.find(" best="), std::string::npos);
  // The trailing token is the ';'-joined entry list, one per front member.
  const std::string list = payload.substr(payload.rfind(' ') + 1);
  std::size_t entries = 1;
  for (char c : list) entries += c == ';';
  EXPECT_EQ(entries, outcome.front.size());
}

// ------------------------------------------------------------- served verb

/// One request line through the server core, rendered as its esm1 reply:
/// a miss is priced by the flush() that follows, a search by its worker.
std::string served_line(PredictionServer& server, const std::string& line) {
  std::promise<serve::Reply> reply;
  server.handle_request(serve::split_request(line), line.size(),
                        [&reply](serve::Reply&& r) {
                          reply.set_value(std::move(r));
                        });
  server.flush();
  return serve::format_reply_esm1(reply.get_future().get());
}

TEST(ServedSearchTest, MatchesOfflineEngineByteForByte) {
  PredictionServer server(serve_config(gpu_artifact()));
  const std::string request =
      "search population=16 generations=4 seed=42 budget_ms=3.5";
  const std::string reply = served_line(server, request);
  ASSERT_EQ(reply.rfind("esm1 ok search ", 0), 0u) << reply;

  // The same search, offline, straight through the engine: identical bytes.
  const search::SearchRequest parsed = search::parse_search_request(
      "population=16 generations=4 seed=42 budget_ms=3.5");
  SearchEngine engine(gpu_model().spec(), parsed.config);
  const AccuracyProxy proxy(gpu_model().spec());
  const SearchOutcome outcome = engine.run(
      {Objective{"default", &gpu_model(), parsed.limits_ms.front()}}, proxy);
  EXPECT_EQ(reply,
            "esm1 ok search " +
                search::format_front_payload(gpu_model().spec(),
                                             parsed.config, outcome));
  // And the verb is repeatable: seeded searches are pure functions.
  EXPECT_EQ(served_line(server, request), reply);
}

TEST(ServedSearchTest, FleetRoutedMultiModelSearch) {
  const std::string dir = testing::TempDir() + "/search_fleet";
  make_dirs(dir);
  serve::FleetManifest manifest;
  manifest.upsert(
      {"gpu", serve::file_crc32_hex(gpu_artifact()), gpu_artifact()});
  manifest.upsert(
      {"edge", serve::file_crc32_hex(edge_artifact()), edge_artifact()});
  const std::string manifest_path = dir + "/fleet.esmf";
  serve::write_manifest_atomic(manifest, manifest_path);

  PredictionServer server(serve_config(manifest_path));
  const std::string reply = served_line(
      server, "search population=16 generations=3 seed=7 models=gpu,edge");
  ASSERT_EQ(reply.rfind("esm1 ok search ", 0), 0u) << reply;
  EXPECT_NE(reply.find(" feasible=1"), std::string::npos) << reply;

  serve::MetricsSnapshot before = server.metrics();
  const std::string unknown =
      served_line(server, "search models=tpu population=4 generations=1");
  EXPECT_EQ(unknown.rfind("esm1 err unknown_model ", 0), 0u) << unknown;
  expect_one_error(before, server.metrics(), "unknown_model", "_unrouted");

  // Models of different spaces cannot share one search: rejected on the
  // primary model's section.
  manifest.upsert({"dense", serve::file_crc32_hex(dense_artifact()),
                   dense_artifact()});
  serve::write_manifest_atomic(manifest, manifest_path);
  PredictionServer mixed(serve_config(manifest_path));
  before = mixed.metrics();
  const std::string spaces = served_line(
      mixed, "search models=gpu,dense population=4 generations=1");
  EXPECT_EQ(spaces.rfind("esm1 err bad_request ", 0), 0u) << spaces;
  EXPECT_NE(spaces.find("share one space"), std::string::npos) << spaces;
  expect_one_error(before, mixed.metrics(), "bad_request", "gpu");
}

TEST(ServedSearchTest, RejectsBadRequestsAndOversizedBudgets) {
  ServeConfig config = serve_config(gpu_artifact());
  config.max_search_evals = 100;
  PredictionServer server(config);
  serve::MetricsSnapshot before = server.metrics();
  const std::string bad = served_line(server, "search frobnicate=1");
  EXPECT_EQ(bad.rfind("esm1 err bad_request ", 0), 0u) << bad;
  expect_one_error(before, server.metrics(), "bad_request", "_unrouted");
  // A negative seed is rejected, not wrapped to 2^64 - 1.
  before = server.metrics();
  const std::string negative = served_line(server, "search seed=-1");
  EXPECT_EQ(negative.rfind("esm1 err bad_request ", 0), 0u) << negative;
  expect_one_error(before, server.metrics(), "bad_request", "_unrouted");
  before = server.metrics();
  const std::string huge =
      served_line(server, "search population=100 generations=10");
  EXPECT_EQ(huge.rfind("esm1 err bad_request ", 0), 0u) << huge;
  EXPECT_NE(huge.find("budget"), std::string::npos) << huge;
  expect_one_error(before, server.metrics(), "bad_request", "default");
  // The engine's own config check (fastest mode needs a quality floor)
  // rejects at admission, on the routed model.
  before = server.metrics();
  const std::string floorless = served_line(
      server, "search mode=fastest min_quality=0 population=8 generations=1");
  EXPECT_EQ(floorless.rfind("esm1 err bad_request ", 0), 0u) << floorless;
  expect_one_error(before, server.metrics(), "bad_request", "default");
  // At the cap is admitted: population x (generations + 1) == 100.
  const std::string ok =
      served_line(server, "search population=20 generations=4 seed=1");
  EXPECT_EQ(ok.rfind("esm1 ok search ", 0), 0u) << ok;
}

TEST(ServedSearchTest, BothProtocolsReturnIdenticalPayloads) {
  Harness harness(serve_config(gpu_artifact()));
  const std::string request = "population=12 generations=3 seed=5";
  const std::string payload1 = harness.client(Protocol::esm1).search(request);
  const std::string payload2 = harness.client(Protocol::esm2).search(request);
  EXPECT_EQ(payload1, payload2);
  EXPECT_NE(payload1.find(" front="), std::string::npos);
}

TEST(ServedSearchTest, ShedsWhenSearchQueueIsFull) {
  ServeConfig config = serve_config(slow_artifact());
  config.max_search_queue = 1;
  Harness harness(config);

  // Pipeline two searches: the first is admitted (and keeps the worker
  // busy on the slow model), so the second finds the admitted-but-
  // unanswered total at the cap wherever the race lands and is shed with
  // the retryable `overloaded` code.
  EsmClient client = harness.client(Protocol::esm2);
  const serve::MetricsSnapshot before = harness.server.metrics();
  const std::uint64_t first =
      client.submit("search", "population=64 generations=6 seed=1");
  const std::uint64_t second =
      client.submit("search", "population=4 generations=1 seed=2");
  const EsmClient::Response shed = client.await(second);
  EXPECT_FALSE(shed.ok);
  EXPECT_EQ(shed.verb_or_code, "overloaded") << shed.raw;
  expect_one_error(before, harness.server.metrics(), "overloaded", "default");
  const EsmClient::Response served = client.await(first);
  EXPECT_TRUE(served.ok) << served.raw;
}

TEST(ServedSearchTest, ExpiredDeadlineAnswersDeadlineExceeded) {
  PredictionServer server(serve_config(slow_artifact()));
  // 1 ms against a search that needs hundreds: the deadline passes at
  // admission, at dequeue, or between generations — whichever fires, the
  // answer is deadline_exceeded and the search never completes.
  serve::MetricsSnapshot before = server.metrics();
  const std::string reply = served_line(
      server, "search deadline=1 population=512 generations=50 seed=1");
  EXPECT_EQ(reply.rfind("esm1 err deadline_exceeded ", 0), 0u) << reply;
  expect_one_error(before, server.metrics(), "deadline_exceeded", "default");
  // 100 ms is ample to be admitted and dequeued but far short of the
  // search, so the engine's cancel check ends it between generations.
  before = server.metrics();
  const std::string cancelled = served_line(
      server, "search deadline=100 population=512 generations=50 seed=1");
  EXPECT_EQ(cancelled, "esm1 err deadline_exceeded deadline passed before "
                       "the request was served");
  expect_one_error(before, server.metrics(), "deadline_exceeded", "default");
  EXPECT_EQ(server.metrics().searches, 0u);
}

// ----------------------------------------------------------------- metrics

TEST(ServedSearchTest, MetricsIdentityHoldsWithSearchesInTheMix) {
  PredictionServer server(serve_config(gpu_artifact()));
  EXPECT_EQ(
      served_line(server, "predict 3,5,2,7").rfind("esm1 ok predict ", 0), 0u);
  EXPECT_EQ(
      served_line(server, "predict 3,5,2,7").rfind("esm1 ok predict ", 0),
      0u);  // cache hit
  const std::string ok1 =
      served_line(server, "search population=8 generations=2 seed=1");
  const std::string ok2 =
      served_line(server, "search population=8 generations=3 seed=2");
  ASSERT_EQ(ok1.rfind("esm1 ok search ", 0), 0u);
  ASSERT_EQ(ok2.rfind("esm1 ok search ", 0), 0u);
  EXPECT_EQ(served_line(server, "search mode=warp")
                .rfind("esm1 err bad_request ", 0),
            0u);

  const serve::MetricsSnapshot m = server.metrics();
  EXPECT_EQ(m.requests, m.hits + m.misses + m.errors);
  EXPECT_EQ(m.requests, 5u);
  EXPECT_EQ(m.hits, 1u);
  EXPECT_EQ(m.misses, 3u);  // 1 computed predict + 2 answered searches
  EXPECT_EQ(m.errors, 1u);
  EXPECT_EQ(m.searches, 2u);
  // 8*(2+1) + 8*(3+1) architectures scored inside the engine.
  EXPECT_EQ(m.search_evals, 24u + 32u);
  // Search evaluations stay out of the arch counters: the pricing identity
  // is untouched.
  EXPECT_EQ(m.batched_archs, m.arch_misses);
  EXPECT_EQ(m.archs, 2u);

  const std::string stats = served_line(server, "stats");
  EXPECT_NE(stats.find(" searches=2"), std::string::npos) << stats;
  EXPECT_NE(stats.find(" search_evals=56"), std::string::npos) << stats;
}

}  // namespace
}  // namespace esm
