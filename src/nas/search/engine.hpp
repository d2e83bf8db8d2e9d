// Multi-objective surrogate-driven NAS search — the paper's payoff loop.
//
// A SearchEngine explores one supernet space against any number of latency
// objectives (one surrogate per target device, each optionally carrying a
// latency budget) plus the AccuracyProxy quality score. Two algorithms
// share the exact same evaluation path:
//
//   - evolutionary: NSGA-II-style generational search — constrained
//     non-dominated sort (Deb's rule: feasible beats infeasible, less
//     violation beats more, Pareto dominance among equals) plus crowding
//     distance, binary-tournament parent selection, unit-wise crossover
//     and per-unit mutation. Elitist (mu+lambda): parents and offspring
//     compete for the next generation.
//   - random_search: the same evaluation budget spent on i.i.d. samples —
//     the baseline the evolutionary engine must beat (search_test pins it).
//
// Determinism is a hard contract: every RNG draw happens on one generator,
// and scoring consumes no randomness — each generation makes one
// predict_all call per objective (bit-identical whatever the batch's
// composition) over the cohort's archs this search has not priced before,
// so a seeded search returns bit-identical results. A repeat arch (about one
// evaluation in six) copies its first pricing from a per-search memo keyed
// by the packed arch code (nets/arch.hpp); it still counts as an
// evaluation.
//
// The engine searches the wire-expressible subspace: every unit carries
// one (kernel, expansion) applied to all of its blocks, exactly the shape
// of the serving protocol's "depth[:k<K>[e<E>]]" grammar — so any reported
// architecture can be fed verbatim back to `predict`/`measure`, and the
// CLI and the served `search` verb return byte-identical fronts.
//
// Ground truth: verify_front() re-measures every candidate on hwsim's
// analytic device model and reports pareto_regret/index_jaccard between
// the surrogate-selected front and the true one (paper Fig. 2b).
#pragma once

#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "hwsim/device.hpp"
#include "nas/accuracy_proxy.hpp"
#include "nets/supernet.hpp"
#include "surrogate/predictor.hpp"

namespace esm::search {

/// One latency objective: a surrogate for a target device, optionally
/// constrained ("under 8 ms on rpi4"). The predictor is borrowed — the
/// caller keeps it alive across run().
struct Objective {
  std::string name;                             ///< label for reports
  const LatencyPredictor* predictor = nullptr;  ///< required
  double limit_ms = 0.0;                        ///< 0 = unconstrained
};

/// What the search optimizes for. All modes honor every constraint.
enum class Mode {
  pareto,   ///< the whole latency/quality front
  best,     ///< max quality subject to the latency limits
  fastest,  ///< min primary latency subject to limits and min_quality
};

enum class Algorithm { evolutionary, random_search };

/// "pareto" / "best" / "fastest"; throws esm::ConfigError on anything else.
Mode parse_mode(const std::string& text);
const char* mode_name(Mode mode);

/// "evolutionary" / "random"; throws esm::ConfigError on anything else.
Algorithm parse_algorithm(const std::string& text);
const char* algorithm_name(Algorithm algorithm);

struct EngineConfig {
  Mode mode = Mode::best;
  Algorithm algorithm = Algorithm::evolutionary;
  std::size_t population = 64;
  int generations = 25;
  double mutate_block_prob = 0.15;  ///< per-unit feature re-draw rate
  double mutate_depth_prob = 0.30;  ///< per-unit depth +-1 rate
  /// Quality floor: candidates below it count as constraint-violating.
  /// Required > 0 for Mode::fastest (otherwise the trivial minimum wins).
  double min_quality = 0.0;
  /// Stretch (generative-NAS direction): probability that an offspring is
  /// a mutation of a current rank-0 front member instead of a crossover of
  /// tournament winners — warm-starts sampling toward the learned front.
  double front_bias = 0.0;
  std::uint64_t seed = 1;
};

/// One evaluated candidate: predicted latency per objective plus quality.
struct ScoredArch {
  ArchConfig arch;
  std::vector<double> latency_ms;  ///< one entry per objective, same order
  double quality = 0.0;            ///< AccuracyProxy top-5 accuracy
  double violation = 0.0;          ///< summed constraint excess; 0 = feasible
};

struct SearchOutcome {
  /// Everything the algorithm would hand back: the final population
  /// (evolutionary — elitism keeps the best front encountered) or every
  /// sample drawn (random_search).
  std::vector<ScoredArch> candidates;
  /// Indices into `candidates`: the feasible Pareto front over (primary
  /// latency, quality), ascending latency. Empty when nothing is feasible.
  std::vector<std::size_t> front;
  /// Index into `candidates` of the mode's winner; when nothing is
  /// feasible, the least-violating candidate.
  std::size_t best = 0;
  bool found_feasible = false;
  /// Candidates scored, a repeat arch each time it is drawn.
  std::size_t evaluations = 0;
};

/// Thrown out of run() when the cancel callback fired; the server maps it
/// to deadline_exceeded.
struct SearchCancelled : std::runtime_error {
  SearchCancelled() : std::runtime_error("search cancelled by deadline") {}
};

/// Polled between generations; return true to abort the search.
using CancelCheck = std::function<bool()>;

class SearchEngine {
 public:
  /// Validates the configuration; throws esm::ConfigError when out of
  /// range (population < 2, generations < 1, probabilities outside [0,1],
  /// fastest mode without a quality floor) or when the space is too large
  /// for a 64-bit arch code.
  SearchEngine(SupernetSpec spec, EngineConfig config);

  /// Runs the configured search. `objectives` must be non-empty with every
  /// predictor set and every surrogate trained on this spec; the first
  /// objective is the primary one (fastest mode, front ordering). `cancel`
  /// (optional) is polled between generations.
  SearchOutcome run(const std::vector<Objective>& objectives,
                    const AccuracyProxy& proxy,
                    const CancelCheck& cancel = {}) const;

  /// One uniform sample of the per-unit-uniform subspace.
  ArchConfig sample(Rng& rng) const;

  /// Per-unit depth +-1 and feature re-draw, in place.
  void mutate(ArchConfig& arch, Rng& rng) const;

  /// Unit-wise uniform crossover.
  ArchConfig crossover(const ArchConfig& a, const ArchConfig& b,
                       Rng& rng) const;

  const SupernetSpec& spec() const { return spec_; }
  const EngineConfig& config() const { return config_; }

 private:
  SupernetSpec spec_;
  EngineConfig config_;
};

namespace detail {

// Internal to SearchEngine::run; declared here so tests can pin them.

/// Constrained non-dominated sort (Deb's rule) of `pop`: rank 0 is the
/// non-dominated set. Matches the all-pairs reference sort, NaN scores
/// included.
std::vector<std::size_t> non_dominated_ranks(
    const std::vector<ScoredArch>& pop);

/// NSGA-II crowding distance per candidate, computed within each rank.
/// Boundary points get +inf; interior points accumulate normalized gaps
/// over every objective dimension (latencies and quality). A NaN score
/// gets +inf in its dimension, and the range and gaps span the other
/// members only. Ties sort by index and accumulation order is fixed, so
/// distances are bit-stable.
std::vector<double> crowding_distances(const std::vector<ScoredArch>& pop,
                                       const std::vector<std::size_t>& ranks);

/// Selection order: lower rank first, then larger crowding distance (NaN
/// after every number), then lower index — a strict total order, so every
/// sort and tournament is well defined and stable.
bool selection_before(std::size_t a, std::size_t b,
                      const std::vector<std::size_t>& ranks,
                      const std::vector<double>& crowding);

}  // namespace detail

/// Ground-truth audit of a search outcome on hwsim (paper Fig. 2b): true
/// latency of every candidate on `device`, the true feasible front, and
/// how far the surrogate-selected front falls short of it.
struct FrontCheck {
  std::vector<double> true_ms;  ///< per candidate, analytic device model
  /// True-feasible Pareto front (true latency within `limit_ms`, quality
  /// within `min_quality`), indices into the outcome's candidates.
  std::vector<std::size_t> true_front;
  double regret = 0.0;   ///< pareto_regret(truth, selected)
  double jaccard = 1.0;  ///< index_jaccard(truth, selected)
};

/// Re-measures every candidate with hwsim's LatencyModel on `device` and
/// scores the outcome's front against the true one. `limit_ms`/
/// `min_quality` restrict the truth to the same constraints the search ran
/// under (0 = unconstrained).
FrontCheck verify_front(const SupernetSpec& spec, const SearchOutcome& outcome,
                        const DeviceSpec& device, double limit_ms = 0.0,
                        double min_quality = 0.0);

}  // namespace esm::search
