#include "nas/search/engine.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <unordered_map>
#include <utility>

#include "common/error.hpp"
#include "hwsim/latency_model.hpp"
#include "nas/pareto.hpp"
#include "nets/builder.hpp"
#include "nets/sampler.hpp"

namespace esm::search {
namespace detail {
namespace {

/// True iff row x Pareto-dominates row y: no worse anywhere and better
/// somewhere. Comparisons with NaN are false both ways, so a NaN coordinate
/// neither helps nor hurts.
bool row_dominates(const double* x, const double* y, std::size_t dims) {
  bool better = false;
  for (std::size_t k = 0; k < dims; ++k) {
    if (x[k] > y[k]) return false;
    better |= x[k] < y[k];
  }
  return better;
}

/// Front of each row of `table` (rows of `dims` minimized coordinates) by
/// peeling the all-pairs dominance relation: front f is what remains
/// undominated once fronts < f are removed. Returns the number of fronts,
/// or nullopt when a dominance cycle (only NaN can make one) leaves rows
/// unranked; those stay at front 0.
std::optional<std::size_t> peel_fronts(const std::vector<double>& table,
                                       std::size_t dims,
                                       std::vector<std::size_t>& front_of) {
  const std::size_t m = front_of.size();
  // dominates[a * m + b] != 0 iff row a dominates row b.
  std::vector<std::uint8_t> dominates(m * m, 0);
  std::vector<std::size_t> dominated_by(m, 0);
  for (std::size_t a = 0; a < m; ++a) {
    for (std::size_t b = a + 1; b < m; ++b) {
      const bool a_wins =
          row_dominates(&table[a * dims], &table[b * dims], dims);
      const bool b_wins =
          row_dominates(&table[b * dims], &table[a * dims], dims);
      dominates[a * m + b] = a_wins;
      dominates[b * m + a] = b_wins;
      dominated_by[b] += a_wins;
      dominated_by[a] += b_wins;
    }
  }
  // Ranks depend only on the relation, not on visit order.
  std::vector<std::size_t> current;
  std::vector<std::size_t> next;
  for (std::size_t a = 0; a < m; ++a) {
    if (dominated_by[a] == 0) current.push_back(a);
  }
  std::size_t fronts = 0;
  std::size_t ranked = 0;
  while (!current.empty()) {
    next.clear();
    for (std::size_t a : current) {
      front_of[a] = fronts;
      ++ranked;
      const std::uint8_t* row = &dominates[a * m];
      for (std::size_t b = 0; b < m; ++b) {
        if (row[b] != 0 && --dominated_by[b] == 0) next.push_back(b);
      }
    }
    current.swap(next);
    ++fronts;
  }
  if (ranked < m) return std::nullopt;
  return fronts;
}

/// The same fronts by efficient non-dominated sort (ENS-SS; Zhang, Tian,
/// Cheng and Jin, IEEE TEVC 19(2), 2015) for a NaN-free table. After a
/// lexicographic presort every dominator of a row precedes it, so each row
/// in turn joins the first front holding no member that dominates it.
/// Returns the number of fronts.
std::size_t sorted_fronts(const std::vector<double>& table, std::size_t dims,
                          std::vector<std::size_t>& front_of) {
  const std::size_t m = front_of.size();
  std::vector<std::size_t> order(m);
  for (std::size_t i = 0; i < m; ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const double* x = &table[a * dims];
    const double* y = &table[b * dims];
    for (std::size_t k = 0; k < dims; ++k) {
      if (x[k] != y[k]) return x[k] < y[k];
    }
    return a < b;
  });
  std::vector<std::vector<std::size_t>> fronts;
  for (std::size_t row : order) {
    const double* y = &table[row * dims];
    std::size_t f = 0;
    // The latest members are the likeliest dominators, so scan backwards.
    while (f < fronts.size() &&
           std::any_of(fronts[f].rbegin(), fronts[f].rend(),
                       [&](std::size_t a) {
                         return row_dominates(&table[a * dims], y, dims);
                       })) {
      ++f;
    }
    if (f == fronts.size()) fronts.emplace_back();
    fronts[f].push_back(row);
    front_of[row] = f;
  }
  return fronts.size();
}

}  // namespace

std::vector<std::size_t> non_dominated_ranks(
    const std::vector<ScoredArch>& pop) {
  // Deb's rule splits the population: a feasible candidate dominates every
  // infeasible one, and among infeasible ones strictly less violation
  // dominates. So the feasible candidates take their Pareto ranks among
  // themselves, and an infeasible one ranks after every feasible front, at
  // #fronts + the dense rank of its violation.
  const std::size_t n = pop.size();
  std::vector<std::size_t> ranks(n, 0);
  std::vector<std::size_t> feasible;
  std::vector<std::size_t> infeasible;
  for (std::size_t i = 0; i < n; ++i) {
    (pop[i].violation == 0.0 ? feasible : infeasible).push_back(i);
  }

  // One row per feasible candidate, every objective minimized: latencies,
  // then negated quality.
  const std::size_t m = feasible.size();
  const std::size_t dims = n == 0 ? 0 : pop.front().latency_ms.size() + 1;
  std::vector<double> table;
  table.reserve(m * dims);
  for (std::size_t i : feasible) {
    table.insert(table.end(), pop[i].latency_ms.begin(),
                 pop[i].latency_ms.end());
    table.push_back(-pop[i].quality);
  }
  // A NaN coordinate makes the relation non-transitive, so no presort
  // exists; such a table keeps the all-pairs peel.
  std::vector<std::size_t> front_of(m, 0);
  std::optional<std::size_t> fronts;
  if (std::any_of(table.begin(), table.end(),
                  [](double v) { return std::isnan(v); })) {
    fronts = peel_fronts(table, dims, front_of);
  } else {
    fronts = sorted_fronts(table, dims, front_of);
  }
  for (std::size_t a = 0; a < m; ++a) ranks[feasible[a]] = front_of[a];
  // A dominance cycle leaves its members unranked at 0; they still
  // dominate every infeasible candidate, which then never surfaces either
  // and stays at 0 too.
  if (!fronts) return ranks;

  // A NaN violation is incomparable with every other violation: dense
  // rank 0.
  std::vector<double> levels;
  for (std::size_t i : infeasible) {
    if (!std::isnan(pop[i].violation)) levels.push_back(pop[i].violation);
  }
  std::sort(levels.begin(), levels.end());
  levels.erase(std::unique(levels.begin(), levels.end()), levels.end());
  for (std::size_t i : infeasible) {
    const double v = pop[i].violation;
    ranks[i] = *fronts;
    if (!std::isnan(v)) {
      ranks[i] += static_cast<std::size_t>(
          std::lower_bound(levels.begin(), levels.end(), v) - levels.begin());
    }
  }
  return ranks;
}

std::vector<double> crowding_distances(const std::vector<ScoredArch>& pop,
                                       const std::vector<std::size_t>& ranks) {
  const std::size_t n = pop.size();
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<double> distance(n, 0.0);
  if (n == 0) return distance;
  const std::size_t max_rank =
      *std::max_element(ranks.begin(), ranks.end());
  const std::size_t dims = pop.front().latency_ms.size() + 1;
  for (std::size_t r = 0; r <= max_rank; ++r) {
    std::vector<std::size_t> front;
    for (std::size_t i = 0; i < n; ++i) {
      if (ranks[i] == r) front.push_back(i);
    }
    if (front.size() <= 2) {
      for (std::size_t i : front) distance[i] = inf;
      continue;
    }
    for (std::size_t d = 0; d < dims; ++d) {
      auto key = [&](std::size_t i) {
        return d < pop[i].latency_ms.size() ? pop[i].latency_ms[d]
                                            : pop[i].quality;
      };
      // Numbers ascending, then NaN; ties by index.
      std::vector<std::size_t> order = front;
      std::sort(order.begin(), order.end(),
                [&](std::size_t a, std::size_t b) {
                  const double ka = key(a);
                  const double kb = key(b);
                  if (std::isnan(ka) || std::isnan(kb)) {
                    if (std::isnan(ka) != std::isnan(kb)) return std::isnan(kb);
                    return a < b;
                  }
                  if (ka != kb) return ka < kb;
                  return a < b;
                });
      std::size_t numbered = order.size();
      while (numbered > 0 && std::isnan(key(order[numbered - 1]))) {
        distance[order[--numbered]] = inf;
      }
      if (numbered == 0) continue;
      const double range = key(order[numbered - 1]) - key(order.front());
      distance[order.front()] = inf;
      distance[order[numbered - 1]] = inf;
      if (!(range > 0.0)) continue;
      for (std::size_t k = 1; k + 1 < numbered; ++k) {
        distance[order[k]] += (key(order[k + 1]) - key(order[k - 1])) / range;
      }
    }
  }
  return distance;
}

bool selection_before(std::size_t a, std::size_t b,
                      const std::vector<std::size_t>& ranks,
                      const std::vector<double>& crowding) {
  if (ranks[a] != ranks[b]) return ranks[a] < ranks[b];
  const double ca = crowding[a];
  const double cb = crowding[b];
  if (std::isnan(ca) != std::isnan(cb)) return std::isnan(cb);
  if (ca != cb && !std::isnan(ca)) return ca > cb;
  return a < b;
}

}  // namespace detail

Mode parse_mode(const std::string& text) {
  if (text == "pareto") return Mode::pareto;
  if (text == "best") return Mode::best;
  if (text == "fastest") return Mode::fastest;
  throw ConfigError("unknown search mode '" + text +
                    "' (pareto, best, fastest)");
}

const char* mode_name(Mode mode) {
  switch (mode) {
    case Mode::pareto: return "pareto";
    case Mode::best: return "best";
    case Mode::fastest: return "fastest";
  }
  return "";
}

Algorithm parse_algorithm(const std::string& text) {
  if (text == "evolutionary") return Algorithm::evolutionary;
  if (text == "random") return Algorithm::random_search;
  throw ConfigError("unknown search algorithm '" + text +
                    "' (evolutionary, random)");
}

const char* algorithm_name(Algorithm algorithm) {
  switch (algorithm) {
    case Algorithm::evolutionary: return "evolutionary";
    case Algorithm::random_search: return "random";
  }
  return "";
}

SearchEngine::SearchEngine(SupernetSpec spec, EngineConfig config)
    : spec_(std::move(spec)), config_(config) {
  ESM_REQUIRE(config_.population >= 2, "population must be >= 2");
  ESM_REQUIRE(config_.generations >= 1, "generations must be >= 1");
  ESM_REQUIRE(
      config_.mutate_block_prob >= 0.0 && config_.mutate_block_prob <= 1.0,
      "mutate_block_prob must be in [0, 1]");
  ESM_REQUIRE(
      config_.mutate_depth_prob >= 0.0 && config_.mutate_depth_prob <= 1.0,
      "mutate_depth_prob must be in [0, 1]");
  ESM_REQUIRE(config_.front_bias >= 0.0 && config_.front_bias <= 1.0,
              "bias must be in [0, 1]");
  ESM_REQUIRE(config_.min_quality >= 0.0 && config_.min_quality <= 1.0,
              "min_quality must be in [0, 1]");
  ESM_REQUIRE(config_.mode != Mode::fastest || config_.min_quality > 0.0,
              "fastest mode needs min_quality > 0 (otherwise the trivial "
              "minimum wins)");
  ESM_REQUIRE(uniform_arch_code_fits(spec_),
              "space " << spec_.name << " has more architectures than a "
                       << "64-bit arch code can name");
}

ArchConfig SearchEngine::sample(Rng& rng) const {
  ArchConfig arch;
  arch.kind = spec_.kind;
  arch.units.reserve(static_cast<std::size_t>(spec_.num_units));
  for (int u = 0; u < spec_.num_units; ++u) {
    const int depth =
        rng.uniform_int(spec_.min_blocks_per_unit, spec_.max_blocks_per_unit);
    UnitConfig unit;
    unit.blocks.assign(static_cast<std::size_t>(depth),
                       random_block(spec_, rng));
    arch.units.push_back(std::move(unit));
  }
  return arch;
}

void SearchEngine::mutate(ArchConfig& arch, Rng& rng) const {
  for (UnitConfig& unit : arch.units) {
    if (rng.bernoulli(config_.mutate_depth_prob)) {
      const bool grow = rng.bernoulli(0.5);
      if (grow && unit.depth() < spec_.max_blocks_per_unit) {
        // Units are feature-uniform, so the clone keeps them so.
        unit.blocks.push_back(unit.blocks.front());
      } else if (!grow && unit.depth() > spec_.min_blocks_per_unit) {
        unit.blocks.pop_back();
      }
    }
    if (rng.bernoulli(config_.mutate_block_prob)) {
      const BlockConfig block = random_block(spec_, rng);
      for (BlockConfig& b : unit.blocks) b = block;
    }
  }
}

ArchConfig SearchEngine::crossover(const ArchConfig& a, const ArchConfig& b,
                                   Rng& rng) const {
  ESM_CHECK(a.units.size() == b.units.size(), "crossover parent mismatch");
  ArchConfig child;
  child.kind = a.kind;
  child.units.reserve(a.units.size());
  for (std::size_t u = 0; u < a.units.size(); ++u) {
    child.units.push_back(rng.bernoulli(0.5) ? a.units[u] : b.units[u]);
  }
  return child;
}

SearchOutcome SearchEngine::run(const std::vector<Objective>& objectives,
                                const AccuracyProxy& proxy,
                                const CancelCheck& cancel) const {
  ESM_REQUIRE(!objectives.empty(), "search needs at least one objective");
  for (const Objective& objective : objectives) {
    ESM_REQUIRE(objective.predictor != nullptr,
                "objective '" << objective.name << "' has no predictor");
    ESM_REQUIRE(objective.limit_ms >= 0.0,
                "objective '" << objective.name
                              << "' has a negative latency limit");
  }

  SearchOutcome outcome;
  const std::size_t budget =
      config_.population * (static_cast<std::size_t>(config_.generations) + 1);

  // Per-search memo of everything priced so far, keyed by the packed arch
  // code: slot s holds the objectives' latencies, then the quality, at
  // priced[s * width]. Both are pure functions of the arch, and
  // predict_all's values do not depend on the batch around an arch, so a
  // repeat copies what its first pricing returned.
  const std::size_t width = objectives.size() + 1;
  std::unordered_map<std::uint64_t, std::size_t> slot_of;
  slot_of.reserve(budget);
  std::vector<double> priced;
  priced.reserve(budget * width);
  std::vector<std::size_t> slots;
  std::vector<std::size_t> fresh;
  std::vector<ArchConfig> archs;

  // Scores pop[first..): one predict_all batch per objective over the archs
  // this search has not priced yet, so the surrogate's batched fast path
  // does all the work and no randomness is consumed (the RNG draw order
  // stays plan-only).
  auto score_tail = [&](std::vector<ScoredArch>& pop, std::size_t first) {
    slots.clear();
    fresh.clear();
    for (std::size_t i = first; i < pop.size(); ++i) {
      const auto [it, inserted] = slot_of.try_emplace(
          uniform_arch_code(spec_, pop[i].arch), slot_of.size());
      if (inserted) fresh.push_back(i);
      slots.push_back(it->second);
    }
    if (!fresh.empty()) {
      // Fresh archs hold the newest slots, in order. The batch borrows
      // their ArchConfigs and hands them back.
      const std::size_t base = slot_of.size() - fresh.size();
      priced.resize(slot_of.size() * width);
      archs.clear();
      for (std::size_t i : fresh) archs.push_back(std::move(pop[i].arch));
      for (std::size_t k = 0; k < objectives.size(); ++k) {
        const std::vector<double> latencies =
            objectives[k].predictor->predict_all(archs);
        for (std::size_t j = 0; j < fresh.size(); ++j) {
          priced[(base + j) * width + k] = latencies[j];
        }
      }
      for (std::size_t j = 0; j < fresh.size(); ++j) {
        pop[fresh[j]].arch = std::move(archs[j]);
        priced[(base + j) * width + objectives.size()] =
            proxy.top5_accuracy(pop[fresh[j]].arch);
      }
    }
    for (std::size_t i = first; i < pop.size(); ++i) {
      ScoredArch& c = pop[i];
      const double* values = &priced[slots[i - first] * width];
      c.latency_ms.assign(values, values + objectives.size());
      c.quality = values[objectives.size()];
      c.violation = 0.0;
      for (std::size_t k = 0; k < objectives.size(); ++k) {
        if (objectives[k].limit_ms > 0.0 &&
            c.latency_ms[k] > objectives[k].limit_ms) {
          // Normalized by the limit so violations on an 8 ms edge budget
          // and an 80 ms server budget weigh comparably.
          c.violation += (c.latency_ms[k] - objectives[k].limit_ms) /
                         objectives[k].limit_ms;
        }
      }
      if (config_.min_quality > 0.0 && c.quality < config_.min_quality) {
        c.violation += config_.min_quality - c.quality;
      }
    }
    outcome.evaluations += pop.size() - first;
  };

  auto check_cancel = [&] {
    if (cancel && cancel()) throw SearchCancelled();
  };

  Rng rng(config_.seed);
  std::vector<ScoredArch> population;

  if (config_.algorithm == Algorithm::random_search) {
    // Same evaluation budget as the evolutionary run: the initial
    // population plus one cohort per generation.
    check_cancel();
    population.reserve(budget);
    for (std::size_t i = 0; i < budget; ++i) {
      ScoredArch c;
      c.arch = sample(rng);
      population.push_back(std::move(c));
    }
    score_tail(population, 0);
  } else {
    population.reserve(config_.population * 2);
    for (std::size_t i = 0; i < config_.population; ++i) {
      ScoredArch c;
      c.arch = sample(rng);
      population.push_back(std::move(c));
    }
    score_tail(population, 0);

    for (int gen = 0; gen < config_.generations; ++gen) {
      check_cancel();
      const std::vector<std::size_t> ranks =
          detail::non_dominated_ranks(population);
      const std::vector<double> crowding =
          detail::crowding_distances(population, ranks);
      std::vector<std::size_t> rank0;
      for (std::size_t i = 0; i < population.size(); ++i) {
        if (ranks[i] == 0) rank0.push_back(i);
      }
      // Whole offspring cohort planned first (all draws serial), scored as
      // one batch after. Tournaments draw from [0, parents_end) only —
      // ranks/crowding cover the parents, and the cohort grows the vector
      // past them while this loop runs.
      const std::size_t parents_end = population.size();
      auto tournament = [&] {
        const std::size_t a = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<int>(parents_end) - 1));
        const std::size_t b = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<int>(parents_end) - 1));
        return detail::selection_before(a, b, ranks, crowding) ? a : b;
      };
      for (std::size_t i = 0; i < config_.population; ++i) {
        ScoredArch child;
        if (config_.front_bias > 0.0 && rng.bernoulli(config_.front_bias)) {
          // Warm-start toward the learned front: mutate a rank-0 member.
          const std::size_t pick = static_cast<std::size_t>(rng.uniform_int(
              0, static_cast<int>(rank0.size()) - 1));
          child.arch = population[rank0[pick]].arch;
        } else {
          child.arch = crossover(population[tournament()].arch,
                                 population[tournament()].arch, rng);
        }
        mutate(child.arch, rng);
        population.push_back(std::move(child));
      }
      score_tail(population, parents_end);

      // Elitist environmental selection over parents + offspring.
      const std::vector<std::size_t> all_ranks =
          detail::non_dominated_ranks(population);
      const std::vector<double> all_crowding =
          detail::crowding_distances(population, all_ranks);
      std::vector<std::size_t> order(population.size());
      for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
      std::sort(order.begin(), order.end(),
                [&](std::size_t a, std::size_t b) {
                  return detail::selection_before(a, b, all_ranks,
                                                  all_crowding);
                });
      std::vector<ScoredArch> next;
      next.reserve(config_.population * 2);
      for (std::size_t i = 0; i < config_.population; ++i) {
        next.push_back(std::move(population[order[i]]));
      }
      population = std::move(next);
    }
  }

  // Shared epilogue: feasible 2-D front (primary latency x quality) and
  // the mode's winner.
  outcome.candidates = std::move(population);
  std::vector<std::size_t> feasible;
  for (std::size_t i = 0; i < outcome.candidates.size(); ++i) {
    if (outcome.candidates[i].violation == 0.0) feasible.push_back(i);
  }
  outcome.found_feasible = !feasible.empty();
  if (outcome.found_feasible) {
    std::vector<double> cost;
    std::vector<double> value;
    cost.reserve(feasible.size());
    value.reserve(feasible.size());
    for (std::size_t i : feasible) {
      cost.push_back(outcome.candidates[i].latency_ms.front());
      value.push_back(outcome.candidates[i].quality);
    }
    for (std::size_t local : pareto_front(cost, value)) {
      outcome.front.push_back(feasible[local]);
    }
    // Winner: fastest = the front's cheapest point; best/pareto = its
    // highest-quality point. Ties resolve to the lower candidate index via
    // the front's deterministic order.
    outcome.best = outcome.front.front();
    if (config_.mode != Mode::fastest) {
      double best_quality = -1.0;
      for (std::size_t i : outcome.front) {
        if (outcome.candidates[i].quality > best_quality) {
          best_quality = outcome.candidates[i].quality;
          outcome.best = i;
        }
      }
    }
  } else if (!outcome.candidates.empty()) {
    // Nothing feasible: report the least-violating candidate so callers
    // can show how close the search got.
    std::size_t best = 0;
    for (std::size_t i = 1; i < outcome.candidates.size(); ++i) {
      if (outcome.candidates[i].violation <
          outcome.candidates[best].violation) {
        best = i;
      }
    }
    outcome.best = best;
  }
  return outcome;
}

FrontCheck verify_front(const SupernetSpec& spec, const SearchOutcome& outcome,
                        const DeviceSpec& device, double limit_ms,
                        double min_quality) {
  FrontCheck check;
  const LatencyModel model(device);
  check.true_ms.reserve(outcome.candidates.size());
  for (const ScoredArch& c : outcome.candidates) {
    check.true_ms.push_back(model.true_latency_ms(build_graph(spec, c.arch)));
  }
  // The truth front lives under the same constraints the search ran with,
  // but judged by true latency: surrogate error moves candidates across
  // the budget line in both directions, and that displacement is exactly
  // what regret/jaccard quantify (paper Fig. 2b).
  std::vector<std::size_t> domain;
  std::vector<double> cost;
  std::vector<double> value;
  for (std::size_t i = 0; i < outcome.candidates.size(); ++i) {
    if (limit_ms > 0.0 && check.true_ms[i] > limit_ms) continue;
    if (min_quality > 0.0 && outcome.candidates[i].quality < min_quality) {
      continue;
    }
    domain.push_back(i);
    cost.push_back(check.true_ms[i]);
    value.push_back(outcome.candidates[i].quality);
  }
  for (std::size_t local : pareto_front(cost, value)) {
    check.true_front.push_back(domain[local]);
  }
  std::vector<double> quality;
  quality.reserve(outcome.candidates.size());
  for (const ScoredArch& c : outcome.candidates) {
    quality.push_back(c.quality);
  }
  check.regret = pareto_regret(check.true_ms, quality, check.true_front,
                               outcome.front);
  check.jaccard = index_jaccard(check.true_front, outcome.front);
  return check;
}

}  // namespace esm::search
