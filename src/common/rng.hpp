// Deterministic, seedable random number generation.
//
// Every stochastic component of the library (samplers, the hardware
// measurement model, weight initialization, minibatch shuffling) draws from
// an esm::Rng that is explicitly passed in, so whole experiments replay
// bit-identically from a single seed. The generator is xoshiro256**
// (Blackman & Vigna), seeded through splitmix64.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

namespace esm {

/// xoshiro256** pseudo-random generator with convenience distributions.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Constructs a generator from a 64-bit seed (expanded via splitmix64).
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull);

  /// Next raw 64-bit value. Satisfies UniformRandomBitGenerator.
  std::uint64_t operator()();

  static constexpr std::uint64_t min() { return 0; }
  static constexpr std::uint64_t max() { return ~0ull; }

  /// Uniform integer in [lo, hi] (inclusive). Requires lo <= hi.
  int uniform_int(int lo, int hi);

  /// Uniform 64-bit integer in [0, n). Requires n > 0. Unbiased (rejection).
  std::uint64_t uniform_u64(std::uint64_t n);

  /// Uniform double in [0, 1).
  double uniform();

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Standard normal deviate (Box–Muller, cached spare).
  double normal();

  /// Normal deviate with the given mean and standard deviation.
  double normal(double mean, double stddev);

  /// Bernoulli trial with probability p of returning true.
  bool bernoulli(double p);

  /// Samples an index in [0, weights.size()) proportionally to weights.
  /// Requires at least one strictly positive weight.
  std::size_t weighted_index(const std::vector<double>& weights);

  /// Fisher–Yates shuffle of a container.
  template <typename Container>
  void shuffle(Container& c) {
    if (c.size() < 2) return;
    for (std::size_t i = c.size() - 1; i > 0; --i) {
      const std::size_t j = static_cast<std::size_t>(uniform_u64(i + 1));
      using std::swap;
      swap(c[i], c[j]);
    }
  }

  /// Derives an independent child generator; the i-th child of a given
  /// parent state is stable across runs.
  Rng split();

  /// Derives the `stream_id`-th substream of the current state WITHOUT
  /// advancing the parent (splitmix64 rekeying). Substreams with distinct
  /// ids are decorrelated, and because the parent is untouched, any set of
  /// substreams can be drawn in any order: each measurement of a session
  /// draws its noise from the substream of its slot (esm/dataset_gen.hpp),
  /// so its bytes depend on the slot, not on what ran before it.
  Rng split(std::uint64_t stream_id) const;

 private:
  std::array<std::uint64_t, 4> state_;
  double spare_normal_ = 0.0;
  bool has_spare_normal_ = false;
};

}  // namespace esm
