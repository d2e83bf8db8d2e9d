// Small helpers shared by the benchmark harness: clocks, order statistics,
// the seeded request streams, and the metric record printed as JSON.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "nets/arch.hpp"
#include "nets/supernet.hpp"

namespace perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double now_s() { return static_cast<double>(now_ns()) * 1e-9; }

/// CPU seconds this process has used (all threads).
double process_cpu_s();

/// Nearest-rank percentile: the smallest sample with at least p% of the
/// samples at or below it (p in [0, 100]). The same rank rule the
/// server's own latency histogram uses, so both views are comparable.
/// Returns 0 for an empty sample.
double percentile(std::vector<double> values, double p);

/// Middle value; the mean of the two middle values for an even count.
double median(std::vector<double> values);

/// `values[i]` extrapolated to zero host CPU steal: the intercept of a
/// Theil-Sen line (median of the pairwise slopes, then the median of
/// value - slope * steal) through the points (steal[i], values[i]). With
/// no two distinct steal readings the slope is 0 and the result is the
/// median.
double at_zero_steal(const std::vector<double>& values,
                     const std::vector<double>& steal);

/// Runs `op(i)` for i = 0, 1, ... in rounds of `batch` calls, and returns
/// the median over `repeats` rounds of the nanoseconds per call. Rounds
/// run until each lasts at least `min_round_s`, so fast calls are not
/// dominated by clock overhead.
double time_ns_per_op(const std::function<void(std::size_t)>& op,
                      std::size_t batch = 256, int repeats = 5,
                      double min_round_s = 0.01);

/// SplitMix64 finalizer: derives independent sub-seeds from one seed.
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream);

/// The per-unit-uniform wire space of a supernet: every unit picks one
/// (depth, kernel, expansion), so a resnet space has 63^4 members. A
/// seeded affine permutation of [0, size) draws members without repeats.
class WireSpace {
 public:
  WireSpace(esm::SupernetSpec spec, std::uint64_t seed);

  std::uint64_t size() const { return size_; }

  /// The i-th member of the seeded permutation (i < size()).
  esm::ArchConfig at(std::uint64_t i) const;

  /// at(i) rendered in the serving request grammar ("3:k5e0.667,...").
  std::string wire(std::uint64_t i) const;

  const esm::SupernetSpec& spec() const { return spec_; }

 private:
  esm::SupernetSpec spec_;
  std::uint64_t per_unit_ = 0;
  std::uint64_t size_ = 0;
  std::uint64_t mul_ = 1;
  std::uint64_t add_ = 0;
};

/// Named numeric results in insertion order; printed as the JSON object
/// the runner turns into the benchmark's metric record.
class Record {
 public:
  void set(const std::string& name, double value);
  double get(const std::string& name) const;

  /// One failed correctness check or operation; `what` goes to stderr.
  void fail(const std::string& what);
  void attempt(std::uint64_t n = 1) { attempted_ += n; }

  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }

  /// {"attempted": n, "failed": n, "values": {...}}
  std::string to_json() const;

 private:
  std::vector<std::pair<std::string, double>> values_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

}  // namespace perfbench
