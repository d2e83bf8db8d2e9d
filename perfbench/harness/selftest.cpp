// Checks of the harness's own arithmetic: the percentile rank rule, the
// median, the zero-steal extrapolation, span self time, and the seeded
// wire permutation. Exit status 0 when every check holds.
#include <cmath>
#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "trace.hpp"
#include "util.hpp"

namespace {

int g_failures = 0;

void expect(bool ok, const std::string& what) {
  if (!ok) {
    ++g_failures;
    std::fprintf(stderr, "selftest FAILED: %s\n", what.c_str());
  }
}

void percentiles() {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);  // 1..100, unsorted
  expect(perfbench::percentile(v, 50) == 50, "p50 of 1..100 is 50");
  expect(perfbench::percentile(v, 99) == 99, "p99 of 1..100 is 99");
  expect(perfbench::percentile(v, 100) == 100, "p100 is the max");
  expect(perfbench::percentile(v, 0) == 1, "p0 is the min");
  expect(perfbench::percentile({7}, 99) == 7, "one sample is every percentile");
  expect(perfbench::percentile({}, 50) == 0, "empty sample gives 0");
  // Nearest rank: p99 of 10 samples is the 10th (ceil(9.9)).
  expect(perfbench::percentile({1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 99) == 10,
         "p99 of ten samples is the max");
  expect(perfbench::percentile({1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 50) == 5,
         "p50 of ten samples is the 5th");
  expect(perfbench::median({3, 1, 2}) == 2, "odd median");
  expect(perfbench::median({4, 1, 3, 2}) == 2.5, "even median");
}

void zero_steal() {
  using perfbench::at_zero_steal;
  expect(at_zero_steal({100, 90, 80, 60}, {0.0, 0.05, 0.1, 0.2}) == 100,
         "points on a line give its intercept");
  expect(at_zero_steal({3, 1, 2}, {0.01, 0.01, 0.01}) == 2,
         "one steal reading gives the median");
  // On the line 50 - 100 * steal, with one point far off it; the value at
  // zero steal lies above every observed one.
  expect(std::abs(at_zero_steal({49, 48, 47, 46, 5},
                                {0.01, 0.02, 0.03, 0.04, 0.05}) -
                  50) < 1e-9,
         "one outlier does not move the line");
  expect(at_zero_steal({}, {}) == 0, "no values give 0");
}

void self_times() {
  using perfbench::Span;
  // Parent [0,100] with children [10,30] and [20,40] (overlapping: cover
  // [10,40]) and [90,120] (clipped to [90,100]): self = 100 - 30 - 10.
  // The grandchild [12,14] belongs to the first child only.
  std::vector<Span> spans = {
      {"parent", 0, 100, -1, 1}, {"a", 10, 30, 0, 1}, {"b", 20, 40, 0, 1},
      {"c", 90, 120, 0, 1},      {"d", 12, 14, 1, 1}, {"other", 0, 50, -1, 2}};
  const std::vector<std::int64_t> self = perfbench::self_times_ns(spans);
  expect(self[0] == 60, "parent self time subtracts the union of children");
  expect(self[1] == 18, "child self time subtracts its own child");
  expect(self[2] == 20, "leaf self time is its duration");
  expect(self[3] == 30, "a child's own self time is not clipped");
  expect(self[5] == 50, "a root without children keeps its duration");
  const auto by_name = perfbench::self_time_by_name(spans);
  expect(by_name.at("parent") == 60 && by_name.at("d") == 2,
         "self time by name sums per name");
}

void wire_space() {
  esm::SupernetSpec spec;
  spec.num_units = 2;
  spec.min_blocks_per_unit = 1;
  spec.max_blocks_per_unit = 3;
  spec.kernel_options = {3, 5};
  spec.expansion_options = {0.5, 1.0};
  spec.name = "selftest";
  const perfbench::WireSpace space(spec, 42);
  expect(space.size() == 144, "2 units of 3 depths x 2 kernels x 2 expansions");
  std::set<std::string> seen;
  for (std::uint64_t i = 0; i < space.size(); ++i) {
    seen.insert(space.at(i).to_string());
  }
  expect(seen.size() == space.size(), "the permutation visits every member once");
  const perfbench::WireSpace again(spec, 42);
  const perfbench::WireSpace other(spec, 43);
  bool same = true;
  bool differs = false;
  for (std::uint64_t i = 0; i < space.size(); ++i) {
    same = same && space.at(i) == again.at(i);
    differs = differs || !(space.at(i) == other.at(i));
  }
  expect(same, "the same seed gives the same order");
  expect(differs, "another seed gives another order");
}

}  // namespace

int main() {
  percentiles();
  zero_steal();
  self_times();
  wire_space();
  if (g_failures == 0) std::printf("perfbench selftest: all checks passed\n");
  return g_failures == 0 ? 0 : 1;
}
