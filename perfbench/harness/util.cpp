#include "util.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <iostream>
#include <numeric>
#include <stdexcept>

#include "nas/search/wire.hpp"

namespace perfbench {

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double n = static_cast<double>(values.size());
  const double rank = std::clamp(std::ceil(p / 100.0 * n), 1.0, n);
  return values[static_cast<std::size_t>(rank) - 1];
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  if (values.size() % 2 == 1) return values[mid];
  return 0.5 * (values[mid - 1] + values[mid]);
}

double at_zero_steal(const std::vector<double>& values,
                     const std::vector<double>& steal) {
  if (values.size() != steal.size()) {
    throw std::invalid_argument("at_zero_steal: one steal reading per value");
  }
  if (values.empty()) return 0.0;
  std::vector<double> slopes;
  for (std::size_t i = 0; i < values.size(); ++i) {
    for (std::size_t j = i + 1; j < values.size(); ++j) {
      if (steal[j] != steal[i]) {
        slopes.push_back((values[j] - values[i]) / (steal[j] - steal[i]));
      }
    }
  }
  const double slope = slopes.empty() ? 0.0 : median(std::move(slopes));
  std::vector<double> at_zero;
  for (std::size_t i = 0; i < values.size(); ++i) {
    at_zero.push_back(values[i] - slope * steal[i]);
  }
  return median(std::move(at_zero));
}

double time_ns_per_op(const std::function<void(std::size_t)>& op,
                      std::size_t batch, int repeats, double min_round_s) {
  std::size_t next = 0;
  // Grow the round until it is long enough to time reliably.
  for (;;) {
    const std::int64_t t0 = now_ns();
    for (std::size_t i = 0; i < batch; ++i) op(next++);
    if (static_cast<double>(now_ns() - t0) * 1e-9 >= min_round_s) break;
    batch *= 2;
  }
  std::vector<double> per_op;
  for (int r = 0; r < repeats; ++r) {
    const std::int64_t t0 = now_ns();
    for (std::size_t i = 0; i < batch; ++i) op(next++);
    per_op.push_back(static_cast<double>(now_ns() - t0) /
                     static_cast<double>(batch));
  }
  return median(per_op);
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ull * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

WireSpace::WireSpace(esm::SupernetSpec spec, std::uint64_t seed)
    : spec_(std::move(spec)) {
  const std::uint64_t depths = static_cast<std::uint64_t>(
      spec_.max_blocks_per_unit - spec_.min_blocks_per_unit + 1);
  per_unit_ = depths * spec_.kernel_options.size() *
              std::max<std::size_t>(1, spec_.expansion_options.size());
  size_ = 1;
  for (int u = 0; u < spec_.num_units; ++u) size_ *= per_unit_;
  add_ = mix_seed(seed, 1) % size_;
  mul_ = mix_seed(seed, 2) % size_;
  if (mul_ == 0) mul_ = 1;
  while (std::gcd(mul_, size_) != 1) mul_ = mul_ % (size_ - 1) + 1;
}

esm::ArchConfig WireSpace::at(std::uint64_t i) const {
  if (i >= size_) throw std::out_of_range("WireSpace index past the space");
  // mul_, i < size_ < 2^32, so the product cannot overflow.
  std::uint64_t code = (mul_ * i + add_) % size_;
  const std::size_t kernels = spec_.kernel_options.size();
  const std::size_t expansions =
      std::max<std::size_t>(1, spec_.expansion_options.size());
  esm::ArchConfig arch;
  arch.kind = spec_.kind;
  for (int u = 0; u < spec_.num_units; ++u) {
    std::uint64_t digit = code % per_unit_;
    code /= per_unit_;
    const std::size_t e = digit % expansions;
    digit /= expansions;
    const std::size_t k = digit % kernels;
    digit /= kernels;
    const int depth = spec_.min_blocks_per_unit + static_cast<int>(digit);
    esm::BlockConfig block;
    block.kernel = spec_.kernel_options[k];
    block.expansion =
        spec_.expansion_options.empty() ? 1.0 : spec_.expansion_options[e];
    esm::UnitConfig unit;
    unit.blocks.assign(static_cast<std::size_t>(depth), block);
    arch.units.push_back(std::move(unit));
  }
  return arch;
}

std::string WireSpace::wire(std::uint64_t i) const {
  return esm::search::format_arch_request(spec_, at(i));
}

void Record::set(const std::string& name, double value) {
  for (auto& [key, v] : values_) {
    if (key == name) {
      v = value;
      return;
    }
  }
  values_.emplace_back(name, value);
}

double Record::get(const std::string& name) const {
  for (const auto& [key, v] : values_) {
    if (key == name) return v;
  }
  throw std::out_of_range("no value named " + name);
}

void Record::fail(const std::string& what) {
  ++failed_;
  std::cerr << "perfbench: FAILED: " << what << "\n";
}

std::string Record::to_json() const {
  std::string out = "{\"attempted\": " + std::to_string(attempted_) +
                    ", \"failed\": " + std::to_string(failed_) +
                    ", \"values\": {";
  bool first = true;
  for (const auto& [key, v] : values_) {
    char buffer[64];
    if (std::isfinite(v)) {
      std::snprintf(buffer, sizeof(buffer), "%.17g", v);
    } else {
      std::snprintf(buffer, sizeof(buffer), "null");
    }
    out += (first ? "\"" : ", \"") + key + "\": " + buffer;
    first = false;
  }
  out += "}}";
  return out;
}

}  // namespace perfbench
