#include "nets/sampler.hpp"

#include "common/error.hpp"
#include "common/strings.hpp"

namespace esm {

SamplingStrategy sampling_strategy_from_name(const std::string& name) {
  const std::string lower = to_lower(name);
  if (lower == "random") return SamplingStrategy::kRandom;
  if (lower == "balanced") return SamplingStrategy::kBalanced;
  throw ConfigError("unknown sampling strategy: " + name);
}

const char* sampling_strategy_name(SamplingStrategy s) {
  switch (s) {
    case SamplingStrategy::kRandom: return "random";
    case SamplingStrategy::kBalanced: return "balanced";
  }
  return "unknown";
}

BlockConfig random_block(const SupernetSpec& spec, Rng& rng) {
  BlockConfig b;
  b.kernel = spec.kernel_options[static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<int>(spec.kernel_options.size()) - 1))];
  if (!spec.expansion_options.empty()) {
    b.expansion = spec.expansion_options[static_cast<std::size_t>(
        rng.uniform_int(0,
                        static_cast<int>(spec.expansion_options.size()) - 1))];
  }
  return b;
}

UnitConfig random_unit(const SupernetSpec& spec, int depth, Rng& rng) {
  ESM_REQUIRE(depth >= spec.min_blocks_per_unit &&
                  depth <= spec.max_blocks_per_unit,
              "unit depth " << depth << " outside the space");
  UnitConfig unit;
  unit.blocks.reserve(static_cast<std::size_t>(depth));
  if (spec.kernel_per_unit) {
    // One block's features chosen per unit, replicated to every block
    // (DenseNet).
    unit.blocks.assign(static_cast<std::size_t>(depth),
                       random_block(spec, rng));
  } else {
    for (int i = 0; i < depth; ++i) {
      unit.blocks.push_back(random_block(spec, rng));
    }
  }
  return unit;
}

std::vector<ArchConfig> ArchSampler::sample_n(std::size_t n, Rng& rng) {
  std::vector<ArchConfig> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) out.push_back(sample(rng));
  return out;
}

RandomSampler::RandomSampler(SupernetSpec spec) : spec_(std::move(spec)) {}

ArchConfig RandomSampler::sample(Rng& rng) {
  ArchConfig arch;
  arch.kind = spec_.kind;
  arch.units.reserve(static_cast<std::size_t>(spec_.num_units));
  for (int u = 0; u < spec_.num_units; ++u) {
    const int depth =
        rng.uniform_int(spec_.min_blocks_per_unit, spec_.max_blocks_per_unit);
    arch.units.push_back(random_unit(spec_, depth, rng));
  }
  return arch;
}

BalancedSampler::BalancedSampler(SupernetSpec spec, int n_bins)
    : spec_(std::move(spec)),
      bins_(spec_, n_bins),
      compositions_(spec_.num_units, spec_.min_blocks_per_unit,
                    spec_.max_blocks_per_unit) {}

ArchConfig BalancedSampler::sample(Rng& rng) {
  const int bin = next_bin_;
  next_bin_ = (next_bin_ + 1) % bins_.size();
  return sample_in_bin(bin, rng);
}

ArchConfig BalancedSampler::sample_in_bin(int bin_index, Rng& rng) {
  const auto totals = bins_.totals_in(bin_index);
  const int total = totals[static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<int>(totals.size()) - 1))];
  return sample_with_total(total, rng);
}

ArchConfig BalancedSampler::sample_with_total(int total, Rng& rng) {
  const std::vector<int> depths = compositions_.sample(total, rng);
  ArchConfig arch;
  arch.kind = spec_.kind;
  arch.units.reserve(depths.size());
  for (int depth : depths) {
    arch.units.push_back(random_unit(spec_, depth, rng));
  }
  ESM_CHECK(arch.total_blocks() == total, "balanced sample total mismatch");
  return arch;
}

std::unique_ptr<ArchSampler> make_sampler(const SupernetSpec& spec,
                                          SamplingStrategy strategy,
                                          int n_bins) {
  switch (strategy) {
    case SamplingStrategy::kRandom:
      return std::make_unique<RandomSampler>(spec);
    case SamplingStrategy::kBalanced:
      return std::make_unique<BalancedSampler>(spec, n_bins);
  }
  throw ConfigError("unknown sampling strategy");
}

}  // namespace esm
