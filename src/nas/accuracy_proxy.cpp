#include "nas/accuracy_proxy.hpp"

#include <cmath>
#include <functional>

#include "common/rng.hpp"

namespace esm {

AccuracyProxy::AccuracyProxy(SupernetSpec spec, std::uint64_t seed)
    : spec_(std::move(spec)), seed_(seed) {}

double AccuracyProxy::top5_accuracy(const ArchConfig& arch) const {
  const double gflops = graph_flops(spec_, arch) / 1e9;
  const double capacity_term = 1.0 - std::exp(-gflops / knee_gflops_);

  // Deterministic per-architecture residual: hash the canonical string into
  // an RNG and draw one normal deviate. Same architecture -> same residual.
  const std::size_t h = std::hash<std::string>{}(arch.to_string());
  Rng residual_rng(static_cast<std::uint64_t>(h) ^ seed_);
  const double residual = residual_rng.normal(0.0, residual_sd_);

  double acc = floor_ + span_ * capacity_term + residual;
  if (acc < 0.0) acc = 0.0;
  if (acc > 1.0) acc = 1.0;
  return acc;
}

}  // namespace esm
