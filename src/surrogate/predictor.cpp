#include "surrogate/predictor.hpp"

namespace esm {

std::vector<double> LatencyPredictor::predict_all(
    std::span<const ArchConfig> archs) const {
  // Serial on the caller's thread: the server prices misses on its
  // reactor, where a pool fan-out would park the reactor on pool workers.
  std::vector<double> out;
  out.reserve(archs.size());
  for (const ArchConfig& arch : archs) out.push_back(predict_ms(arch));
  return out;
}

}  // namespace esm
