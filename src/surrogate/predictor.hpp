// Latency-predictor interface: every surrogate maps an architecture
// configuration to a predicted latency in milliseconds on one target device.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "nets/arch.hpp"

namespace esm {

/// Abstract latency surrogate for one (space, device) pair.
class LatencyPredictor {
 public:
  virtual ~LatencyPredictor() = default;

  /// Predicted latency of one architecture in milliseconds.
  virtual double predict_ms(const ArchConfig& arch) const = 0;

  /// Human-readable model name for tables ("MLP+fcc", "LUT+BC", ...).
  virtual std::string name() const = 0;

  /// Batch prediction on the caller's thread. The default is a serial
  /// loop over predict_ms (results in input order); surrogates whose
  /// predict_ms is not const-pure (e.g. the lazily profiling LUT) override
  /// it with their own serial loop, and the MLP-backed
  /// surrogates override it with the fused encode->standardize->batched
  /// GEMM fast path (allocation-free once warm, still bit-identical to
  /// per-arch predict_ms).
  virtual std::vector<double> predict_all(
      std::span<const ArchConfig> archs) const;
};

}  // namespace esm
