// Lookup-table latency surrogate (the paper's additive baseline).
//
// "Lookup table-based techniques use an additive model where latency of
// each individual layer is taken from the lookup table (defined through
// profiling) and then the latencies of all the layers are accumulated"
// (paper §I). We reproduce that faithfully at layer granularity: every
// structurally-distinct layer is measured ONCE on the simulated device as a
// standalone single-kernel probe (cold caches, no fusion context — exactly
// the isolation error real layer LUTs suffer), memoized by a structural
// signature, and summed over the network's layers.
//
// The additive sum systematically mispredicts because whole-network
// execution fuses element-wise layers into the preceding kernel's epilogue
// and warms caches across layer boundaries — the "complex interactions
// between layers" the paper says LUTs cannot capture.
// fit_bias_correction() fits the paper's linear-regression correction
// (measured ≈ a * lut + b) on a calibration set.
//
// A LUT loaded from an artifact has no device: it serves the persisted
// table only and raises ConfigError on layers it never profiled.
#pragma once

#include <cstddef>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "hwsim/measurement.hpp"
#include "ml/linreg.hpp"
#include "nets/builder.hpp"
#include "nets/supernet.hpp"
#include "surrogate/trainable.hpp"

namespace esm {

/// Additive block-wise lookup-table surrogate with optional bias correction.
class LutSurrogate final : public TrainableSurrogate {
 public:
  /// Borrows the device for profiling; the device must outlive the
  /// surrogate. Profiling happens lazily (memoized) on first use of each
  /// block type and is charged to the device's measurement-cost account.
  LutSurrogate(SupernetSpec spec, SimulatedDevice& device);

  /// Device-less serving mode: answers from `table` only and raises
  /// ConfigError on unprofiled layers. Used when loading artifacts.
  LutSurrogate(SupernetSpec spec, std::map<std::string, double> table);

  /// Warms the table over the dataset's architectures, then fits the bias
  /// correction when >= 2 samples are available.
  void fit(const SurrogateDataset& data) override;

  /// Uncorrected additive LUT prediction.
  double lut_ms(const ArchConfig& arch) const;

  /// Fits the linear bias correction on a calibration set of architectures
  /// with measured latencies.
  void fit_bias_correction(std::span<const ArchConfig> archs,
                           std::span<const double> measured_ms);

  /// Restores a persisted bias correction (weights + intercept).
  void set_bias_state(std::vector<double> weights, double intercept);

  /// Removes the bias correction (back to the raw additive model).
  void clear_bias_correction() { bias_correction_.reset(); }
  bool bias_corrected() const { return bias_correction_.has_value(); }

  double predict_ms(const ArchConfig& arch) const override;
  std::string name() const override;
  std::string kind() const override { return "lut"; }
  std::string encoder_key() const override { return encoder_key_; }
  const SupernetSpec& spec() const override { return spec_; }
  bool fitted() const override { return !table_.empty(); }

  /// Persists the profiled table and bias correction.
  void save(ArchiveWriter& archive) const override;

  /// Records which encoder key the artifact header should carry (the LUT
  /// itself never encodes; defaults to "none").
  void set_encoder_key(std::string key) { encoder_key_ = std::move(key); }

  /// Number of distinct layer types profiled so far.
  std::size_t table_size() const { return table_.size(); }

  /// Pre-profiles every layer type appearing in `archs`.
  void warm_table(std::span<const ArchConfig> archs);

 private:
  /// Position-independent structural key of a layer (kind, kernel, stride,
  /// shapes), so identical layers share one table entry.
  static std::string signature(const Layer& layer);

  /// Table entry for one layer, profiling a single-kernel probe on first
  /// use.
  double layer_cost_ms(const Layer& layer) const;

  SupernetSpec spec_;
  SimulatedDevice* device_;  // non-owning; nullptr in serving mode
  std::string encoder_key_ = "none";
  mutable std::map<std::string, double> table_;
  std::optional<LinearRegression> bias_correction_;
};

}  // namespace esm
