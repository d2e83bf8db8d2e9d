// Deep-ensemble latency surrogate: k independently initialized MLP
// surrogates over the same encoding. The ensemble mean is the prediction;
// the ensemble spread is a predictive-uncertainty estimate, which enables
// uncertainty-guided dataset extension (an extension of the paper's
// Algorithm 1 explored in bench/extension_active_sampling).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "ml/trainer.hpp"
#include "surrogate/mlp_surrogate.hpp"
#include "surrogate/trainable.hpp"

namespace esm {

/// Mean/spread of an ensemble prediction.
struct EnsemblePrediction {
  double mean_ms = 0.0;
  double stddev_ms = 0.0;  ///< disagreement between ensemble members
};

/// k-member MLP ensemble sharing one encoding.
class EnsembleSurrogate final : public TrainableSurrogate {
 public:
  /// Creates `members` MLP surrogates over fresh encoder instances of the
  /// encoding key (e.g. "fcc"); member i derives its seed from
  /// `seed` so members differ by initialization and minibatch order only.
  EnsembleSurrogate(const std::string& encoder_key, const SupernetSpec& spec,
                    TrainConfig train_config, std::size_t members,
                    std::uint64_t seed);

  /// Trains every member on the same data (a standard deep ensemble).
  void fit(std::span<const ArchConfig> archs,
           std::span<const double> latencies_ms);

  void fit(const SurrogateDataset& data) override;

  /// Mean prediction with the ensemble-disagreement uncertainty.
  EnsemblePrediction predict_with_uncertainty(const ArchConfig& arch) const;

  double predict_ms(const ArchConfig& arch) const override;

  /// Batch prediction through each member's fused predict_all, reduced in
  /// member order per index — the same summation order predict_ms uses,
  /// so results are bit-identical to the per-arch path.
  std::vector<double> predict_all(
      std::span<const ArchConfig> archs) const override;

  std::string name() const override;
  std::string kind() const override { return "ensemble"; }
  std::string encoder_key() const override;
  const SupernetSpec& spec() const override;

  /// Persists every member's state under "member<i>." prefixes.
  void save(ArchiveWriter& archive) const override;

  /// Restores an ensemble saved with save(). `encoder_key`/`spec` come from
  /// the enclosing artifact header.
  static std::unique_ptr<EnsembleSurrogate> load_state(
      const ArchiveReader& archive, const std::string& encoder_key,
      const SupernetSpec& spec);

  std::size_t member_count() const { return members_.size(); }
  bool fitted() const override;

 private:
  /// Internal: builds an ensemble shell whose members are supplied by the
  /// caller (used by load_state).
  explicit EnsembleSurrogate(
      std::vector<std::unique_ptr<MlpSurrogate>> members);

  std::vector<std::unique_ptr<MlpSurrogate>> members_;
};

}  // namespace esm
