// MLP-based latency surrogate: encoder + input standardization + target
// scaling + the paper's 3-layer/64-hidden MLP trained with Adam on MSE.
// fit() retrains from scratch (the ESM loop retrains after every dataset
// extension, as in the paper).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>

#include "encoding/encoder.hpp"
#include "linalg/standardizer.hpp"
#include "ml/mlp.hpp"
#include "ml/trainer.hpp"
#include "surrogate/trainable.hpp"

namespace esm {

/// Encoder-fronted MLP regression surrogate.
class MlpSurrogate final : public TrainableSurrogate {
 public:
  /// Takes ownership of the encoder. `seed` controls weight initialization
  /// and minibatch shuffling, making fits reproducible.
  MlpSurrogate(std::unique_ptr<Encoder> encoder, TrainConfig train_config,
               std::uint64_t seed);

  /// Trains from scratch on architecture/latency pairs; returns trainer
  /// telemetry (including wall-clock seconds, used by the Fig. 4a bench).
  TrainResult fit(std::span<const ArchConfig> archs,
                  std::span<const double> latencies_ms);

  void fit(const SurrogateDataset& data) override;

  double predict_ms(const ArchConfig& arch) const override;

  /// Fused batch prediction: encodes every arch directly into one
  /// preallocated input matrix (Encoder::encode_into), standardizes rows
  /// in place, and runs a single batched MLP forward through per-thread
  /// workspaces — zero per-architecture heap allocations once warm
  /// (tests/fastpath_test.cpp pins this). Bit-identical to calling
  /// predict_ms per arch.
  std::vector<double> predict_all(
      std::span<const ArchConfig> archs) const override;

  std::string name() const override;
  std::string kind() const override { return "mlp"; }
  std::string encoder_key() const override;
  const SupernetSpec& spec() const override { return encoder_->spec(); }

  /// Writes the fitted state (standardizers, train config, seed, weights)
  /// with no prefix; see save_state for embedding under a prefix.
  void save(ArchiveWriter& archive) const override;

  /// Writes the fitted state with every key prefixed (used by the ensemble
  /// surrogate to pack members into one archive).
  void save_state(ArchiveWriter& archive, const std::string& prefix) const;

  /// Restores a surrogate saved with save_state(); `encoder` must match the
  /// spec/encoding recorded in the enclosing artifact header.
  static std::unique_ptr<MlpSurrogate> load_state(
      const ArchiveReader& archive, const std::string& prefix,
      std::unique_ptr<Encoder> encoder);

  bool fitted() const override { return mlp_.has_value(); }
  const Encoder& encoder() const { return *encoder_; }
  const TrainConfig& train_config() const { return train_config_; }

 private:
  std::unique_ptr<Encoder> encoder_;
  TrainConfig train_config_;
  std::uint64_t seed_;
  Standardizer input_standardizer_;
  TargetScaler target_scaler_;
  std::optional<Mlp> mlp_;
};

}  // namespace esm
