#include "surrogate/mlp_surrogate.hpp"

#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "encoding/encoder.hpp"

namespace esm {

MlpSurrogate::MlpSurrogate(std::unique_ptr<Encoder> encoder,
                           TrainConfig train_config, std::uint64_t seed)
    : encoder_(std::move(encoder)),
      train_config_(train_config),
      seed_(seed) {
  ESM_REQUIRE(encoder_ != nullptr, "MlpSurrogate requires an encoder");
}

TrainResult MlpSurrogate::fit(std::span<const ArchConfig> archs,
                              std::span<const double> latencies_ms) {
  ESM_REQUIRE(archs.size() == latencies_ms.size(),
              "MlpSurrogate::fit data mismatch");
  ESM_REQUIRE(!archs.empty(), "MlpSurrogate::fit requires data");

  const Matrix raw = encoder_->encode_all(archs);
  input_standardizer_.fit(raw);
  const Matrix x = input_standardizer_.transform(raw);

  target_scaler_.fit(latencies_ms);
  std::vector<double> y(latencies_ms.size());
  for (std::size_t i = 0; i < y.size(); ++i) {
    y[i] = target_scaler_.transform(latencies_ms[i]);
  }

  Rng init_rng(seed_);
  mlp_.emplace(Mlp::paper_predictor(encoder_->dimension(), init_rng));
  TrainConfig cfg = train_config_;
  cfg.shuffle_seed = seed_ ^ 0x5eedf00dull;
  MlpTrainer trainer(cfg);
  return trainer.fit(*mlp_, x, y);
}

double MlpSurrogate::predict_ms(const ArchConfig& arch) const {
  ESM_REQUIRE(fitted(), "MlpSurrogate used before fit()");
  std::vector<double> z = encoder_->encode(arch);
  input_standardizer_.transform_row(z);
  const double standardized = mlp_->predict_one(z);
  return target_scaler_.inverse(standardized);
}

std::vector<double> MlpSurrogate::predict_all(
    std::span<const ArchConfig> archs) const {
  ESM_REQUIRE(fitted(), "MlpSurrogate used before fit()");
  std::vector<double> out(archs.size());
  if (archs.empty()) return out;

  // Per-thread workspace reused across calls: once warmed to the largest
  // batch seen, the server's steady state performs zero per-architecture
  // heap allocations (fastpath_test pins this). Each row is written in
  // place: encode_into fills it, then standardization runs over the same
  // span — the exact operation sequence predict_ms applies to its own
  // vector.
  struct FusedWorkspace {
    Matrix x;
    Mlp::Workspace mlp;
  };
  static thread_local FusedWorkspace ws;
  ws.x.reshape(archs.size(), encoder_->dimension());
  for (std::size_t r = 0; r < archs.size(); ++r) {
    auto row = ws.x.row(r);
    encoder_->encode_into(archs[r], row);
    input_standardizer_.transform_row(row);
  }
  mlp_->predict_into(ws.x, out, ws.mlp);
  for (double& v : out) v = target_scaler_.inverse(v);
  return out;
}

void MlpSurrogate::fit(const SurrogateDataset& data) {
  (void)fit(data.archs, data.latencies_ms);
}

std::string MlpSurrogate::name() const {
  return "MLP+" + encoder_->name();
}

std::string MlpSurrogate::encoder_key() const {
  return encoder_registry_key(encoder_->kind());
}

void MlpSurrogate::save(ArchiveWriter& archive) const {
  save_state(archive, "");
}

void MlpSurrogate::save_state(ArchiveWriter& archive,
                              const std::string& prefix) const {
  ESM_REQUIRE(fitted(), "cannot save an unfitted MlpSurrogate");
  archive.put_doubles(prefix + "input.means", input_standardizer_.means());
  archive.put_doubles(prefix + "input.scales", input_standardizer_.scales());
  archive.put_double(prefix + "target.mean", target_scaler_.mean());
  archive.put_double(prefix + "target.scale", target_scaler_.scale());
  archive.put_int(prefix + "train.epochs", train_config_.epochs);
  archive.put_int(prefix + "train.batch_size",
                  static_cast<long long>(train_config_.batch_size));
  archive.put_double(prefix + "train.learning_rate",
                     train_config_.adam.learning_rate);
  archive.put_double(prefix + "train.weight_decay",
                     train_config_.adam.weight_decay);
  archive.put_int(prefix + "seed", static_cast<long long>(seed_));
  mlp_->save(archive, prefix + "mlp");
}

std::unique_ptr<MlpSurrogate> MlpSurrogate::load_state(
    const ArchiveReader& archive, const std::string& prefix,
    std::unique_ptr<Encoder> encoder) {
  TrainConfig train;
  train.epochs = static_cast<int>(archive.get_int(prefix + "train.epochs"));
  train.batch_size =
      static_cast<std::size_t>(archive.get_int(prefix + "train.batch_size"));
  train.adam.learning_rate =
      archive.get_double(prefix + "train.learning_rate");
  train.adam.weight_decay =
      archive.get_double(prefix + "train.weight_decay");

  auto surrogate = std::make_unique<MlpSurrogate>(
      std::move(encoder), train,
      static_cast<std::uint64_t>(archive.get_int(prefix + "seed")));
  surrogate->input_standardizer_.set_state(
      archive.get_doubles(prefix + "input.means"),
      archive.get_doubles(prefix + "input.scales"));
  surrogate->target_scaler_.set_state(
      archive.get_double(prefix + "target.mean"),
      archive.get_double(prefix + "target.scale"));
  surrogate->mlp_.emplace(Mlp::load(archive, prefix + "mlp"));
  ESM_REQUIRE(surrogate->mlp_->input_dim() == surrogate->encoder_->dimension(),
              "archived MLP input dim does not match the encoder");
  return surrogate;
}

}  // namespace esm
