#include "surrogate/gbdt_surrogate.hpp"

#include <utility>

#include "common/error.hpp"
#include "encoding/encoder.hpp"

namespace esm {

GbdtSurrogate::GbdtSurrogate(std::unique_ptr<Encoder> encoder,
                             GbdtConfig config)
    : encoder_(std::move(encoder)), config_(config) {
  ESM_REQUIRE(encoder_ != nullptr, "GbdtSurrogate requires an encoder");
}

void GbdtSurrogate::fit(const SurrogateDataset& data) {
  ESM_REQUIRE(data.archs.size() == data.latencies_ms.size(),
              "GbdtSurrogate::fit data mismatch");
  ESM_REQUIRE(data.size() > 0, "GbdtSurrogate::fit requires data");
  // Trees are scale-invariant, so the raw encoding feeds in directly.
  const Matrix x = encoder_->encode_all(data.archs);
  model_.emplace(config_);
  model_->fit(x, data.latencies_ms);
}

double GbdtSurrogate::predict_ms(const ArchConfig& arch) const {
  ESM_REQUIRE(fitted(), "GbdtSurrogate used before fit()");
  return model_->predict_one(encoder_->encode(arch));
}

std::string GbdtSurrogate::name() const {
  return "GBDT+" + encoder_->name();
}

std::string GbdtSurrogate::encoder_key() const {
  return encoder_registry_key(encoder_->kind());
}

void GbdtSurrogate::save(ArchiveWriter& archive) const {
  ESM_REQUIRE(fitted(), "cannot save an unfitted GbdtSurrogate");
  model_->save(archive, "gbdt.");
}

std::unique_ptr<GbdtSurrogate> GbdtSurrogate::load_state(
    const ArchiveReader& archive, std::unique_ptr<Encoder> encoder) {
  auto surrogate = std::make_unique<GbdtSurrogate>(std::move(encoder));
  // A split on a feature at or past the encoder's width is refused here,
  // before predict_one() could read past an encoding.
  surrogate->model_.emplace(GradientBoostingRegressor::load(
      archive, "gbdt.", surrogate->encoder_->dimension()));
  return surrogate;
}

}  // namespace esm
