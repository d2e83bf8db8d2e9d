#include "surrogate/ensemble_surrogate.hpp"

#include <cmath>

#include "common/error.hpp"
#include "encoding/encoder.hpp"

namespace esm {

EnsembleSurrogate::EnsembleSurrogate(const std::string& encoder_key,
                                     const SupernetSpec& spec,
                                     TrainConfig train_config,
                                     std::size_t members, std::uint64_t seed) {
  ESM_REQUIRE(members >= 2, "an ensemble needs at least two members");
  members_.reserve(members);
  for (std::size_t i = 0; i < members; ++i) {
    members_.push_back(std::make_unique<MlpSurrogate>(
        make_encoder(encoder_key, spec), train_config,
        seed + 0x9e37ull * (i + 1)));
  }
}

EnsembleSurrogate::EnsembleSurrogate(
    std::vector<std::unique_ptr<MlpSurrogate>> members)
    : members_(std::move(members)) {
  ESM_REQUIRE(members_.size() >= 2, "an ensemble needs at least two members");
}

void EnsembleSurrogate::fit(const SurrogateDataset& data) {
  fit(data.archs, data.latencies_ms);
}

std::string EnsembleSurrogate::encoder_key() const {
  return members_.front()->encoder_key();
}

const SupernetSpec& EnsembleSurrogate::spec() const {
  return members_.front()->spec();
}

void EnsembleSurrogate::save(ArchiveWriter& archive) const {
  ESM_REQUIRE(fitted(), "cannot save an unfitted EnsembleSurrogate");
  archive.put_int("ensemble.members",
                  static_cast<long long>(members_.size()));
  for (std::size_t i = 0; i < members_.size(); ++i) {
    members_[i]->save_state(archive, "member" + std::to_string(i) + ".");
  }
}

std::unique_ptr<EnsembleSurrogate> EnsembleSurrogate::load_state(
    const ArchiveReader& archive, const std::string& encoder_key,
    const SupernetSpec& spec) {
  const long long count = archive.get_int("ensemble.members");
  ESM_REQUIRE(count >= 2, "ensemble artifact needs >= 2 members");
  std::vector<std::unique_ptr<MlpSurrogate>> members;
  members.reserve(static_cast<std::size_t>(count));
  for (long long i = 0; i < count; ++i) {
    members.push_back(MlpSurrogate::load_state(
        archive, "member" + std::to_string(i) + ".",
        make_encoder(encoder_key, spec)));
  }
  return std::unique_ptr<EnsembleSurrogate>(
      new EnsembleSurrogate(std::move(members)));
}

bool EnsembleSurrogate::fitted() const {
  for (const auto& member : members_) {
    if (!member->fitted()) return false;
  }
  return true;
}

void EnsembleSurrogate::fit(std::span<const ArchConfig> archs,
                            std::span<const double> latencies_ms) {
  for (auto& member : members_) {
    member->fit(archs, latencies_ms);
  }
}

EnsemblePrediction EnsembleSurrogate::predict_with_uncertainty(
    const ArchConfig& arch) const {
  ESM_REQUIRE(fitted(), "EnsembleSurrogate used before fit()");
  double sum = 0.0, sum_sq = 0.0;
  for (const auto& member : members_) {
    const double p = member->predict_ms(arch);
    sum += p;
    sum_sq += p * p;
  }
  const double n = static_cast<double>(members_.size());
  EnsemblePrediction pred;
  pred.mean_ms = sum / n;
  const double var = sum_sq / n - pred.mean_ms * pred.mean_ms;
  pred.stddev_ms = var > 0.0 ? std::sqrt(var) : 0.0;
  return pred;
}

double EnsembleSurrogate::predict_ms(const ArchConfig& arch) const {
  return predict_with_uncertainty(arch).mean_ms;
}

std::vector<double> EnsembleSurrogate::predict_all(
    std::span<const ArchConfig> archs) const {
  ESM_REQUIRE(fitted(), "EnsembleSurrogate used before fit()");
  std::vector<double> sums(archs.size(), 0.0);
  for (const auto& member : members_) {
    const std::vector<double> preds = member->predict_all(archs);
    for (std::size_t i = 0; i < preds.size(); ++i) sums[i] += preds[i];
  }
  const double n = static_cast<double>(members_.size());
  for (double& v : sums) v /= n;
  return sums;
}

std::string EnsembleSurrogate::name() const {
  return "Ensemble(" + std::to_string(members_.size()) + ")x" +
         members_.front()->name();
}

}  // namespace esm
