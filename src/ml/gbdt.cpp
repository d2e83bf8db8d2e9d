#include "ml/gbdt.hpp"

#include <limits>

#include "common/error.hpp"
#include "common/stats.hpp"

namespace esm {

GradientBoostingRegressor::GradientBoostingRegressor(GbdtConfig config)
    : config_(config) {
  ESM_REQUIRE(config_.n_estimators >= 1, "GBDT needs >= 1 estimator");
  ESM_REQUIRE(config_.learning_rate > 0.0, "GBDT learning rate must be > 0");
}

void GradientBoostingRegressor::fit(const Matrix& x,
                                    std::span<const double> y) {
  ESM_REQUIRE(x.rows() == y.size(), "GBDT data mismatch");
  ESM_REQUIRE(x.rows() > 0, "GBDT requires data");
  stages_.clear();
  base_prediction_ = mean(y);

  std::vector<double> residual(y.size());
  for (std::size_t i = 0; i < y.size(); ++i) {
    residual[i] = y[i] - base_prediction_;
  }

  for (int stage = 0; stage < config_.n_estimators; ++stage) {
    DecisionTreeRegressor tree(config_.tree);
    tree.fit(x, residual);
    const std::vector<double> update = tree.predict(x);
    for (std::size_t i = 0; i < residual.size(); ++i) {
      residual[i] -= config_.learning_rate * update[i];
    }
    stages_.push_back(std::move(tree));
  }
  fitted_ = true;
}

double GradientBoostingRegressor::predict_one(
    std::span<const double> features) const {
  ESM_REQUIRE(fitted_, "GBDT used before fit()");
  double acc = base_prediction_;
  for (const DecisionTreeRegressor& tree : stages_) {
    acc += config_.learning_rate * tree.predict_one(features);
  }
  return acc;
}

std::vector<double> GradientBoostingRegressor::predict(const Matrix& x) const {
  std::vector<double> out(x.rows());
  for (std::size_t r = 0; r < x.rows(); ++r) out[r] = predict_one(x.row(r));
  return out;
}

void GradientBoostingRegressor::save(ArchiveWriter& archive,
                                     const std::string& prefix) const {
  ESM_REQUIRE(fitted_, "cannot save an unfitted GBDT");
  archive.put_double(prefix + "learning_rate", config_.learning_rate);
  archive.put_double(prefix + "base_prediction", base_prediction_);
  archive.put_int(prefix + "stages", static_cast<long long>(stages_.size()));
  for (std::size_t i = 0; i < stages_.size(); ++i) {
    stages_[i].save(archive, prefix + "s" + std::to_string(i) + ".");
  }
}

GradientBoostingRegressor GradientBoostingRegressor::load(
    const ArchiveReader& archive, const std::string& prefix,
    std::size_t n_features) {
  // The count must fit n_estimators. Nothing is reserved by it: stages are
  // appended as they load, so a count past the archived stages fails on
  // the first missing one instead of asking for memory up front.
  const long long stages = archive.get_int(prefix + "stages");
  ESM_REQUIRE(stages >= 1 && stages <= std::numeric_limits<int>::max(),
              "GBDT archive '" << prefix << "' has " << stages << " stages");
  GbdtConfig config;
  config.n_estimators = static_cast<int>(stages);
  config.learning_rate = archive.get_double(prefix + "learning_rate");
  GradientBoostingRegressor model(config);
  model.base_prediction_ = archive.get_double(prefix + "base_prediction");
  for (long long i = 0; i < stages; ++i) {
    model.stages_.push_back(DecisionTreeRegressor::load(
        archive, prefix + "s" + std::to_string(i) + ".", n_features));
  }
  model.fitted_ = true;
  return model;
}

}  // namespace esm
