// Gradient-boosted regression trees (squared loss): each stage fits a
// shallow CART tree to the current residuals. Baseline for the model-family
// ablation (the paper's related work cites boosted decision trees).
#pragma once

#include <span>
#include <vector>

#include "linalg/matrix.hpp"
#include "ml/tree.hpp"

namespace esm {

/// Boosting hyper-parameters.
struct GbdtConfig {
  int n_estimators = 100;
  double learning_rate = 0.1;
  TreeConfig tree = {.max_depth = 5,
                     .min_samples_leaf = 4,
                     .min_samples_split = 8};
};

/// Squared-loss gradient boosting over regression trees.
class GradientBoostingRegressor {
 public:
  explicit GradientBoostingRegressor(GbdtConfig config = {});

  void fit(const Matrix& x, std::span<const double> y);

  std::vector<double> predict(const Matrix& x) const;
  double predict_one(std::span<const double> features) const;

  bool fitted() const { return fitted_; }
  std::size_t stage_count() const { return stages_.size(); }

  /// Persists the fitted ensemble (base prediction, shrinkage, stage trees).
  void save(ArchiveWriter& archive, const std::string& prefix) const;

  /// Restores an ensemble saved with save() for inputs of `n_features`
  /// features (see DecisionTreeRegressor::load).
  static GradientBoostingRegressor load(const ArchiveReader& archive,
                                        const std::string& prefix,
                                        std::size_t n_features);

 private:
  GbdtConfig config_;
  double base_prediction_ = 0.0;
  std::vector<DecisionTreeRegressor> stages_;
  bool fitted_ = false;
};

}  // namespace esm
