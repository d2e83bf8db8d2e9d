// CART regression tree (variance-reduction splits). The paper's related work
// uses decision-tree and boosted-tree latency predictors; these provide the
// model-family ablation baselines (bench/ablation_models).
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "common/archive.hpp"
#include "linalg/matrix.hpp"

namespace esm {

/// Decision-tree regressor hyper-parameters.
struct TreeConfig {
  int max_depth = 12;
  std::size_t min_samples_leaf = 4;
  std::size_t min_samples_split = 8;
};

/// Axis-aligned CART regression tree.
class DecisionTreeRegressor {
 public:
  explicit DecisionTreeRegressor(TreeConfig config = {});

  void fit(const Matrix& x, std::span<const double> y);

  std::vector<double> predict(const Matrix& x) const;
  double predict_one(std::span<const double> features) const;

  bool fitted() const { return !nodes_.empty(); }
  std::size_t node_count() const { return nodes_.size(); }
  int depth() const;

  /// Persists the fitted node table (hyper-parameters are not saved; a
  /// loaded tree predicts but refits under default config).
  void save(ArchiveWriter& archive, const std::string& prefix) const;

  /// Restores a tree saved with save() for inputs of `n_features`
  /// features. Throws esm::ConfigError on a damaged node table: a split
  /// feature outside [0, n_features), or a child index that is not a later
  /// node (so a walk could cycle or leave the table).
  static DecisionTreeRegressor load(const ArchiveReader& archive,
                                    const std::string& prefix,
                                    std::size_t n_features);

 private:
  struct Node {
    int feature = -1;        ///< -1 for leaves
    double threshold = 0.0;  ///< go left when x[feature] <= threshold
    double value = 0.0;      ///< leaf prediction
    int left = -1;
    int right = -1;
  };

  int build(const Matrix& x, std::span<const double> y,
            std::vector<std::size_t>& indices, int depth);

  TreeConfig config_;
  std::vector<Node> nodes_;
};

}  // namespace esm
