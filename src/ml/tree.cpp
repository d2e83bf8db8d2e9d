#include "ml/tree.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "common/error.hpp"

namespace esm {

DecisionTreeRegressor::DecisionTreeRegressor(TreeConfig config)
    : config_(config) {
  ESM_REQUIRE(config_.max_depth >= 1, "tree max_depth must be >= 1");
  ESM_REQUIRE(config_.min_samples_leaf >= 1, "min_samples_leaf must be >= 1");
}

namespace {

double subset_mean(std::span<const double> y,
                   const std::vector<std::size_t>& indices) {
  double acc = 0.0;
  for (std::size_t i : indices) acc += y[i];
  return indices.empty() ? 0.0 : acc / static_cast<double>(indices.size());
}

}  // namespace

int DecisionTreeRegressor::build(const Matrix& x, std::span<const double> y,
                                 std::vector<std::size_t>& indices,
                                 int depth) {
  Node node;
  node.value = subset_mean(y, indices);
  const int node_id = static_cast<int>(nodes_.size());
  nodes_.push_back(node);

  if (depth >= config_.max_depth ||
      indices.size() < config_.min_samples_split) {
    return node_id;
  }

  // Find the split minimizing weighted child variance (equivalently,
  // maximizing variance reduction) across all features. Features are
  // scanned in ascending order and a candidate wins only with a strict `<`,
  // so ties go to the lowest feature index, then the lowest threshold.
  double best_score = std::numeric_limits<double>::infinity();
  int best_feature = -1;
  double best_threshold = 0.0;
  std::vector<std::pair<double, double>> column(indices.size());
  for (std::size_t f = 0; f < x.cols(); ++f) {
    for (std::size_t i = 0; i < indices.size(); ++i) {
      column[i] = {x(indices[i], f), y[indices[i]]};
    }
    std::sort(column.begin(), column.end());
    // Prefix sums for O(1) variance of each prefix/suffix.
    double sum_left = 0.0, sumsq_left = 0.0;
    double sum_total = 0.0, sumsq_total = 0.0;
    for (const auto& [xv, yv] : column) {
      sum_total += yv;
      sumsq_total += yv * yv;
    }
    const auto n = static_cast<double>(column.size());
    for (std::size_t i = 0; i + 1 < column.size(); ++i) {
      sum_left += column[i].second;
      sumsq_left += column[i].second * column[i].second;
      // Can't split between equal feature values.
      if (column[i].first == column[i + 1].first) continue;
      const double n_left = static_cast<double>(i + 1);
      const double n_right = n - n_left;
      if (n_left < static_cast<double>(config_.min_samples_leaf) ||
          n_right < static_cast<double>(config_.min_samples_leaf)) {
        continue;
      }
      const double sum_right = sum_total - sum_left;
      const double sumsq_right = sumsq_total - sumsq_left;
      const double sse_left = sumsq_left - sum_left * sum_left / n_left;
      const double sse_right = sumsq_right - sum_right * sum_right / n_right;
      const double score = sse_left + sse_right;
      if (score < best_score) {
        best_score = score;
        best_feature = static_cast<int>(f);
        best_threshold = 0.5 * (column[i].first + column[i + 1].first);
      }
    }
  }

  if (best_feature < 0) return node_id;  // no admissible split

  std::vector<std::size_t> left_idx, right_idx;
  for (std::size_t i : indices) {
    if (x(i, static_cast<std::size_t>(best_feature)) <= best_threshold) {
      left_idx.push_back(i);
    } else {
      right_idx.push_back(i);
    }
  }
  ESM_CHECK(!left_idx.empty() && !right_idx.empty(),
            "degenerate split slipped through");

  nodes_[static_cast<std::size_t>(node_id)].feature = best_feature;
  nodes_[static_cast<std::size_t>(node_id)].threshold = best_threshold;
  const int left = build(x, y, left_idx, depth + 1);
  const int right = build(x, y, right_idx, depth + 1);
  nodes_[static_cast<std::size_t>(node_id)].left = left;
  nodes_[static_cast<std::size_t>(node_id)].right = right;
  return node_id;
}

void DecisionTreeRegressor::fit(const Matrix& x, std::span<const double> y) {
  ESM_REQUIRE(x.rows() == y.size(), "tree data mismatch");
  ESM_REQUIRE(x.rows() > 0, "tree requires data");
  nodes_.clear();
  std::vector<std::size_t> indices(x.rows());
  std::iota(indices.begin(), indices.end(), 0u);
  build(x, y, indices, 0);
}

double DecisionTreeRegressor::predict_one(
    std::span<const double> features) const {
  ESM_REQUIRE(fitted(), "tree used before fit()");
  int node = 0;
  for (;;) {
    const Node& n = nodes_[static_cast<std::size_t>(node)];
    if (n.feature < 0) return n.value;
    node = features[static_cast<std::size_t>(n.feature)] <= n.threshold
               ? n.left
               : n.right;
  }
}

std::vector<double> DecisionTreeRegressor::predict(const Matrix& x) const {
  std::vector<double> out(x.rows());
  for (std::size_t r = 0; r < x.rows(); ++r) out[r] = predict_one(x.row(r));
  return out;
}

int DecisionTreeRegressor::depth() const {
  // Iterative depth computation over the node array.
  if (nodes_.empty()) return 0;
  std::vector<std::pair<int, int>> stack{{0, 1}};
  int max_depth = 0;
  while (!stack.empty()) {
    const auto [node, depth] = stack.back();
    stack.pop_back();
    max_depth = std::max(max_depth, depth);
    const Node& n = nodes_[static_cast<std::size_t>(node)];
    if (n.feature >= 0) {
      stack.push_back({n.left, depth + 1});
      stack.push_back({n.right, depth + 1});
    }
  }
  return max_depth;
}

void DecisionTreeRegressor::save(ArchiveWriter& archive,
                                 const std::string& prefix) const {
  ESM_REQUIRE(fitted(), "cannot save an unfitted tree");
  // Five parallel columns; ints round-trip exactly as doubles at these
  // magnitudes.
  std::vector<double> feature, threshold, value, left, right;
  feature.reserve(nodes_.size());
  threshold.reserve(nodes_.size());
  value.reserve(nodes_.size());
  left.reserve(nodes_.size());
  right.reserve(nodes_.size());
  for (const Node& n : nodes_) {
    feature.push_back(static_cast<double>(n.feature));
    threshold.push_back(n.threshold);
    value.push_back(n.value);
    left.push_back(static_cast<double>(n.left));
    right.push_back(static_cast<double>(n.right));
  }
  archive.put_doubles(prefix + "feature", feature);
  archive.put_doubles(prefix + "threshold", threshold);
  archive.put_doubles(prefix + "value", value);
  archive.put_doubles(prefix + "left", left);
  archive.put_doubles(prefix + "right", right);
}

DecisionTreeRegressor DecisionTreeRegressor::load(const ArchiveReader& archive,
                                                  const std::string& prefix) {
  const std::vector<double> feature = archive.get_doubles(prefix + "feature");
  const std::vector<double> threshold =
      archive.get_doubles(prefix + "threshold");
  const std::vector<double> value = archive.get_doubles(prefix + "value");
  const std::vector<double> left = archive.get_doubles(prefix + "left");
  const std::vector<double> right = archive.get_doubles(prefix + "right");
  const std::size_t n = feature.size();
  ESM_REQUIRE(n > 0, "tree archive '" << prefix << "' is empty");
  ESM_REQUIRE(threshold.size() == n && value.size() == n &&
                  left.size() == n && right.size() == n,
              "tree archive '" << prefix << "' has mismatched columns");
  DecisionTreeRegressor tree;
  tree.nodes_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    Node& node = tree.nodes_[i];
    node.feature = static_cast<int>(feature[i]);
    node.threshold = threshold[i];
    node.value = value[i];
    node.left = static_cast<int>(left[i]);
    node.right = static_cast<int>(right[i]);
    const bool is_leaf = node.feature < 0;
    ESM_REQUIRE(is_leaf || (node.left >= 0 && node.right >= 0 &&
                            static_cast<std::size_t>(node.left) < n &&
                            static_cast<std::size_t>(node.right) < n),
                "tree archive '" << prefix << "' has dangling child index");
  }
  return tree;
}

}  // namespace esm
