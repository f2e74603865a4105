#include "gbdt/gbdt.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <utility>

#include "common/check.h"
#include "obs/obs.h"

namespace trap::gbdt {

void RegressionTree::Fit(const std::vector<std::vector<double>>& x,
                         const std::vector<double>& y,
                         const std::vector<int>& rows,
                         const Options& options) {
  nodes_.clear();
  std::vector<int> working = rows;
  Build(x, y, working, 0, options);
}

int RegressionTree::Build(const std::vector<std::vector<double>>& x,
                          const std::vector<double>& y,
                          std::vector<int>& rows, int depth,
                          const Options& options) {
  TRAP_CHECK(!rows.empty());
  double sum = 0.0;
  for (int r : rows) sum += y[static_cast<size_t>(r)];
  double mean = sum / static_cast<double>(rows.size());

  int node_id = static_cast<int>(nodes_.size());
  nodes_.push_back(Node{});
  nodes_[static_cast<size_t>(node_id)].value = mean;

  if (depth >= options.max_depth ||
      static_cast<int>(rows.size()) < 2 * options.min_samples_leaf) {
    return node_id;
  }

  // Exact greedy split: for each feature, sort rows and scan thresholds.
  int num_features = static_cast<int>(x[0].size());
  double best_gain = 1e-12;
  int best_feature = -1;
  double best_threshold = 0.0;

  // Each feature sorts (value, row) pairs by value, starting from the
  // previous feature's order: the comparisons, and so std::sort's
  // permutation, are those of sorting row ids through x[row][f].
  std::vector<std::pair<double, int>> sorted;
  sorted.reserve(rows.size());
  for (int r : rows) sorted.emplace_back(0.0, r);
  for (int f = 0; f < num_features; ++f) {
    for (auto& [value, row] : sorted) {
      value = x[static_cast<size_t>(row)][static_cast<size_t>(f)];
    }
    std::sort(sorted.begin(), sorted.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    double left_sum = 0.0;
    double right_sum = sum;
    for (size_t i = 0; i + 1 < sorted.size(); ++i) {
      double yi = y[static_cast<size_t>(sorted[i].second)];
      left_sum += yi;
      right_sum -= yi;
      double xa = sorted[i].first;
      double xb = sorted[i + 1].first;
      if (xa == xb) continue;
      int nl = static_cast<int>(i) + 1;
      int nr = static_cast<int>(sorted.size()) - nl;
      if (nl < options.min_samples_leaf || nr < options.min_samples_leaf) {
        continue;
      }
      // Variance reduction: with SSE = sum of squares - sum^2/n per side,
      // and the two sides' sums of squares adding up to the node's, the
      // gain reduces to:
      double gain = left_sum * left_sum / nl + right_sum * right_sum / nr -
                    sum * sum / static_cast<double>(sorted.size());
      if (gain > best_gain) {
        best_gain = gain;
        best_feature = f;
        best_threshold = 0.5 * (xa + xb);
      }
    }
  }

  if (best_feature < 0) return node_id;

  std::vector<int> left_rows, right_rows;
  for (int r : rows) {
    if (x[static_cast<size_t>(r)][static_cast<size_t>(best_feature)] <=
        best_threshold) {
      left_rows.push_back(r);
    } else {
      right_rows.push_back(r);
    }
  }
  if (left_rows.empty() || right_rows.empty()) return node_id;

  nodes_[static_cast<size_t>(node_id)].feature = best_feature;
  nodes_[static_cast<size_t>(node_id)].threshold = best_threshold;
  int left = Build(x, y, left_rows, depth + 1, options);
  nodes_[static_cast<size_t>(node_id)].left = left;
  int right = Build(x, y, right_rows, depth + 1, options);
  nodes_[static_cast<size_t>(node_id)].right = right;
  return node_id;
}

double RegressionTree::Predict(const std::vector<double>& x) const {
  TRAP_CHECK(!nodes_.empty());
  int id = 0;
  while (nodes_[static_cast<size_t>(id)].feature >= 0) {
    const Node& n = nodes_[static_cast<size_t>(id)];
    id = x[static_cast<size_t>(n.feature)] <= n.threshold ? n.left : n.right;
  }
  return nodes_[static_cast<size_t>(id)].value;
}

GbdtRegressor::GbdtRegressor() : GbdtRegressor(Options()) {}

GbdtRegressor::GbdtRegressor(Options options) : options_(options) {}

void GbdtRegressor::Fit(const std::vector<std::vector<double>>& x,
                        const std::vector<double>& y) {
  TRAP_CHECK(!x.empty());
  TRAP_CHECK(x.size() == y.size());
  trees_.clear();
  base_prediction_ =
      std::accumulate(y.begin(), y.end(), 0.0) / static_cast<double>(y.size());
  std::vector<double> residual(y.size());
  std::vector<double> current(y.size(), base_prediction_);
  common::Rng rng(options_.seed);

  RegressionTree::Options tree_options;
  tree_options.max_depth = options_.max_depth;
  tree_options.min_samples_leaf = options_.min_samples_leaf;

  for (int t = 0; t < options_.num_trees; ++t) {
    for (size_t i = 0; i < y.size(); ++i) residual[i] = y[i] - current[i];
    // Row subsampling (stochastic gradient boosting).
    std::vector<int> rows;
    for (size_t i = 0; i < y.size(); ++i) {
      if (options_.subsample >= 1.0 || rng.Bernoulli(options_.subsample)) {
        rows.push_back(static_cast<int>(i));
      }
    }
    if (static_cast<int>(rows.size()) < 2 * options_.min_samples_leaf) {
      // Too few to split: fit this tree on every row, once each.
      rows.resize(y.size());
      std::iota(rows.begin(), rows.end(), 0);
    }
    obs::MetricRegistry::Global().counter("trap.gbdt.trees")->Add();
    RegressionTree tree;
    tree.Fit(x, residual, rows, tree_options);
    for (size_t i = 0; i < y.size(); ++i) {
      current[i] += options_.learning_rate * tree.Predict(x[i]);
    }
    trees_.push_back(std::move(tree));
  }
  trained_ = true;
}

double GbdtRegressor::Predict(const std::vector<double>& x) const {
  TRAP_CHECK(trained_);
  double out = base_prediction_;
  for (const RegressionTree& t : trees_) {
    out += options_.learning_rate * t.Predict(x);
  }
  return out;
}

double GbdtRegressor::RSquared(const std::vector<std::vector<double>>& x,
                               const std::vector<double>& y) const {
  TRAP_CHECK(x.size() == y.size() && !y.empty());
  double mean =
      std::accumulate(y.begin(), y.end(), 0.0) / static_cast<double>(y.size());
  double ss_res = 0.0, ss_tot = 0.0;
  for (size_t i = 0; i < y.size(); ++i) {
    double pred = Predict(x[i]);
    ss_res += (y[i] - pred) * (y[i] - pred);
    ss_tot += (y[i] - mean) * (y[i] - mean);
  }
  if (ss_tot <= 0.0) return ss_res <= 1e-12 ? 1.0 : 0.0;
  return 1.0 - ss_res / ss_tot;
}

}  // namespace trap::gbdt
