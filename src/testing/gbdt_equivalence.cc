#include "testing/gbdt_equivalence.h"

#include <algorithm>
#include <cstring>
#include <numeric>
#include <utility>

#include "common/rng.h"
#include "common/string_util.h"

namespace trap::proptest {

namespace {

using Node = gbdt::RegressionTree::Node;

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

struct Data {
  std::vector<std::vector<double>> x;
  std::vector<double> y;
};

// Rows in pairs that share a label. Features 0 and 1 flag mirror-image
// halves of the same pairs, so a split on either has the same exact gain;
// the rest take values from a small level set, both zeros included. Labels
// come from a small set half the time, so residuals tie too.
Data TieHeavyData(common::Rng& rng) {
  static const double kLevels[] = {-1.0, -0.0, 0.0, 0.5, 2.0, 3.0};
  const int pairs = static_cast<int>(rng.UniformInt(2, 60));
  const int features = static_cast<int>(rng.UniformInt(2, 6));
  const bool level_labels = rng.Bernoulli(0.5);
  Data d;
  for (int p = 0; p < pairs; ++p) {
    const double label = level_labels
                             ? kLevels[rng.UniformInt(0, 5)]
                             : rng.Gaussian();
    const double flag = rng.Bernoulli(0.5) ? 1.0 : 0.0;
    d.x.push_back({flag, 0.0});
    d.x.push_back({0.0, flag});
    for (int f = 2; f < features; ++f) {
      d.x[d.x.size() - 2].push_back(kLevels[rng.UniformInt(0, 5)]);
      d.x[d.x.size() - 1].push_back(kLevels[rng.UniformInt(0, 5)]);
    }
    d.y.push_back(label);
    d.y.push_back(label);
  }
  return d;
}

// Every row's prediction of `fast` and `ref`, compared bit for bit.
template <typename Fast, typename Ref>
std::optional<std::string> ComparePredictions(const Fast& fast, const Ref& ref,
                                              const Data& d, const char* what) {
  for (size_t r = 0; r < d.x.size(); ++r) {
    const double a = fast.Predict(d.x[r]);
    const double b = ref.Predict(d.x[r]);
    if (!SameBits(a, b)) {
      return common::StrFormat("%s row %zu: %.17g, reference %.17g", what, r,
                               a, b);
    }
  }
  return std::nullopt;
}

}  // namespace

void ReferenceRegressionTree::Fit(const std::vector<std::vector<double>>& x,
                                  const std::vector<double>& y,
                                  std::vector<int> rows,
                                  const gbdt::RegressionTree::Options& options) {
  nodes_.clear();
  std::sort(rows.begin(), rows.end());
  Build(x, y, rows, 0, options);
}

double ReferenceRegressionTree::Predict(const std::vector<double>& x) const {
  int id = 0;
  while (nodes_[static_cast<size_t>(id)].feature >= 0) {
    const Node& n = nodes_[static_cast<size_t>(id)];
    id = x[static_cast<size_t>(n.feature)] <= n.threshold ? n.left : n.right;
  }
  return nodes_[static_cast<size_t>(id)].value;
}

int ReferenceRegressionTree::Build(
    const std::vector<std::vector<double>>& x, const std::vector<double>& y,
    const std::vector<int>& rows, int depth,
    const gbdt::RegressionTree::Options& options) {
  double sum = 0.0;
  for (int r : rows) sum += y[static_cast<size_t>(r)];
  const int id = static_cast<int>(nodes_.size());
  nodes_.push_back(Node{});
  nodes_.back().value = sum / static_cast<double>(rows.size());
  if (depth >= options.max_depth ||
      static_cast<int>(rows.size()) < 2 * options.min_samples_leaf) {
    return id;
  }
  double best_gain = 1e-12;
  int best_feature = -1;
  double best_threshold = 0.0;
  for (size_t f = 0; f < x[0].size(); ++f) {
    std::vector<int> sorted = rows;
    std::stable_sort(sorted.begin(), sorted.end(), [&](int a, int b) {
      return x[static_cast<size_t>(a)][f] < x[static_cast<size_t>(b)][f];
    });
    double left_sum = 0.0;
    double right_sum = sum;
    for (size_t i = 0; i + 1 < sorted.size(); ++i) {
      double yi = y[static_cast<size_t>(sorted[i])];
      left_sum += yi;
      right_sum -= yi;
      double xa = x[static_cast<size_t>(sorted[i])][f];
      double xb = x[static_cast<size_t>(sorted[i + 1])][f];
      if (xa == xb) continue;
      int nl = static_cast<int>(i) + 1;
      int nr = static_cast<int>(sorted.size()) - nl;
      if (nl < options.min_samples_leaf || nr < options.min_samples_leaf) {
        continue;
      }
      double gain = left_sum * left_sum / nl + right_sum * right_sum / nr -
                    sum * sum / static_cast<double>(sorted.size());
      if (gain > best_gain) {
        best_gain = gain;
        best_feature = static_cast<int>(f);
        best_threshold = 0.5 * (xa + xb);
      }
    }
  }
  if (best_feature < 0) return id;
  std::vector<int> left_rows, right_rows;
  for (int r : rows) {
    if (x[static_cast<size_t>(r)][static_cast<size_t>(best_feature)] <=
        best_threshold) {
      left_rows.push_back(r);
    } else {
      right_rows.push_back(r);
    }
  }
  if (left_rows.empty() || right_rows.empty()) return id;
  nodes_[static_cast<size_t>(id)].feature = best_feature;
  nodes_[static_cast<size_t>(id)].threshold = best_threshold;
  int left = Build(x, y, left_rows, depth + 1, options);
  nodes_[static_cast<size_t>(id)].left = left;
  int right = Build(x, y, right_rows, depth + 1, options);
  nodes_[static_cast<size_t>(id)].right = right;
  return id;
}

void ReferenceGbdtRegressor::Fit(const std::vector<std::vector<double>>& x,
                                 const std::vector<double>& y) {
  trees_.clear();
  base_prediction_ =
      std::accumulate(y.begin(), y.end(), 0.0) / static_cast<double>(y.size());
  std::vector<double> residual(y.size());
  std::vector<double> current(y.size(), base_prediction_);
  common::Rng rng(options_.seed);
  gbdt::RegressionTree::Options tree_options;
  tree_options.max_depth = options_.max_depth;
  tree_options.min_samples_leaf = options_.min_samples_leaf;
  for (int t = 0; t < options_.num_trees; ++t) {
    for (size_t i = 0; i < y.size(); ++i) residual[i] = y[i] - current[i];
    std::vector<int> rows;
    for (size_t i = 0; i < y.size(); ++i) {
      if (options_.subsample >= 1.0 || rng.Bernoulli(options_.subsample)) {
        rows.push_back(static_cast<int>(i));
      }
    }
    if (static_cast<int>(rows.size()) < 2 * options_.min_samples_leaf) {
      rows.resize(y.size());
      std::iota(rows.begin(), rows.end(), 0);
    }
    ReferenceRegressionTree tree;
    tree.Fit(x, residual, rows, tree_options);
    for (size_t i = 0; i < y.size(); ++i) {
      current[i] += options_.learning_rate * tree.Predict(x[i]);
    }
    trees_.push_back(std::move(tree));
  }
}

double ReferenceGbdtRegressor::Predict(const std::vector<double>& x) const {
  double out = base_prediction_;
  for (const ReferenceRegressionTree& t : trees_) {
    out += options_.learning_rate * t.Predict(x);
  }
  return out;
}

std::optional<std::string> CheckGbdtSplitEquivalence(uint64_t seed,
                                                     int trees) {
  common::Rng rng(seed);
  const Data d = TieHeavyData(rng);
  const int n = static_cast<int>(d.y.size());

  gbdt::RegressionTree::Options tree_options;
  tree_options.max_depth = static_cast<int>(rng.UniformInt(1, 7));
  tree_options.min_samples_leaf = static_cast<int>(rng.UniformInt(1, 5));
  std::vector<int> rows;
  for (int r = 0; r < n; ++r) {
    if (rng.Bernoulli(0.75)) rows.push_back(r);
  }
  if (rows.empty()) rows.push_back(0);
  rng.Shuffle(rows);
  gbdt::RegressionTree tree;
  tree.Fit(d.x, d.y, rows, tree_options);
  ReferenceRegressionTree ref_tree;
  ref_tree.Fit(d.x, d.y, rows, tree_options);
  if (tree.num_nodes() != ref_tree.num_nodes()) {
    return common::StrFormat("tree: %d nodes, reference %d", tree.num_nodes(),
                             ref_tree.num_nodes());
  }
  if (auto diff = ComparePredictions(tree, ref_tree, d, "tree")) return diff;

  if (trees <= 0) return std::nullopt;
  gbdt::GbdtRegressor::Options options;
  options.num_trees = trees;
  options.learning_rate = rng.Uniform(0.05, 0.5);
  options.max_depth = static_cast<int>(rng.UniformInt(1, 6));
  options.min_samples_leaf = static_cast<int>(rng.UniformInt(1, 5));
  options.subsample = rng.Uniform(0.3, 1.0);
  options.seed = rng.engine()();
  gbdt::GbdtRegressor model(options);
  model.Fit(d.x, d.y);
  ReferenceGbdtRegressor ref_model(options);
  ref_model.Fit(d.x, d.y);
  if (model.num_trees() != ref_model.num_trees()) {
    return common::StrFormat("ensemble: %d trees, reference %d",
                             model.num_trees(), ref_model.num_trees());
  }
  return ComparePredictions(model, ref_model, d, "ensemble");
}

}  // namespace trap::proptest
