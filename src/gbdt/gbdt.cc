#include "gbdt/gbdt.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/check.h"
#include "obs/obs.h"

namespace trap::gbdt {

namespace {

using Node = RegressionTree::Node;

// The leaf value x reaches from node `root` of `nodes`.
double Walk(const std::vector<Node>& nodes, int root,
            const std::vector<double>& x) {
  int id = root;
  while (nodes[static_cast<size_t>(id)].feature >= 0) {
    const Node& n = nodes[static_cast<size_t>(id)];
    id = x[static_cast<size_t>(n.feature)] <= n.threshold ? n.left : n.right;
  }
  return nodes[static_cast<size_t>(id)].value;
}

// x transposed: columns[f][row] = x[row][f].
std::vector<std::vector<double>> Transpose(
    const std::vector<std::vector<double>>& x) {
  std::vector<std::vector<double>> columns(x[0].size(),
                                           std::vector<double>(x.size()));
  for (size_t r = 0; r < x.size(); ++r) {
    for (size_t f = 0; f < columns.size(); ++f) columns[f][r] = x[r][f];
  }
  return columns;
}

// Sorts row ids by value, keeping tied rows in their current order.
void StableSortBy(const std::vector<double>& value, std::vector<int>& ids) {
  std::stable_sort(ids.begin(), ids.end(), [&](int a, int b) {
    return value[static_cast<size_t>(a)] < value[static_cast<size_t>(b)];
  });
}

// Grows one tree depth-first, appending its nodes to `nodes` with absolute
// child indices. order[f] holds the tree's row ids sorted by feature f,
// ties in ascending row id, and order[num_features] holds them in ascending
// order. A node owns the same segment [begin, end) of every order column;
// a split stable-partitions every column's segment into its children's.
class Builder {
 public:
  Builder(const std::vector<std::vector<double>>& columns,
          const std::vector<double>& y,
          const RegressionTree::Options& options,
          std::vector<std::vector<int>>& order, std::vector<Node>& nodes)
      : columns_(columns),
        y_(y),
        options_(options),
        order_(order),
        nodes_(nodes),
        goes_left_(columns.empty() ? 0 : columns[0].size()),
        right_(order.back().size()) {}

  int Build(int begin, int end, int depth) {
    TRAP_CHECK(begin < end);
    const int n = end - begin;
    const std::vector<int>& ascending = order_.back();
    double sum = 0.0;
    for (int i = begin; i < end; ++i) {
      sum += y_[static_cast<size_t>(ascending[static_cast<size_t>(i)])];
    }

    const int node_id = static_cast<int>(nodes_.size());
    nodes_.push_back(Node{});
    nodes_[static_cast<size_t>(node_id)].value = sum / static_cast<double>(n);

    if (depth >= options_.max_depth || n < 2 * options_.min_samples_leaf) {
      return node_id;
    }

    // Exact greedy split: scan each feature's segment in value order.
    double best_gain = 1e-12;
    int best_feature = -1;
    double best_threshold = 0.0;
    for (size_t f = 0; f < columns_.size(); ++f) {
      const double* value = columns_[f].data();
      const int* rows = order_[f].data();
      // A feature constant on the node has no threshold to try.
      if (value[rows[begin]] == value[rows[end - 1]]) continue;
      double left_sum = 0.0;
      double right_sum = sum;
      for (int i = begin; i + 1 < end; ++i) {
        const int row = rows[i];
        const double yi = y_[static_cast<size_t>(row)];
        left_sum += yi;
        right_sum -= yi;
        const double xa = value[row];
        const double xb = value[rows[i + 1]];
        if (xa == xb) continue;
        const int nl = i - begin + 1;
        const int nr = n - nl;
        if (nl < options_.min_samples_leaf || nr < options_.min_samples_leaf) {
          continue;
        }
        // Variance reduction: with SSE = sum of squares - sum^2/n per side,
        // and the two sides' sums of squares adding up to the node's, the
        // gain reduces to:
        const double gain = left_sum * left_sum / nl +
                            right_sum * right_sum / nr -
                            sum * sum / static_cast<double>(n);
        if (gain > best_gain) {
          best_gain = gain;
          best_feature = static_cast<int>(f);
          best_threshold = 0.5 * (xa + xb);
        }
      }
    }

    if (best_feature < 0) return node_id;

    const std::vector<double>& split = columns_[static_cast<size_t>(best_feature)];
    int num_left = 0;
    for (int i = begin; i < end; ++i) {
      const size_t row = static_cast<size_t>(ascending[static_cast<size_t>(i)]);
      goes_left_[row] = split[row] <= best_threshold;
      num_left += goes_left_[row];
    }
    if (num_left == 0 || num_left == n) return node_id;
    for (std::vector<int>& column : order_) Partition(column, begin, end);

    nodes_[static_cast<size_t>(node_id)].feature = best_feature;
    nodes_[static_cast<size_t>(node_id)].threshold = best_threshold;
    const int left = Build(begin, begin + num_left, depth + 1);
    nodes_[static_cast<size_t>(node_id)].left = left;
    const int right = Build(begin + num_left, end, depth + 1);
    nodes_[static_cast<size_t>(node_id)].right = right;
    return node_id;
  }

 private:
  // Moves the segment's left rows to its front and its right rows behind
  // them, each side in its current order.
  void Partition(std::vector<int>& column, int begin, int end) {
    int* ids = column.data();
    int left = begin;
    int right = 0;
    for (int i = begin; i < end; ++i) {
      // Branch-free: the row is written to both sides and only one side's
      // cursor moves. ids[left] is at or before i, so it was already read.
      const int row = ids[i];
      const int to_left = goes_left_[static_cast<size_t>(row)];
      ids[left] = row;
      right_[static_cast<size_t>(right)] = row;
      left += to_left;
      right += 1 - to_left;
    }
    std::copy(right_.begin(), right_.begin() + right, ids + left);
  }

  const std::vector<std::vector<double>>& columns_;
  const std::vector<double>& y_;
  const RegressionTree::Options& options_;
  std::vector<std::vector<int>>& order_;
  std::vector<Node>& nodes_;
  std::vector<char> goes_left_;  // by row id, for the node being split
  std::vector<int> right_;       // Partition's right side
};

}  // namespace

void RegressionTree::Fit(const std::vector<std::vector<double>>& x,
                         const std::vector<double>& y,
                         const std::vector<int>& rows,
                         const Options& options) {
  TRAP_CHECK(!x.empty());
  nodes_.clear();
  const std::vector<std::vector<double>> columns = Transpose(x);
  std::vector<int> ascending = rows;
  std::sort(ascending.begin(), ascending.end());
  std::vector<std::vector<int>> order(columns.size() + 1, ascending);
  for (size_t f = 0; f < columns.size(); ++f) StableSortBy(columns[f], order[f]);
  Builder(columns, y, options, order, nodes_)
      .Build(0, static_cast<int>(ascending.size()), 0);
}

double RegressionTree::Predict(const std::vector<double>& x) const {
  TRAP_CHECK(!nodes_.empty());
  return Walk(nodes_, 0, x);
}

GbdtRegressor::GbdtRegressor() : GbdtRegressor(Options()) {}

GbdtRegressor::GbdtRegressor(Options options) : options_(options) {}

void GbdtRegressor::Fit(const std::vector<std::vector<double>>& x,
                        const std::vector<double>& y) {
  TRAP_CHECK(!x.empty());
  TRAP_CHECK(x.size() == y.size());
  nodes_.clear();
  roots_.clear();
  base_prediction_ =
      std::accumulate(y.begin(), y.end(), 0.0) / static_cast<double>(y.size());
  std::vector<double> residual(y.size());
  std::vector<double> current(y.size(), base_prediction_);
  common::Rng rng(options_.seed);

  RegressionTree::Options tree_options;
  tree_options.max_depth = options_.max_depth;
  tree_options.min_samples_leaf = options_.min_samples_leaf;

  // Every feature is sorted once per fit; each tree keeps the sampled rows
  // of these orders, plus its rows in ascending order.
  const std::vector<std::vector<double>> columns = Transpose(x);
  std::vector<int> all_rows(y.size());
  std::iota(all_rows.begin(), all_rows.end(), 0);
  std::vector<std::vector<int>> sorted(columns.size(), all_rows);
  for (size_t f = 0; f < columns.size(); ++f) StableSortBy(columns[f], sorted[f]);
  std::vector<std::vector<int>> order(columns.size() + 1);
  std::vector<char> in_tree(y.size());

  for (int t = 0; t < options_.num_trees; ++t) {
    for (size_t i = 0; i < y.size(); ++i) residual[i] = y[i] - current[i];
    // Row subsampling (stochastic gradient boosting).
    std::vector<int>& rows = order.back();
    rows.clear();
    for (size_t i = 0; i < y.size(); ++i) {
      if (options_.subsample >= 1.0 || rng.Bernoulli(options_.subsample)) {
        rows.push_back(static_cast<int>(i));
      }
    }
    if (static_cast<int>(rows.size()) < 2 * options_.min_samples_leaf) {
      // Too few to split: fit this tree on every row, once each.
      rows = all_rows;
    }
    std::fill(in_tree.begin(), in_tree.end(), 0);
    for (int r : rows) in_tree[static_cast<size_t>(r)] = 1;
    for (size_t f = 0; f < columns.size(); ++f) {
      // Branch-free filter: every row is written, only kept ones advance.
      order[f].resize(y.size());
      size_t kept = 0;
      for (int r : sorted[f]) {
        order[f][kept] = r;
        kept += static_cast<size_t>(in_tree[static_cast<size_t>(r)]);
      }
      order[f].resize(kept);
    }
    obs::MetricRegistry::Global().counter("trap.gbdt.trees")->Add();
    const int root = static_cast<int>(nodes_.size());
    roots_.push_back(root);
    Builder(columns, residual, tree_options, order, nodes_)
        .Build(0, static_cast<int>(rows.size()), 0);
    obs::MetricRegistry::Global().counter("trap.gbdt.nodes")->Add(
        static_cast<int64_t>(nodes_.size()) - root);
    for (size_t i = 0; i < y.size(); ++i) {
      current[i] += options_.learning_rate * Walk(nodes_, root, x[i]);
    }
  }
  trained_ = true;
}

double GbdtRegressor::Predict(const std::vector<double>& x) const {
  TRAP_CHECK(trained_);
  double out = base_prediction_;
  for (int root : roots_) {
    out += options_.learning_rate * Walk(nodes_, root, x);
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
