#ifndef TRAP_GBDT_GBDT_H_
#define TRAP_GBDT_GBDT_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/rng.h"

namespace trap::gbdt {

// A binary regression tree fit with exact greedy SSE splits on presorted
// feature columns: each feature's rows are stable-sorted by value once, so
// rows with equal values stay in ascending row id order, and every node
// scans its rows in that order along every feature, trying each threshold
// between two distinct values.
class RegressionTree {
 public:
  struct Options {
    int max_depth = 6;
    int min_samples_leaf = 4;
  };

  // One node; children are indices into the same node array.
  struct Node {
    int feature = -1;       // -1 = leaf
    double threshold = 0.0; // go left if x[feature] <= threshold
    double value = 0.0;     // leaf prediction
    int left = -1;
    int right = -1;
  };

  // Fits on rows X[i] (all the same length) against residuals y[i],
  // restricted to `rows`, which are taken in ascending order.
  void Fit(const std::vector<std::vector<double>>& x,
           const std::vector<double>& y, const std::vector<int>& rows,
           const Options& options);

  double Predict(const std::vector<double>& x) const;

  int num_nodes() const { return static_cast<int>(nodes_.size()); }

 private:
  std::vector<Node> nodes_;
};

// Gradient-boosted regression trees with least-squares loss, shrinkage and
// row subsampling — a compact stand-in for LightGBM, trained exactly as the
// paper trains its learned index utility model: feature normalization is
// unnecessary for trees, labels are log-transformed by the caller, and MSE
// is minimized.
class GbdtRegressor {
 public:
  struct Options {
    int num_trees = 200;
    double learning_rate = 0.1;
    int max_depth = 6;
    int min_samples_leaf = 4;
    double subsample = 0.8;
    uint64_t seed = 42;
  };

  GbdtRegressor();
  explicit GbdtRegressor(Options options);

  void Fit(const std::vector<std::vector<double>>& x,
           const std::vector<double>& y);

  double Predict(const std::vector<double>& x) const;

  // R^2 on a held-out set (diagnostic).
  double RSquared(const std::vector<std::vector<double>>& x,
                  const std::vector<double>& y) const;

  bool trained() const { return trained_; }
  int num_trees() const { return static_cast<int>(roots_.size()); }

 private:
  Options options_;
  double base_prediction_ = 0.0;
  // Every tree's nodes in one array, in fit order; roots_[t] is tree t's
  // root and its children are absolute indices into nodes_.
  std::vector<RegressionTree::Node> nodes_;
  std::vector<int> roots_;
  bool trained_ = false;
};

}  // namespace trap::gbdt

#endif  // TRAP_GBDT_GBDT_H_
