#ifndef TRAP_TESTING_GBDT_EQUIVALENCE_H_
#define TRAP_TESTING_GBDT_EQUIVALENCE_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "gbdt/gbdt.h"

namespace trap::proptest {

// The exact greedy split search written the plain way, as the reference
// gbdt::RegressionTree is held to: at every node, every feature
// stable-sorts the node's row ids, kept in ascending order, by value, and
// scans each threshold between two distinct values. Rows with equal values
// are thus added in ascending row id order.
class ReferenceRegressionTree {
 public:
  void Fit(const std::vector<std::vector<double>>& x,
           const std::vector<double>& y, std::vector<int> rows,
           const gbdt::RegressionTree::Options& options);

  double Predict(const std::vector<double>& x) const;

  int num_nodes() const { return static_cast<int>(nodes_.size()); }

 private:
  int Build(const std::vector<std::vector<double>>& x,
            const std::vector<double>& y, const std::vector<int>& rows,
            int depth, const gbdt::RegressionTree::Options& options);

  std::vector<gbdt::RegressionTree::Node> nodes_;
};

// gbdt::GbdtRegressor's boosting loop over ReferenceRegressionTree, one tree
// object per round: the same residuals, Bernoulli row draws, too-few-rows
// fallback and shrinkage.
class ReferenceGbdtRegressor {
 public:
  explicit ReferenceGbdtRegressor(gbdt::GbdtRegressor::Options options)
      : options_(options) {}

  void Fit(const std::vector<std::vector<double>>& x,
           const std::vector<double>& y);

  double Predict(const std::vector<double>& x) const;

  int num_trees() const { return static_cast<int>(trees_.size()); }

 private:
  gbdt::GbdtRegressor::Options options_;
  double base_prediction_ = 0.0;
  std::vector<ReferenceRegressionTree> trees_;
};

// The gbdt-split-equivalence property. Draws tie-heavy data from `seed`:
// rows in pairs that share a label, two mirror-image 0/1 flag features
// whose splits have the same exact gain (so the order in which tied rows
// are summed decides between them), and features over a small level set
// with both signed zeros. Fits a gbdt::RegressionTree and a
// ReferenceRegressionTree on a shuffled row subset, then a subsampled
// gbdt::GbdtRegressor and a ReferenceGbdtRegressor of `trees` trees (none
// when 0) on every row; node and tree counts must agree, and every row's
// prediction bit for bit. Returns the first mismatch, or nullopt.
std::optional<std::string> CheckGbdtSplitEquivalence(uint64_t seed, int trees);

}  // namespace trap::proptest

#endif  // TRAP_TESTING_GBDT_EQUIVALENCE_H_
