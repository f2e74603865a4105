#include "analysis/outliers.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <numeric>

#include "common/check.h"
#include "common/rng.h"

namespace trap::analysis {

const char* OutlierDetectorName(OutlierDetector d) {
  switch (d) {
    case OutlierDetector::kIsolationForest: return "IsolationForest";
    case OutlierDetector::kLof: return "LOF";
    case OutlierDetector::kOneClass: return "OneClass";
  }
  return "?";
}

namespace {

using Data = std::vector<std::vector<double>>;

double Distance(const std::vector<double>& a, const std::vector<double>& b) {
  double sq = 0.0;
  for (size_t i = 0; i < a.size(); ++i) sq += (a[i] - b[i]) * (a[i] - b[i]);
  return std::sqrt(sq);
}

// --- Isolation Forest -------------------------------------------------------

struct IsoNode {
  int feature = -1;
  double threshold = 0.0;
  int left = -1;
  int right = -1;
  int size = 0;  // leaf sample count
};

// Average unsuccessful-search path length in a BST of n nodes.
double AveragePathLength(int n) {
  if (n <= 1) return 0.0;
  double h = std::log(static_cast<double>(n - 1)) + 0.5772156649;
  return 2.0 * h - 2.0 * (n - 1.0) / n;
}

class IsoTree {
 public:
  void Build(const Data& data, std::vector<int> rows, int max_depth,
             common::Rng& rng) {
    nodes_.clear();
    BuildNode(data, std::move(rows), 0, max_depth, rng);
  }

  double PathLength(const std::vector<double>& x) const {
    int id = 0;
    double depth = 0.0;
    while (nodes_[static_cast<size_t>(id)].feature >= 0) {
      const IsoNode& n = nodes_[static_cast<size_t>(id)];
      id = x[static_cast<size_t>(n.feature)] < n.threshold ? n.left : n.right;
      depth += 1.0;
    }
    return depth + AveragePathLength(nodes_[static_cast<size_t>(id)].size);
  }

 private:
  int BuildNode(const Data& data, std::vector<int> rows, int depth,
                int max_depth, common::Rng& rng) {
    int id = static_cast<int>(nodes_.size());
    nodes_.push_back(IsoNode{});
    nodes_[static_cast<size_t>(id)].size = static_cast<int>(rows.size());
    if (depth >= max_depth || rows.size() <= 1) return id;
    int dim = static_cast<int>(data[0].size());
    // Pick a split feature with spread; give up after a few tries.
    for (int attempt = 0; attempt < 8; ++attempt) {
      int f = static_cast<int>(rng.UniformInt(0, dim - 1));
      double lo = 1e300, hi = -1e300;
      for (int r : rows) {
        lo = std::min(lo, data[static_cast<size_t>(r)][static_cast<size_t>(f)]);
        hi = std::max(hi, data[static_cast<size_t>(r)][static_cast<size_t>(f)]);
      }
      if (hi <= lo) continue;
      double threshold = rng.Uniform(lo, hi);
      std::vector<int> left, right;
      for (int r : rows) {
        if (data[static_cast<size_t>(r)][static_cast<size_t>(f)] < threshold) {
          left.push_back(r);
        } else {
          right.push_back(r);
        }
      }
      if (left.empty() || right.empty()) continue;
      nodes_[static_cast<size_t>(id)].feature = f;
      nodes_[static_cast<size_t>(id)].threshold = threshold;
      int l = BuildNode(data, std::move(left), depth + 1, max_depth, rng);
      nodes_[static_cast<size_t>(id)].left = l;
      int r = BuildNode(data, std::move(right), depth + 1, max_depth, rng);
      nodes_[static_cast<size_t>(id)].right = r;
      return id;
    }
    return id;
  }

  std::vector<IsoNode> nodes_;
};

std::vector<double> IsolationForestScores(const Data& data, uint64_t seed) {
  constexpr int kTrees = 64;
  const int n = static_cast<int>(data.size());
  const int sample = std::min(n, 128);
  const int max_depth =
      static_cast<int>(std::ceil(std::log2(std::max(2, sample))));
  common::Rng rng(seed);
  std::vector<IsoTree> trees(kTrees);
  std::vector<int> all(static_cast<size_t>(n));
  std::iota(all.begin(), all.end(), 0);
  for (IsoTree& t : trees) {
    std::vector<int> rows = all;
    rng.Shuffle(rows);
    rows.resize(static_cast<size_t>(sample));
    t.Build(data, std::move(rows), max_depth, rng);
  }
  std::vector<double> scores(static_cast<size_t>(n));
  double c = AveragePathLength(sample);
  for (int i = 0; i < n; ++i) {
    double mean_path = 0.0;
    for (const IsoTree& t : trees) {
      mean_path += t.PathLength(data[static_cast<size_t>(i)]);
    }
    mean_path /= kTrees;
    scores[static_cast<size_t>(i)] = std::pow(2.0, -mean_path / std::max(1e-9, c));
  }
  return scores;
}

// --- Local Outlier Factor ---------------------------------------------------

std::vector<double> LofScores(const Data& data) {
  const int n = static_cast<int>(data.size());
  const int k = std::max(2, std::min(20, n / 10));
  // k nearest neighbours per point.
  std::vector<std::vector<std::pair<double, int>>> knn(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    std::vector<std::pair<double, int>> dists;
    for (int j = 0; j < n; ++j) {
      if (j == i) continue;
      dists.emplace_back(Distance(data[static_cast<size_t>(i)],
                                  data[static_cast<size_t>(j)]),
                         j);
    }
    std::partial_sort(dists.begin(), dists.begin() + k, dists.end());
    dists.resize(static_cast<size_t>(k));
    knn[static_cast<size_t>(i)] = std::move(dists);
  }
  auto k_distance = [&](int i) {
    return knn[static_cast<size_t>(i)].back().first;
  };
  // Local reachability density.
  std::vector<double> lrd(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    double reach_sum = 0.0;
    for (const auto& [d, j] : knn[static_cast<size_t>(i)]) {
      reach_sum += std::max(d, k_distance(j));
    }
    lrd[static_cast<size_t>(i)] = k / std::max(reach_sum, 1e-12);
  }
  std::vector<double> lof(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    double ratio_sum = 0.0;
    for (const auto& [d, j] : knn[static_cast<size_t>(i)]) {
      (void)d;
      ratio_sum += lrd[static_cast<size_t>(j)] / lrd[static_cast<size_t>(i)];
    }
    lof[static_cast<size_t>(i)] = ratio_sum / k;
  }
  return lof;
}

// --- One-class centroid (OCSVM stand-in) ------------------------------------

std::vector<double> OneClassScores(const Data& data) {
  const int n = static_cast<int>(data.size());
  const int dim = static_cast<int>(data[0].size());
  // Standardize, then score by distance to the centroid.
  std::vector<double> mean(static_cast<size_t>(dim), 0.0);
  std::vector<double> sd(static_cast<size_t>(dim), 0.0);
  for (const auto& row : data) {
    for (int d = 0; d < dim; ++d) mean[static_cast<size_t>(d)] += row[static_cast<size_t>(d)];
  }
  for (double& m : mean) m /= n;
  for (const auto& row : data) {
    for (int d = 0; d < dim; ++d) {
      double diff = row[static_cast<size_t>(d)] - mean[static_cast<size_t>(d)];
      sd[static_cast<size_t>(d)] += diff * diff;
    }
  }
  for (double& s : sd) s = std::sqrt(s / std::max(1, n - 1)) + 1e-9;
  std::vector<double> scores(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    double sq = 0.0;
    for (int d = 0; d < dim; ++d) {
      double z = (data[static_cast<size_t>(i)][static_cast<size_t>(d)] -
                  mean[static_cast<size_t>(d)]) /
                 sd[static_cast<size_t>(d)];
      sq += z * z;
    }
    scores[static_cast<size_t>(i)] = std::sqrt(sq);
  }
  return scores;
}

// Raw anomaly scores (higher = more anomalous).
std::vector<double> AnomalyScores(OutlierDetector detector, const Data& data,
                                  uint64_t seed) {
  TRAP_CHECK(!data.empty());
  switch (detector) {
    case OutlierDetector::kIsolationForest:
      return IsolationForestScores(data, seed);
    case OutlierDetector::kLof:
      return LofScores(data);
    case OutlierDetector::kOneClass:
      return OneClassScores(data);
  }
  return {};
}

}  // namespace

std::vector<bool> DetectOutliers(OutlierDetector detector, const Data& data,
                                 double contamination, uint64_t seed) {
  TRAP_CHECK(contamination > 0.0 && contamination <= 0.5);
  std::vector<double> scores = AnomalyScores(detector, data, seed);
  int n = static_cast<int>(scores.size());
  int flagged = std::max(1, static_cast<int>(std::round(contamination * n)));
  std::vector<int> order(static_cast<size_t>(n));
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(),
            [&](int a, int b) { return scores[static_cast<size_t>(a)] > scores[static_cast<size_t>(b)]; });
  std::vector<bool> out(static_cast<size_t>(n), false);
  for (int i = 0; i < flagged; ++i) out[static_cast<size_t>(order[static_cast<size_t>(i)])] = true;
  return out;
}

}  // namespace trap::analysis
