#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>

#include "catalog/datasets.h"
#include "gbdt/features.h"
#include "gbdt/gbdt.h"
#include "gbdt/utility_model.h"
#include "workload/generator.h"

namespace trap::gbdt {
namespace {

TEST(RegressionTreeTest, FitsPiecewiseConstant) {
  // y = 1 for x < 0, y = 5 for x >= 0.
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  std::vector<int> rows;
  for (int i = 0; i < 100; ++i) {
    double v = (i - 50) / 10.0;
    x.push_back({v});
    y.push_back(v < 0 ? 1.0 : 5.0);
    rows.push_back(i);
  }
  RegressionTree tree;
  RegressionTree::Options opt;
  opt.max_depth = 2;
  tree.Fit(x, y, rows, opt);
  EXPECT_NEAR(tree.Predict({-2.0}), 1.0, 1e-9);
  EXPECT_NEAR(tree.Predict({2.0}), 5.0, 1e-9);
}

TEST(RegressionTreeTest, RespectsMinSamplesLeaf) {
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  std::vector<int> rows;
  for (int i = 0; i < 8; ++i) {
    x.push_back({static_cast<double>(i)});
    y.push_back(static_cast<double>(i));
    rows.push_back(i);
  }
  RegressionTree tree;
  RegressionTree::Options opt;
  opt.max_depth = 10;
  opt.min_samples_leaf = 8;  // can never split
  tree.Fit(x, y, rows, opt);
  EXPECT_EQ(tree.num_nodes(), 1);
  EXPECT_NEAR(tree.Predict({0.0}), 3.5, 1e-9);
}

TEST(GbdtTest, LearnsNonlinearFunction) {
  common::Rng rng(3);
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  for (int i = 0; i < 600; ++i) {
    double a = rng.Uniform(-2, 2);
    double b = rng.Uniform(-2, 2);
    x.push_back({a, b});
    y.push_back(a * a + 3.0 * (b > 0 ? 1.0 : 0.0) + 0.5 * a * b);
  }
  std::vector<std::vector<double>> test_x(x.begin() + 500, x.end());
  std::vector<double> test_y(y.begin() + 500, y.end());
  x.resize(500);
  y.resize(500);
  GbdtRegressor::Options opt;
  opt.num_trees = 80;
  GbdtRegressor model(opt);
  model.Fit(x, y);
  EXPECT_GT(model.RSquared(test_x, test_y), 0.85);
}

TEST(GbdtTest, DeterministicForSeed) {
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  common::Rng rng(5);
  for (int i = 0; i < 100; ++i) {
    double a = rng.Uniform(-1, 1);
    x.push_back({a});
    y.push_back(std::sin(3 * a));
  }
  GbdtRegressor m1;
  m1.Fit(x, y);
  GbdtRegressor m2;
  m2.Fit(x, y);
  EXPECT_EQ(m1.Predict({0.3}), m2.Predict({0.3}));
}

// The exact greedy split search as it was before the keyed sort: row ids
// sorted through x[row][f], the order carried from feature to feature. A
// test-local copy, so the differential test below pins the rewrite to it.
class ReferenceTree {
 public:
  void Fit(const std::vector<std::vector<double>>& x,
           const std::vector<double>& y, std::vector<int> rows,
           const RegressionTree::Options& options) {
    nodes_.clear();
    Build(x, y, rows, 0, options);
  }

  double Predict(const std::vector<double>& x) const {
    int id = 0;
    while (nodes_[static_cast<size_t>(id)].feature >= 0) {
      const Node& n = nodes_[static_cast<size_t>(id)];
      id = x[static_cast<size_t>(n.feature)] <= n.threshold ? n.left : n.right;
    }
    return nodes_[static_cast<size_t>(id)].value;
  }

  int num_nodes() const { return static_cast<int>(nodes_.size()); }

 private:
  struct Node {
    int feature = -1;
    double threshold = 0.0;
    double value = 0.0;
    int left = -1;
    int right = -1;
  };

  int Build(const std::vector<std::vector<double>>& x,
            const std::vector<double>& y, const std::vector<int>& rows,
            int depth, const RegressionTree::Options& options) {
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
    std::vector<int> sorted = rows;
    for (size_t f = 0; f < x[0].size(); ++f) {
      std::sort(sorted.begin(), sorted.end(), [&](int a, int b) {
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

  std::vector<Node> nodes_;
};

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

// Tie-heavy data, compared bit for bit. Rows come in pairs that share a
// label, and features 0 and 1 flag mirror-image halves of the same pairs,
// so splits on either feature have the same exact gain: which one wins is
// decided by the rounding of the prefix sums, that is by the order in
// which tied rows are added. The other features take values from a
// five-element set. (A stable sort, for one, fails this test.)
TEST(RegressionTreeTest, KeyedSortMatchesReferenceSplitSearchBitwise) {
  const double kLevels[] = {-1.0, 0.0, 0.5, 2.0, 3.0};
  for (uint64_t seed = 1; seed <= 200; ++seed) {
    common::Rng rng(seed);
    const int pairs = 20 + static_cast<int>(rng.UniformInt(0, 80));
    const int features = 2 + static_cast<int>(rng.UniformInt(0, 3));
    std::vector<std::vector<double>> x;
    std::vector<double> y;
    for (int p = 0; p < pairs; ++p) {
      const double label = rng.Gaussian();
      const double flag = rng.Bernoulli(0.5) ? 1.0 : 0.0;
      x.push_back({flag, 0.0});
      x.push_back({0.0, flag});
      for (int f = 2; f < features; ++f) {
        x[x.size() - 2].push_back(kLevels[rng.UniformInt(0, 4)]);
        x[x.size() - 1].push_back(kLevels[rng.UniformInt(0, 4)]);
      }
      y.push_back(label);
      y.push_back(label);
    }
    const int n = 2 * pairs;
    std::vector<int> rows(static_cast<size_t>(n));
    std::iota(rows.begin(), rows.end(), 0);
    RegressionTree::Options opt;
    opt.max_depth = 1 + static_cast<int>(rng.UniformInt(0, 6));
    opt.min_samples_leaf = 1 + static_cast<int>(rng.UniformInt(0, 4));
    RegressionTree tree;
    tree.Fit(x, y, rows, opt);
    ReferenceTree ref;
    ref.Fit(x, y, rows, opt);
    ASSERT_EQ(tree.num_nodes(), ref.num_nodes()) << "seed " << seed;
    for (int r = 0; r < n; ++r) {
      EXPECT_TRUE(SameBits(tree.Predict(x[static_cast<size_t>(r)]),
                           ref.Predict(x[static_cast<size_t>(r)])))
          << "seed " << seed << " row " << r;
    }
  }
}

// When the row sample is too small to split, the tree falls back to every
// row exactly once, so it fits what subsample = 1.0 fits.
TEST(GbdtTest, SubsampleFallbackUsesEveryRowOnce) {
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  common::Rng rng(17);
  for (int i = 0; i < 7; ++i) {
    x.push_back({static_cast<double>(i)});
    y.push_back(rng.Gaussian());
  }
  GbdtRegressor::Options opt;
  opt.num_trees = 20;
  opt.min_samples_leaf = 4;
  opt.subsample = 1.0;
  GbdtRegressor full(opt);
  full.Fit(x, y);
  opt.subsample = 0.5;
  GbdtRegressor sampled(opt);
  sampled.Fit(x, y);
  for (const std::vector<double>& row : x) {
    EXPECT_TRUE(SameBits(sampled.Predict(row), full.Predict(row)));
  }
}

class PlanFeatureTest : public ::testing::Test {
 protected:
  PlanFeatureTest()
      : schema_(catalog::MakeTpcH()), vocab_(schema_, 8),
        optimizer_(schema_), truth_(schema_) {}

  catalog::Schema schema_;
  sql::Vocabulary vocab_;
  engine::WhatIfOptimizer optimizer_;
  engine::TrueCostModel truth_;
};

TEST_F(PlanFeatureTest, FeatureVectorShapeAndNonNegativity) {
  workload::QueryGenerator gen(vocab_, workload::GeneratorOptions{}, 7);
  engine::IndexConfig none;
  for (int i = 0; i < 50; ++i) {
    sql::Query q = gen.Generate();
    std::unique_ptr<engine::PlanNode> plan = optimizer_.Plan(q, none);
    std::vector<double> f = ExtractPlanFeatures(*plan);
    ASSERT_EQ(static_cast<int>(f.size()), kPlanFeatureDim);
    for (double v : f) EXPECT_GE(v, 0.0);
  }
}

TEST_F(PlanFeatureTest, FeaturesReflectNodeTypes) {
  workload::QueryGenerator gen(vocab_, workload::GeneratorOptions{}, 11);
  engine::IndexConfig none;
  sql::Query q = gen.Generate();
  std::unique_ptr<engine::PlanNode> plan = optimizer_.Plan(q, none);
  std::vector<const engine::PlanNode*> nodes;
  engine::CollectNodes(*plan, &nodes);
  std::vector<double> f = ExtractPlanFeatures(*plan);
  // Cost-Sum channel is positive exactly for node types present.
  std::vector<bool> present(engine::kNumPlanNodeTypes, false);
  for (const engine::PlanNode* n : nodes) {
    present[static_cast<size_t>(static_cast<int>(n->type))] = true;
  }
  for (int t = 0; t < engine::kNumPlanNodeTypes; ++t) {
    if (present[static_cast<size_t>(t)]) {
      EXPECT_GT(f[static_cast<size_t>(t)], 0.0);
    } else {
      EXPECT_EQ(f[static_cast<size_t>(t)], 0.0);
    }
  }
}

TEST_F(PlanFeatureTest, IndexedPlanHasDifferentFeatures) {
  auto ship = schema_.FindColumn("lineitem", "l_shipdate");
  sql::Query q;
  q.select = {sql::SelectItem{sql::AggFunc::kNone, *ship}};
  q.tables = {*schema_.FindTable("lineitem")};
  q.filters = {sql::Predicate{*ship, sql::CmpOp::kEq, sql::Value::Int(55)}};
  engine::IndexConfig none;
  engine::IndexConfig with;
  with.Add(engine::Index{{*ship}});
  std::vector<double> f0 = ExtractPlanFeatures(*optimizer_.Plan(q, none));
  std::vector<double> f1 = ExtractPlanFeatures(*optimizer_.Plan(q, with));
  EXPECT_NE(f0, f1);
}

TEST_F(PlanFeatureTest, UtilityModelBeatsOptimizerEstimate) {
  workload::QueryGenerator gen(vocab_, workload::GeneratorOptions{}, 13);
  std::vector<sql::Query> queries = gen.GeneratePool(120);
  // A few random configurations, including the empty one.
  std::vector<engine::IndexConfig> configs;
  configs.emplace_back();
  common::Rng rng(17);
  for (int c = 0; c < 3; ++c) {
    engine::IndexConfig cfg;
    for (int i = 0; i < 6; ++i) {
      int g = static_cast<int>(rng.UniformInt(0, schema_.num_columns() - 1));
      cfg.Add(engine::Index{{schema_.ColumnFromGlobalIndex(g)}});
    }
    configs.push_back(cfg);
  }
  LearnedUtilityModel model(optimizer_, truth_);
  model.Train(queries, configs);
  EXPECT_TRUE(model.trained());
  EXPECT_GT(model.holdout_r2(), 0.8);
  // The learned model must close most of the estimator's gap to truth.
  EXPECT_LT(model.model_holdout_error(), model.optimizer_holdout_error());
}

TEST_F(PlanFeatureTest, UtilityModelPredictsWorkloadAdditively) {
  workload::QueryGenerator gen(vocab_, workload::GeneratorOptions{}, 19);
  std::vector<sql::Query> queries = gen.GeneratePool(40);
  std::vector<engine::IndexConfig> configs = {engine::IndexConfig()};
  LearnedUtilityModel model(optimizer_, truth_);
  model.Train(queries, configs);
  workload::Workload w;
  w.queries.push_back(workload::WorkloadQuery{queries[0], 2.0});
  w.queries.push_back(workload::WorkloadQuery{queries[1], 1.0});
  engine::IndexConfig none;
  EXPECT_NEAR(model.PredictWorkloadCost(w, none),
              2.0 * model.PredictQueryCost(queries[0], none) +
                  model.PredictQueryCost(queries[1], none),
              1e-9);
}

}  // namespace
}  // namespace trap::gbdt
