#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>

#include "catalog/datasets.h"
#include "gbdt/features.h"
#include "gbdt/gbdt.h"
#include "gbdt/utility_model.h"
#include "obs/obs.h"
#include "testing/gbdt_equivalence.h"
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

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

// Tie-heavy data, compared bit for bit with the plain per-node stable-sort
// reference. Feature 1 is feature 0 read in mirrored row order and the
// labels are mirror-symmetric, so splits on features 0 and 1 have the same
// exact gain, but feature 1's tie groups hold feature 0's labels in reverse
// order. Which of the two wins is decided by the rounding of the prefix
// sums, that is by the order in which tied rows are added, which must be
// ascending row id. The other features take values from a five-element
// set. A subsampled ensemble on the same data must match the reference's
// boosting loop too.
TEST(RegressionTreeTest, MatchesStableSortReferenceBitwise) {
  const double kLevels[] = {-1.0, 0.0, 0.5, 2.0, 3.0};
  for (uint64_t seed = 1; seed <= 200; ++seed) {
    common::Rng rng(seed);
    const size_t n = 40 + static_cast<size_t>(rng.UniformInt(0, 160));
    const size_t features = 2 + static_cast<size_t>(rng.UniformInt(0, 3));
    std::vector<std::vector<double>> x(n, std::vector<double>(features));
    std::vector<double> y(n);
    for (size_t r = 0; r < n; ++r) {
      x[r][0] = rng.Bernoulli(0.5) ? 1.0 : 0.0;
      for (size_t f = 2; f < features; ++f) {
        x[r][f] = kLevels[rng.UniformInt(0, 4)];
      }
      y[r] = r < n - 1 - r ? rng.Gaussian() : y[n - 1 - r];
    }
    for (size_t r = 0; r < n; ++r) x[r][1] = x[n - 1 - r][0];
    std::vector<int> rows(n);
    std::iota(rows.begin(), rows.end(), 0);
    RegressionTree::Options opt;
    opt.max_depth = 1 + static_cast<int>(rng.UniformInt(0, 6));
    opt.min_samples_leaf = 1 + static_cast<int>(rng.UniformInt(0, 4));
    RegressionTree tree;
    tree.Fit(x, y, rows, opt);
    proptest::ReferenceRegressionTree ref;
    ref.Fit(x, y, rows, opt);
    ASSERT_EQ(tree.num_nodes(), ref.num_nodes()) << "seed " << seed;
    GbdtRegressor::Options gbdt_opt;
    gbdt_opt.num_trees = 5;
    gbdt_opt.subsample = 0.7;
    gbdt_opt.seed = seed;
    GbdtRegressor model(gbdt_opt);
    model.Fit(x, y);
    proptest::ReferenceGbdtRegressor ref_model(gbdt_opt);
    ref_model.Fit(x, y);
    for (const std::vector<double>& row : x) {
      EXPECT_TRUE(SameBits(tree.Predict(row), ref.Predict(row)))
          << "seed " << seed;
      EXPECT_TRUE(SameBits(model.Predict(row), ref_model.Predict(row)))
          << "seed " << seed;
    }
  }
}

// trap.gbdt.trees counts fitted trees and trap.gbdt.nodes their nodes: a
// one-tree fit on every row grows the tree RegressionTree grows on the
// residuals from the mean.
TEST(GbdtTest, CountsTreesAndNodes) {
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  std::vector<int> rows;
  common::Rng rng(23);
  for (int i = 0; i < 64; ++i) {
    x.push_back({rng.Uniform(-1, 1), rng.Uniform(-1, 1)});
    y.push_back(x.back()[0] > 0 ? 1.0 + x.back()[1] : -1.0);
    rows.push_back(i);
  }
  const double mean =
      std::accumulate(y.begin(), y.end(), 0.0) / static_cast<double>(y.size());
  std::vector<double> residual;
  for (double v : y) residual.push_back(v - mean);
  RegressionTree tree;
  tree.Fit(x, residual, rows, RegressionTree::Options());

  obs::MetricRegistry& reg = obs::MetricRegistry::Global();
  const int64_t trees_before = reg.counter("trap.gbdt.trees")->value();
  const int64_t nodes_before = reg.counter("trap.gbdt.nodes")->value();
  GbdtRegressor::Options opt;
  opt.num_trees = 1;
  opt.subsample = 1.0;
  GbdtRegressor model(opt);
  model.Fit(x, y);
  EXPECT_EQ(reg.counter("trap.gbdt.trees")->value() - trees_before, 1);
  EXPECT_EQ(reg.counter("trap.gbdt.nodes")->value() - nodes_before,
            tree.num_nodes());
  EXPECT_GT(tree.num_nodes(), 1);
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
