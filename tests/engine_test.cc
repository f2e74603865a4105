#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "catalog/datasets.h"
#include "catalog/snapshot.h"
#include "catalog/stats_overlay.h"
#include "common/deadline.h"
#include "common/fault.h"
#include "common/thread_pool.h"
#include "engine/cost_model.h"
#include "engine/index.h"
#include "engine/plan.h"
#include "engine/selectivity.h"
#include "engine/true_cost.h"
#include "engine/what_if.h"
#include "obs/metrics.h"
#include "workload/workload.h"

namespace trap::engine {
namespace {

using catalog::ColumnId;
using catalog::MakeTpcH;
using catalog::Schema;
using sql::CmpOp;
using sql::Conjunction;
using sql::Predicate;
using sql::Query;
using sql::SelectItem;
using sql::Value;

class EngineTest : public ::testing::Test {
 protected:
  EngineTest() : schema_(MakeTpcH()) {}

  ColumnId Col(const char* table, const char* col) const {
    auto c = schema_.FindColumn(table, col);
    TRAP_CHECK(c.has_value());
    return *c;
  }

  // Single-table scan query over lineitem with one selective predicate.
  Query LineitemQuery(CmpOp op = CmpOp::kEq) const {
    Query q;
    ColumnId ship = Col("lineitem", "l_shipdate");
    ColumnId qty = Col("lineitem", "l_quantity");
    q.select = {SelectItem{sql::AggFunc::kNone, qty},
                SelectItem{sql::AggFunc::kNone, ship}};
    q.tables = {*schema_.FindTable("lineitem")};
    q.filters = {Predicate{ship, op, Value::Int(100)}};
    return q;
  }

  Schema schema_;
};

TEST_F(EngineTest, IndexSizeGrowsWithColumns) {
  Index one{{Col("lineitem", "l_shipdate")}};
  Index two{{Col("lineitem", "l_shipdate"), Col("lineitem", "l_quantity")}};
  EXPECT_GT(IndexSizeBytes(two, schema_), IndexSizeBytes(one, schema_));
}

TEST_F(EngineTest, IndexPrefixDetection) {
  Index one{{Col("lineitem", "l_shipdate")}};
  Index two{{Col("lineitem", "l_shipdate"), Col("lineitem", "l_quantity")}};
  EXPECT_TRUE(two.HasPrefix(one));
  EXPECT_FALSE(one.HasPrefix(two));
  EXPECT_TRUE(one.HasPrefix(one));
}

TEST_F(EngineTest, IndexConfigAddRemoveContains) {
  IndexConfig cfg;
  Index a{{Col("orders", "o_orderdate")}};
  Index b{{Col("lineitem", "l_shipdate")}};
  EXPECT_TRUE(cfg.Add(a));
  EXPECT_FALSE(cfg.Add(a));  // duplicate
  EXPECT_TRUE(cfg.Add(b));
  EXPECT_EQ(cfg.size(), 2);
  EXPECT_TRUE(cfg.Contains(a));
  EXPECT_TRUE(cfg.Remove(a));
  EXPECT_FALSE(cfg.Remove(a));
  EXPECT_FALSE(cfg.Contains(a));
}

TEST_F(EngineTest, IndexConfigFingerprintCanonical) {
  Index a{{Col("orders", "o_orderdate")}};
  Index b{{Col("lineitem", "l_shipdate")}};
  IndexConfig c1;
  c1.Add(a);
  c1.Add(b);
  IndexConfig c2;
  c2.Add(b);
  c2.Add(a);
  EXPECT_EQ(c1.Fingerprint(), c2.Fingerprint());
  c2.Remove(a);
  EXPECT_NE(c1.Fingerprint(), c2.Fingerprint());
}

TEST_F(EngineTest, ColumnOrderDistinguishesIndexes) {
  Index ab{{Col("lineitem", "l_shipdate"), Col("lineitem", "l_quantity")}};
  Index ba{{Col("lineitem", "l_quantity"), Col("lineitem", "l_shipdate")}};
  IndexConfig c1;
  c1.Add(ab);
  IndexConfig c2;
  c2.Add(ba);
  EXPECT_NE(c1.Fingerprint(), c2.Fingerprint());
}

TEST_F(EngineTest, EqualitySelectivityUsesNdv) {
  Predicate p{Col("lineitem", "l_linenumber"), CmpOp::kEq, Value::Int(3)};
  double sel = PredicateSelectivity(p, schema_);
  EXPECT_GT(sel, 1.0 / 7 * 0.9);
  EXPECT_LE(sel, 1.0);
}

TEST_F(EngineTest, RangeSelectivityMonotonicInLiteral) {
  ColumnId ship = Col("lineitem", "l_shipdate");
  double prev = 0.0;
  for (int v : {100, 500, 1000, 2000}) {
    Predicate p{ship, CmpOp::kLt, Value::Int(v)};
    double sel = PredicateSelectivity(p, schema_);
    EXPECT_GE(sel, prev);
    prev = sel;
  }
}

TEST_F(EngineTest, ComplementaryOperatorsSumToOne) {
  ColumnId ship = Col("lineitem", "l_shipdate");
  Predicate lt{ship, CmpOp::kLt, Value::Int(700)};
  Predicate ge{ship, CmpOp::kGe, Value::Int(700)};
  EXPECT_NEAR(PredicateSelectivity(lt, schema_) +
                  PredicateSelectivity(ge, schema_),
              1.0, 1e-6);
}

TEST_F(EngineTest, OrSelectivityAtLeastAnd) {
  Query q = LineitemQuery();
  q.filters.push_back(Predicate{Col("lineitem", "l_quantity"), CmpOp::kLt,
                                Value::Int(10)});
  int li = q.tables[0];
  double and_sel = TableFilterSelectivity(q, li, schema_);
  q.conjunction = Conjunction::kOr;
  double or_sel = TableFilterSelectivity(q, li, schema_);
  EXPECT_GE(or_sel, and_sel);
}

TEST_F(EngineTest, SargabilityRules) {
  Predicate eq{Col("lineitem", "l_quantity"), CmpOp::kEq, Value::Int(1)};
  Predicate ne{Col("lineitem", "l_quantity"), CmpOp::kNe, Value::Int(1)};
  EXPECT_TRUE(IsSargable(eq, Conjunction::kAnd));
  EXPECT_FALSE(IsSargable(ne, Conjunction::kAnd));
  EXPECT_FALSE(IsSargable(eq, Conjunction::kOr));
}

TEST_F(EngineTest, SelectiveIndexBeatsSeqScan) {
  CostModel model(schema_);
  Query q = LineitemQuery(CmpOp::kEq);
  IndexConfig none;
  IndexConfig with;
  with.Add(Index{{Col("lineitem", "l_shipdate")}});
  double c0 = model.QueryCost(q, none);
  double c1 = model.QueryCost(q, with);
  EXPECT_LT(c1, c0 * 0.5);
  // And the chosen plan actually uses the index.
  std::unique_ptr<PlanNode> plan = model.Plan(q, with);
  std::vector<const PlanNode*> nodes;
  CollectNodes(*plan, &nodes);
  bool uses_index = false;
  for (const PlanNode* n : nodes) {
    if (n->type == PlanNodeType::kIndexScan ||
        n->type == PlanNodeType::kIndexOnlyScan) {
      uses_index = true;
    }
  }
  EXPECT_TRUE(uses_index);
}

TEST_F(EngineTest, UnselectivePredicateKeepsSeqScan) {
  CostModel model(schema_);
  Query q = LineitemQuery(CmpOp::kGe);
  q.filters[0].value = Value::Int(0);  // matches everything
  IndexConfig with;
  with.Add(Index{{Col("lineitem", "l_shipdate")}});
  std::unique_ptr<PlanNode> plan = model.Plan(q, with);
  EXPECT_EQ(plan->type, PlanNodeType::kSeqScan);
}

TEST_F(EngineTest, CoveringIndexUsesIndexOnlyScan) {
  CostModel model(schema_);
  Query q = LineitemQuery(CmpOp::kEq);
  IndexConfig narrow;
  narrow.Add(Index{{Col("lineitem", "l_shipdate")}});
  IndexConfig covering;
  covering.Add(Index{{Col("lineitem", "l_shipdate"),
                      Col("lineitem", "l_quantity")}});
  double c_narrow = model.QueryCost(q, narrow);
  double c_cover = model.QueryCost(q, covering);
  EXPECT_LT(c_cover, c_narrow);
  std::unique_ptr<PlanNode> plan = model.Plan(q, covering);
  EXPECT_EQ(plan->type, PlanNodeType::kIndexOnlyScan);
}

TEST_F(EngineTest, MultiColumnPrefixBeatsSingleColumnForTwoPredicates) {
  CostModel model(schema_);
  Query q = LineitemQuery(CmpOp::kEq);
  q.filters.push_back(Predicate{Col("lineitem", "l_quantity"), CmpOp::kEq,
                                Value::Int(25)});
  IndexConfig single;
  single.Add(Index{{Col("lineitem", "l_shipdate")}});
  IndexConfig multi;
  multi.Add(Index{{Col("lineitem", "l_shipdate"),
                   Col("lineitem", "l_quantity")}});
  EXPECT_LT(model.QueryCost(q, multi), model.QueryCost(q, single));
}

TEST_F(EngineTest, RangeClosesIndexPrefix) {
  CostModel model(schema_);
  Query q = LineitemQuery(CmpOp::kLt);  // range on l_shipdate
  q.filters[0].value = Value::Int(120);
  q.filters.push_back(Predicate{Col("lineitem", "l_quantity"), CmpOp::kEq,
                                Value::Int(25)});
  // (shipdate, quantity): range on first column closes the prefix, so the
  // equality on quantity cannot be used; (quantity, shipdate) uses both.
  IndexConfig range_first;
  range_first.Add(Index{{Col("lineitem", "l_shipdate"),
                         Col("lineitem", "l_quantity")}});
  IndexConfig eq_first;
  eq_first.Add(Index{{Col("lineitem", "l_quantity"),
                      Col("lineitem", "l_shipdate")}});
  EXPECT_LT(model.QueryCost(q, eq_first), model.QueryCost(q, range_first));
}

TEST_F(EngineTest, NotEqualGetsNoIndexBenefit) {
  CostModel model(schema_);
  Query q = LineitemQuery(CmpOp::kNe);
  IndexConfig with;
  with.Add(Index{{Col("lineitem", "l_shipdate")}});
  IndexConfig none;
  EXPECT_DOUBLE_EQ(model.QueryCost(q, with), model.QueryCost(q, none));
}

TEST_F(EngineTest, OrConjunctionGetsNoIndexBenefit) {
  CostModel model(schema_);
  Query q = LineitemQuery(CmpOp::kEq);
  q.filters.push_back(Predicate{Col("lineitem", "l_quantity"), CmpOp::kEq,
                                Value::Int(25)});
  q.conjunction = Conjunction::kOr;
  IndexConfig with;
  with.Add(Index{{Col("lineitem", "l_shipdate")}});
  with.Add(Index{{Col("lineitem", "l_quantity")}});
  IndexConfig none;
  EXPECT_DOUBLE_EQ(model.QueryCost(q, with), model.QueryCost(q, none));
}

TEST_F(EngineTest, JoinQueryBuildsJoinPlan) {
  CostModel model(schema_);
  Query q;
  q.select = {SelectItem{sql::AggFunc::kNone, Col("orders", "o_orderdate")}};
  q.tables = {*schema_.FindTable("customer"), *schema_.FindTable("orders")};
  std::sort(q.tables.begin(), q.tables.end());
  q.joins = {sql::JoinPredicate{Col("orders", "o_custkey"),
                                Col("customer", "c_custkey")}};
  q.filters = {Predicate{Col("customer", "c_mktsegment"), CmpOp::kEq,
                         Value::StringCode(2)}};
  IndexConfig none;
  std::unique_ptr<PlanNode> plan = model.Plan(q, none);
  std::vector<const PlanNode*> nodes;
  CollectNodes(*plan, &nodes);
  bool has_join = false;
  for (const PlanNode* n : nodes) {
    if (n->type == PlanNodeType::kHashJoin ||
        n->type == PlanNodeType::kIndexNestedLoopJoin) {
      has_join = true;
    }
  }
  EXPECT_TRUE(has_join);
}

TEST_F(EngineTest, IndexOnJoinKeyEnablesIndexNestedLoop) {
  CostModel model(schema_);
  Query q;
  // Selective filter on customer makes the outer side tiny; an index on the
  // orders join key should then flip the join to INLJ and cut cost.
  q.select = {SelectItem{sql::AggFunc::kNone, Col("orders", "o_orderdate")}};
  q.tables = {*schema_.FindTable("customer"), *schema_.FindTable("orders")};
  std::sort(q.tables.begin(), q.tables.end());
  q.joins = {sql::JoinPredicate{Col("orders", "o_custkey"),
                                Col("customer", "c_custkey")}};
  q.filters = {Predicate{Col("customer", "c_custkey"), CmpOp::kEq,
                         Value::Int(77)}};
  IndexConfig with;
  with.Add(Index{{Col("orders", "o_custkey")}});
  with.Add(Index{{Col("customer", "c_custkey")}});
  IndexConfig none;
  double c0 = model.QueryCost(q, none);
  double c1 = model.QueryCost(q, with);
  EXPECT_LT(c1, c0 * 0.2);
  std::unique_ptr<PlanNode> plan = model.Plan(q, with);
  std::vector<const PlanNode*> nodes;
  CollectNodes(*plan, &nodes);
  bool has_inlj = false;
  for (const PlanNode* n : nodes) {
    if (n->type == PlanNodeType::kIndexNestedLoopJoin) has_inlj = true;
  }
  EXPECT_TRUE(has_inlj);
}

TEST_F(EngineTest, OrderByIndexAvoidsSort) {
  CostModel model(schema_);
  Query q;
  ColumnId date = Col("orders", "o_orderdate");
  ColumnId price = Col("orders", "o_totalprice");
  q.select = {SelectItem{sql::AggFunc::kNone, date},
              SelectItem{sql::AggFunc::kNone, price}};
  q.tables = {*schema_.FindTable("orders")};
  q.order_by = {date};
  IndexConfig none;
  IndexConfig with;
  with.Add(Index{{date, price}});
  std::unique_ptr<PlanNode> p0 = model.Plan(q, none);
  EXPECT_EQ(p0->type, PlanNodeType::kSort);
  std::unique_ptr<PlanNode> p1 = model.Plan(q, with);
  EXPECT_NE(p1->type, PlanNodeType::kSort);
  EXPECT_LT(p1->cost, p0->cost);
}

TEST_F(EngineTest, GroupByAddsAggregateAndShrinksCardinality) {
  CostModel model(schema_);
  Query q;
  ColumnId status = Col("orders", "o_orderstatus");
  q.select = {SelectItem{sql::AggFunc::kNone, status},
              SelectItem{sql::AggFunc::kCount, Col("orders", "o_orderkey")}};
  q.tables = {*schema_.FindTable("orders")};
  q.group_by = {status};
  IndexConfig none;
  std::unique_ptr<PlanNode> plan = model.Plan(q, none);
  EXPECT_EQ(plan->type, PlanNodeType::kHashAggregate);
  EXPECT_LE(plan->cardinality, 3.5);  // |o_orderstatus| = 3
}

TEST_F(EngineTest, PlanHeightsAreConsistent) {
  CostModel model(schema_);
  Query q = LineitemQuery();
  q.order_by = {Col("lineitem", "l_quantity")};
  IndexConfig none;
  std::unique_ptr<PlanNode> plan = model.Plan(q, none);
  // Sort above SeqScan: height 2 over 1.
  EXPECT_EQ(plan->type, PlanNodeType::kSort);
  EXPECT_EQ(plan->height, 2);
  ASSERT_EQ(plan->children.size(), 1u);
  EXPECT_EQ(plan->children[0]->height, 1);
  EXPECT_GE(plan->cost, plan->children[0]->cost);
}

TEST_F(EngineTest, WhatIfCachesRepeatedCalls) {
  // Costs are not memoized: every repeat is recomputed from the cached
  // query shape, returns the bit-identical cost and counts one call.
  WhatIfOptimizer optimizer(schema_);
  Query q = LineitemQuery();
  IndexConfig none;
  const double c1 = optimizer.TryQueryCost(q, none).value();
  for (int64_t calls = 2; calls <= 4; ++calls) {
    EXPECT_EQ(optimizer.TryQueryCost(q, none).value(), c1);
    EXPECT_EQ(optimizer.num_calls(), calls);
  }
  EXPECT_EQ(optimizer.cache_size(), 1u);
}

// Minimal stand-in for workload::Workload (the workload layer sits above
// the engine, so the batched APIs are templated on the workload type).
struct MiniWorkload {
  struct Item {
    sql::Query query;
    double weight = 1.0;
  };
  std::vector<Item> queries;
};

// Calls `fn` once from each lane of a `lanes`-thread pool, concurrently,
// and returns the results in lane order.
template <typename Fn>
auto FromConcurrentLanes(int lanes, const Fn& fn) {
  std::vector<decltype(fn())> results(static_cast<size_t>(lanes));
  common::ThreadPool pool(lanes);
  pool.ParallelFor(results.size(), [&](size_t lane) { results[lane] = fn(); });
  return results;
}

TEST_F(EngineTest, SerialAndParallelWorkloadCostBitIdentical) {
  // 1, 4 and 8 concurrent callers sharing one optimizer: every caller's
  // batched cost must match the serial per-query sum exactly, and every
  // caller's calls are counted.
  MiniWorkload w;
  for (int i = 0; i < 12; ++i) {
    sql::Query q = LineitemQuery(i % 2 == 0 ? CmpOp::kEq : CmpOp::kLt);
    q.filters[0].value = Value::Int(50 + 100 * (i / 2));
    w.queries.push_back({q, 0.5 + 0.25 * i});
  }
  IndexConfig config;
  config.Add(Index{{Col("lineitem", "l_shipdate")}});

  WhatIfOptimizer serial_opt(schema_);
  double serial_total = 0.0;
  for (const auto& wq : w.queries) {
    serial_total +=
        wq.weight * serial_opt.TryQueryCost(wq.query, config).value();
  }

  for (int lanes : {1, 4, 8}) {
    WhatIfOptimizer shared(schema_);
    for (double total : FromConcurrentLanes(lanes, [&] {
           return shared.TryWorkloadCost(w, config).value();
         })) {
      EXPECT_EQ(total, serial_total) << "lanes=" << lanes;  // bit-identical
    }
    EXPECT_EQ(shared.num_calls(), lanes * serial_opt.num_calls());

    // Re-costing the same workload gives the same total and counts again.
    EXPECT_EQ(shared.TryWorkloadCost(w, config).value(), serial_total);
    EXPECT_EQ(shared.num_calls(), (lanes + 1) * serial_opt.num_calls());
  }
}

TEST_F(EngineTest, BatchedConfigSweepMatchesSerial) {
  MiniWorkload w;
  for (int i = 0; i < 6; ++i) {
    sql::Query q = LineitemQuery(CmpOp::kEq);
    q.filters[0].value = Value::Int(100 + 37 * i);
    w.queries.push_back({q, 1.0});
  }
  std::vector<IndexConfig> configs;
  configs.emplace_back();
  IndexConfig one;
  one.Add(Index{{Col("lineitem", "l_shipdate")}});
  configs.push_back(one);
  IndexConfig two = one;
  two.Add(Index{{Col("lineitem", "l_quantity")}});
  configs.push_back(two);

  WhatIfOptimizer ref(schema_);
  std::vector<double> want;
  for (const IndexConfig& config : configs) {
    double expected = 0.0;
    for (const auto& wq : w.queries) {
      expected += wq.weight * ref.TryQueryCost(wq.query, config).value();
    }
    want.push_back(expected);
  }
  for (int lanes : {1, 4, 8}) {
    WhatIfOptimizer shared(schema_);
    for (const std::vector<double>& swept : FromConcurrentLanes(lanes, [&] {
           return shared.TryWorkloadCosts(w, configs).value();
         })) {
      EXPECT_EQ(swept, want) << "lanes=" << lanes;
    }
  }
}

TEST_F(EngineTest, CacheSizeAndClear) {
  // The optimizer caches one shape per distinct query and no costs, so an
  // N-config sweep leaves cache_size() at the query count, not N x queries.
  WhatIfOptimizer opt(schema_);
  EXPECT_EQ(opt.cache_size(), 0u);
  MiniWorkload w;
  for (int i = 0; i < 5; ++i) {
    sql::Query q = LineitemQuery(CmpOp::kLt);
    q.filters[0].value = Value::Int(30 + 40 * i);
    w.queries.push_back({q, 1.0});
  }
  std::vector<IndexConfig> configs(4);
  configs[1].Add(Index{{Col("lineitem", "l_shipdate")}});
  configs[2].Add(Index{{Col("lineitem", "l_quantity")}});
  configs[3].Add(Index{{Col("lineitem", "l_orderkey")}});
  const std::vector<double> first = opt.TryWorkloadCosts(w, configs).value();
  EXPECT_EQ(opt.cache_size(), w.queries.size());
  EXPECT_EQ(opt.num_calls(),
            static_cast<int64_t>(w.queries.size() * configs.size()));
  // A repeat sweep compiles nothing new and returns the same totals.
  EXPECT_EQ(opt.TryWorkloadCosts(w, configs).value(), first);
  EXPECT_EQ(opt.cache_size(), w.queries.size());
}

TEST_F(EngineTest, ShapeCacheCoherentWithFreshComputation) {
  WhatIfOptimizer warm(schema_);
  Query q = LineitemQuery(CmpOp::kLt);
  IndexConfig none;
  IndexConfig with;
  with.Add(Index{{Col("lineitem", "l_shipdate")}});
  double first_none = warm.TryQueryCost(q, none).value();
  double first_with = warm.TryQueryCost(q, with).value();
  EXPECT_EQ(warm.cache_size(), 1u);  // one shape serves both configs
  // Costs recomputed through the cached shape match a fresh optimizer —
  // and the raw kernel with no shape at all — bit for bit.
  WhatIfOptimizer fresh(schema_);
  EXPECT_EQ(warm.TryQueryCost(q, none).value(),
            fresh.TryQueryCost(q, none).value());
  EXPECT_EQ(warm.TryQueryCost(q, with).value(),
            fresh.TryQueryCost(q, with).value());
  CostModel model(schema_);
  EXPECT_EQ(first_none, model.QueryCost(q, none));
  EXPECT_EQ(first_with, model.QueryCost(q, with));
}

TEST_F(EngineTest, PlanCostMatchesShapeKernelBitForBit) {
  // Plan() and the shape-based cost kernel share one arithmetic site per
  // decision, so the plan root's cumulative cost must equal the kernel's
  // scalar answer exactly — for scans, joins, aggregates, and sorts alike.
  CostModel model(schema_);
  std::vector<Query> queries;
  queries.push_back(LineitemQuery(CmpOp::kEq));
  queries.push_back(LineitemQuery(CmpOp::kLt));
  {
    Query q = LineitemQuery(CmpOp::kGt);
    q.order_by = {Col("lineitem", "l_quantity")};
    queries.push_back(q);
  }
  {
    Query q;
    q.select = {SelectItem{sql::AggFunc::kNone, Col("orders", "o_orderdate")}};
    q.tables = {*schema_.FindTable("customer"), *schema_.FindTable("orders")};
    std::sort(q.tables.begin(), q.tables.end());
    q.joins = {sql::JoinPredicate{Col("orders", "o_custkey"),
                                  Col("customer", "c_custkey")}};
    q.filters = {Predicate{Col("customer", "c_custkey"), CmpOp::kEq,
                           Value::Int(77)}};
    queries.push_back(q);
  }
  std::vector<IndexConfig> configs(2);
  configs[1].Add(Index{{Col("lineitem", "l_shipdate")}});
  configs[1].Add(Index{{Col("orders", "o_orderdate")}});
  IndexConfig join_cfg;
  join_cfg.Add(Index{{Col("orders", "o_custkey")}});
  join_cfg.Add(Index{{Col("customer", "c_custkey")}});
  configs.push_back(join_cfg);
  for (const Query& q : queries) {
    const QueryShape shape = model.ComputeShape(q);
    for (const IndexConfig& cfg : configs) {
      EXPECT_EQ(model.Plan(shape, cfg)->cost, model.QueryCost(shape, cfg));
      EXPECT_EQ(model.Plan(q, cfg)->cost, model.QueryCost(q, cfg));
    }
  }
}

TEST_F(EngineTest, BatchWithRepeatedItemsMatchesSerialAndKeepsAccounting) {
  // Every query appears twice (same fingerprint, different weights) and one
  // config is duplicated outright: every repeated item is costed and counted
  // like any other, and the weighted folds match the serial reference bit
  // for bit.
  MiniWorkload w;
  for (int i = 0; i < 5; ++i) {
    sql::Query q = LineitemQuery(CmpOp::kEq);
    q.filters[0].value = Value::Int(100 + 37 * i);
    w.queries.push_back({q, 1.0 + 0.5 * i});
    w.queries.push_back({q, 2.0});
  }
  std::vector<IndexConfig> configs(2);
  configs[1].Add(Index{{Col("lineitem", "l_shipdate")}});
  configs.push_back(configs[1]);

  WhatIfOptimizer ref(schema_);
  std::vector<double> want;
  for (const IndexConfig& config : configs) {
    double expected = 0.0;
    for (const auto& wq : w.queries) {
      expected += wq.weight * ref.TryQueryCost(wq.query, config).value();
    }
    want.push_back(expected);
  }

  // 1, 4 and 8 concurrent callers on one optimizer fold the batch to the
  // same bits as the serial reference.
  const int64_t items = static_cast<int64_t>(w.queries.size() * configs.size());
  for (int lanes : {1, 4, 8}) {
    WhatIfOptimizer shared(schema_);
    for (const std::vector<double>& swept : FromConcurrentLanes(lanes, [&] {
           return shared.TryWorkloadCosts(w, configs).value();
         })) {
      EXPECT_EQ(swept, want) << "lanes=" << lanes;
    }
    // Every (query, config) item charges one call, and one shape is
    // compiled per distinct query.
    EXPECT_EQ(shared.num_calls(), lanes * items);
    EXPECT_EQ(shared.cache_size(), 5u);
  }
}

// A batch that runs out of step budget returns early with an error; the
// calls granted a step before that are still counted, repeated pairs
// included.
TEST_F(EngineTest, ExpiredBudgetStillCountsGrantedCalls) {
  MiniWorkload w;
  for (int i = 0; i < 6; ++i) {
    sql::Query q = LineitemQuery(CmpOp::kLt);
    q.filters[0].value = Value::Int(25 + 30 * i);
    w.queries.push_back({q, 1.0});
    w.queries.push_back({q, 2.0});  // the same pair again, costed again
  }
  IndexConfig config;
  config.Add(Index{{Col("lineitem", "l_shipdate")}});
  // 6 distinct pairs, 12 items: budgets of 4 and 8 both expire mid-batch.
  for (uint64_t budget : {4u, 8u}) {
    WhatIfOptimizer opt(schema_);
    common::CancelToken token(budget);
    common::EvalContext ctx;
    ctx.cancel = &token;
    EXPECT_FALSE(opt.TryWorkloadCost(w, config, ctx).ok()) << budget;
    EXPECT_EQ(opt.num_calls(), static_cast<int64_t>(budget)) << budget;
  }
}

// With engine.whatif.timeout and engine.whatif.cost_error armed together, a
// sweep fails at several items with different codes. The batch returns the
// code of its first failing item in config-major order, as per-item calls
// under the same fault salt find it; it still costs and counts every item,
// and charges each one a step on the caller's token.
TEST_F(EngineTest, BatchReturnsFirstErrorInInputOrderAndChargesEveryItem) {
  MiniWorkload w;
  for (int i = 0; i < 8; ++i) {
    sql::Query q = LineitemQuery(i % 2 == 0 ? CmpOp::kEq : CmpOp::kLt);
    q.filters[0].value = Value::Int(40 + 45 * i);
    w.queries.push_back({q, 1.0 + 0.25 * i});
  }
  std::vector<IndexConfig> configs(3);
  configs[1].Add(Index{{Col("lineitem", "l_shipdate")}});
  configs[2].Add(Index{{Col("lineitem", "l_quantity")}});
  const int64_t items =
      static_cast<int64_t>(w.queries.size() * configs.size());

  WhatIfOptimizer opt(schema_);
  // One step more than the batch needs.
  common::CancelToken token(static_cast<uint64_t>(items) + 1);
  common::EvalContext ctx;
  ctx.cancel = &token;
  ctx.fault_salt = 5;
  {
    common::ScopedFaultSpec faults(
        "engine.whatif.timeout@p=0.15,engine.whatif.cost_error@p=0.15", 7);
    WhatIfOptimizer ref(schema_);
    common::EvalContext ref_ctx;
    ref_ctx.fault_salt = ctx.fault_salt;
    std::vector<common::StatusCode> failures;  // config-major order
    for (const IndexConfig& config : configs) {
      for (const MiniWorkload::Item& wq : w.queries) {
        common::StatusOr<double> cost =
            ref.TryQueryCost(wq.query, config, ref_ctx);
        if (!cost.ok()) failures.push_back(cost.status().code());
      }
    }
    ASSERT_GE(failures.size(), 2u);
    ASSERT_NE(std::count(failures.begin(), failures.end(),
                         common::StatusCode::kDeadlineExceeded),
              0);
    ASSERT_NE(std::count(failures.begin(), failures.end(),
                         common::StatusCode::kInternal),
              0);

    const common::StatusOr<std::vector<double>> swept =
        opt.TryWorkloadCosts(w, configs, ctx);
    ASSERT_FALSE(swept.ok());
    EXPECT_EQ(swept.status().code(), failures[0]);
    EXPECT_EQ(opt.num_calls(), items);
  }
  // Faults disarmed: the one step left on the token grants a later batch
  // exactly one call, so the failed batch charged every item.
  const common::StatusOr<double> later =
      opt.TryWorkloadCost(w, configs[0], ctx);
  ASSERT_FALSE(later.ok());
  EXPECT_EQ(later.status().code(), common::StatusCode::kDeadlineExceeded);
  EXPECT_EQ(opt.num_calls(), items + 1);
}

// A base-relative batch costs each query once under the base; an item whose
// config differs from the base only on tables its query does not read
// reuses that cost: no call, no step. Totals match the plain batch bit for
// bit.
TEST_F(EngineTest, BaseRelativeBatchCostsOnlyQueriesACandidateCanChange) {
  MiniWorkload w;
  for (int i = 0; i < 4; ++i) {
    sql::Query q = LineitemQuery(i % 2 == 0 ? CmpOp::kEq : CmpOp::kLt);
    q.filters[0].value = Value::Int(60 + 45 * i);
    w.queries.push_back({q, 1.0 + 0.5 * i});
  }
  Query join;
  join.select = {SelectItem{sql::AggFunc::kNone, Col("orders", "o_orderdate")}};
  join.tables = {*schema_.FindTable("customer"), *schema_.FindTable("orders")};
  std::sort(join.tables.begin(), join.tables.end());
  join.joins = {sql::JoinPredicate{Col("orders", "o_custkey"),
                                   Col("customer", "c_custkey")}};
  join.filters = {Predicate{Col("customer", "c_custkey"), CmpOp::kEq,
                            Value::Int(77)}};
  w.queries.push_back({join, 3.0});
  const int64_t nq = static_cast<int64_t>(w.queries.size());

  IndexConfig base;
  base.Add(Index{{Col("lineitem", "l_shipdate")}});
  base.Add(Index{{Col("orders", "o_custkey")}});
  // Every config differs from the base only on part and supplier, which no
  // query reads.
  std::vector<IndexConfig> unread(3, base);
  unread[0].Add(Index{{Col("part", "p_size")}});
  unread[1].Add(Index{{Col("supplier", "s_nationkey")}});
  unread[2].Add(Index{{Col("part", "p_size")}});
  unread[2].Add(Index{{Col("part", "p_brand")}});
  // One config per changed table: a lineitem index changes the four
  // lineitem queries' costs, dropping the orders join key the join's.
  std::vector<IndexConfig> read(2, base);
  read[0].Add(Index{{Col("lineitem", "l_quantity")}});
  read[1].Remove(Index{{Col("orders", "o_custkey")}});

  obs::Counter* reused =
      obs::MetricRegistry::Global().counter("trap.whatif.base_reused");
  for (const std::vector<IndexConfig>* configs : {&unread, &read}) {
    WhatIfOptimizer plain(schema_);
    const std::vector<double> want =
        plain.TryWorkloadCosts(w, *configs).value();
    WhatIfOptimizer opt(schema_);
    const int64_t reused_before = reused->value();
    EXPECT_EQ(opt.TryWorkloadCosts(w, *configs, {}, &base).value(), want);
    const int64_t nc = static_cast<int64_t>(configs->size());
    // The unread batch makes only the nq base calls; the read one adds the
    // four lineitem queries under read[0] and the join under read[1].
    const int64_t costed = configs == &unread ? 0 : 4 + 1;
    EXPECT_EQ(opt.num_calls(), nq + costed);
    EXPECT_EQ(reused->value() - reused_before, nq * nc - costed);
  }
}

// A fault on a base item fails a base-relative batch with that item's
// Status: base items come first in input order. Every costed item is still
// tried and counted.
TEST_F(EngineTest, BaseItemErrorFailsTheBatchFirstInInputOrder) {
  MiniWorkload w;
  for (int i = 0; i < 6; ++i) {
    sql::Query q = LineitemQuery(i % 2 == 0 ? CmpOp::kEq : CmpOp::kLt);
    q.filters[0].value = Value::Int(40 + 45 * i);
    w.queries.push_back({q, 1.0});
  }
  IndexConfig base;
  base.Add(Index{{Col("lineitem", "l_quantity")}});
  std::vector<IndexConfig> configs(4, base);
  configs[0].Add(Index{{Col("lineitem", "l_shipdate")}});
  configs[1].Add(Index{{Col("lineitem", "l_discount")}});
  configs[2].Remove(Index{{Col("lineitem", "l_quantity")}});
  configs[3].Add(Index{{Col("part", "p_size")}});  // no query reads part

  common::ScopedFaultSpec faults(
      "engine.whatif.timeout@p=0.2,engine.whatif.cost_error@p=0.2", 7);
  // Per-item outcomes under salt `salt`, from single-pair calls that draw
  // the same faults: the base items, then the costed items config-major.
  auto failures = [&](uint64_t salt, bool base_items) {
    WhatIfOptimizer ref(schema_);
    common::EvalContext ctx;
    ctx.fault_salt = salt;
    std::vector<common::StatusCode> out;
    auto probe = [&](const sql::Query& q, const IndexConfig& config) {
      common::StatusOr<double> cost = ref.TryQueryCost(q, config, ctx);
      if (!cost.ok()) out.push_back(cost.status().code());
    };
    for (const MiniWorkload::Item& wq : w.queries) {
      if (base_items) probe(wq.query, base);
    }
    for (size_t c = 0; c + 1 < configs.size(); ++c) {
      for (const MiniWorkload::Item& wq : w.queries) {
        probe(wq.query, configs[c]);
      }
    }
    return out;
  };
  // A salt whose first failing item is a base item failing with cost_error,
  // while the first failing config item times out: the batch's code says
  // which came first.
  uint64_t salt = 0;
  for (; salt < 500; ++salt) {
    const std::vector<common::StatusCode> base_first = failures(salt, true);
    const std::vector<common::StatusCode> configs_only = failures(salt, false);
    if (!configs_only.empty() &&
        configs_only[0] == common::StatusCode::kDeadlineExceeded &&
        base_first.size() > configs_only.size() &&
        base_first[0] == common::StatusCode::kInternal) {
      break;
    }
  }
  ASSERT_LT(salt, 500u);
  WhatIfOptimizer opt(schema_);
  common::EvalContext ctx;
  ctx.fault_salt = salt;
  const common::StatusOr<std::vector<double>> swept =
      opt.TryWorkloadCosts(w, configs, ctx, &base);
  ASSERT_FALSE(swept.ok());
  EXPECT_EQ(swept.status().code(), common::StatusCode::kInternal);
  // The base items and every item of the three configs that change a
  // lineitem index are costed; configs[3] reuses all six base costs.
  EXPECT_EQ(opt.num_calls(),
            static_cast<int64_t>(w.queries.size() * configs.size()));
}

TEST_F(EngineTest, TrueCostDivergesButCorrelates) {
  WhatIfOptimizer optimizer(schema_);
  TrueCostModel truth(schema_);
  IndexConfig none;
  IndexConfig with;
  with.Add(Index{{Col("lineitem", "l_shipdate")}});
  Query q = LineitemQuery();
  double est = optimizer.TryQueryCost(q, with).value();
  double act = truth.QueryCost(q, with);
  EXPECT_NE(est, act);  // systematic divergence
  // Ordering is preserved: indexes that help by a lot in estimate also help
  // in truth.
  EXPECT_LT(truth.QueryCost(q, with), truth.QueryCost(q, none));
}

TEST_F(EngineTest, TrueCostDeterministic) {
  TrueCostModel truth(schema_);
  Query q = LineitemQuery();
  IndexConfig none;
  EXPECT_EQ(truth.QueryCost(q, none), truth.QueryCost(q, none));
}

TEST_F(EngineTest, TrueCostRatioStaysBounded) {
  TrueCostModel truth(schema_);
  CostModel model(schema_);
  Query q = LineitemQuery();
  IndexConfig none;
  double ratio = truth.QueryCost(q, none) / model.QueryCost(q, none);
  EXPECT_GT(ratio, 0.5);
  EXPECT_LT(ratio, 2.0);
}

TEST_F(EngineTest, TrueCostNoFilterNoCorrelation) {
  TrueCostModel truth(schema_);
  CostModel model(schema_);
  // A filter-free sequential scan has bias 1.0, so only the +/-5% noise
  // separates truth from estimate.
  Query q;
  q.select = {SelectItem{sql::AggFunc::kNone, Col("lineitem", "l_quantity")}};
  q.tables = {*schema_.FindTable("lineitem")};
  IndexConfig none;
  double ratio = truth.QueryCost(q, none) / model.QueryCost(q, none);
  EXPECT_GT(ratio, 0.94);
  EXPECT_LT(ratio, 1.06);
}

// Statistics imported from empty tables or all-NULL columns arrive with
// num_distinct = 0 and collapsed or inverted value domains; literals from
// stale histograms can fall outside [min, max]. None of these may poison the
// estimate with inf/NaN or push it outside (0, 1].
TEST(SelectivityEdgeCases, DegenerateStatisticsStayInRange) {
  struct Case {
    const char* label;
    catalog::Column col;  // {name, type, width, ndv, min, max, skew}
    CmpOp op;
    double literal;
  };
  const Case cases[] = {
      {"zero ndv equality",
       {"c", catalog::ColumnType::kInt, 8, 0, 0.0, 100.0, 0.0},
       CmpOp::kEq, 50.0},
      {"zero ndv inequality",
       {"c", catalog::ColumnType::kInt, 8, 0, 0.0, 100.0, 0.0},
       CmpOp::kNe, 50.0},
      {"all-NULL column (zero ndv, collapsed domain)",
       {"c", catalog::ColumnType::kDouble, 8, 0, 0.0, 0.0, 0.0},
       CmpOp::kEq, 0.0},
      {"literal far below min",
       {"c", catalog::ColumnType::kInt, 8, 100, 0.0, 100.0, 0.0},
       CmpOp::kLt, -1e9},
      {"literal far above max",
       {"c", catalog::ColumnType::kInt, 8, 100, 0.0, 100.0, 0.0},
       CmpOp::kGt, 1e9},
      {"inverted domain (max < min)",
       {"c", catalog::ColumnType::kDouble, 8, 10, 10.0, 0.0, 0.0},
       CmpOp::kLe, 5.0},
      {"single-row table stats",
       {"c", catalog::ColumnType::kInt, 8, 1, 7.0, 7.0, 0.0},
       CmpOp::kGe, 7.0},
      {"extreme skew with zero ndv",
       {"c", catalog::ColumnType::kInt, 8, 0, 0.0, 1.0, 50.0},
       CmpOp::kEq, 0.5},
  };
  for (const Case& c : cases) {
    catalog::Schema s("edge", {catalog::Table{"t", 1000, {c.col}}}, {});
    Predicate p{ColumnId{0, 0}, c.op, Value::Double(c.literal)};
    double sel = PredicateSelectivity(p, s);
    EXPECT_TRUE(std::isfinite(sel)) << c.label;
    EXPECT_GT(sel, 0.0) << c.label;
    EXPECT_LE(sel, 1.0) << c.label;
  }
}

TEST(SelectivityEdgeCases, DistinctAfterDegenerateStats) {
  struct Case {
    const char* label;
    int64_t ndv;
    double rows;
  };
  const Case cases[] = {
      {"zero ndv", 0, 100.0},          {"zero rows", 50, 0.0},
      {"negative rows", 50, -5.0},     {"one distinct value", 1, 1e6},
      {"huge ndv few rows", 1000000, 3.0},
  };
  for (const Case& c : cases) {
    catalog::Column col{"c", catalog::ColumnType::kInt, 8, c.ndv, 0.0, 1.0,
                        0.0};
    double d = DistinctAfter(c.rows, col);
    EXPECT_TRUE(std::isfinite(d)) << c.label;
    EXPECT_GE(d, 1.0) << c.label;
    if (c.rows >= 1.0) {
      EXPECT_LE(d, std::max(1.0, c.rows)) << c.label;
    }
  }
}

// End to end: a plan over a zero-NDV column must still cost finite (the
// selectivity floor, not luck, guarantees it).
TEST(SelectivityEdgeCases, ZeroNdvColumnCostsFinite) {
  catalog::Column col{"c", catalog::ColumnType::kInt, 8, 0, 0.0, 100.0, 0.0};
  catalog::Schema s("edge", {catalog::Table{"t", 1000, {col}}}, {});
  Query q;
  q.select = {SelectItem{sql::AggFunc::kNone, ColumnId{0, 0}}};
  q.tables = {0};
  q.filters = {Predicate{ColumnId{0, 0}, CmpOp::kEq, Value::Int(50)}};
  CostModel model(s);
  IndexConfig none;
  double cost = model.QueryCost(q, none);
  EXPECT_TRUE(std::isfinite(cost));
  EXPECT_GT(cost, 0.0);
  Index idx{{ColumnId{0, 0}}};
  IndexConfig with;
  with.Add(idx);
  double indexed = model.QueryCost(q, with);
  EXPECT_TRUE(std::isfinite(indexed));
  EXPECT_LE(indexed, cost);
}

// Statistics epochs: a snapshot on the context re-keys the shape cache, a
// null (or base) snapshot reads baseline costs bit-exactly, and a warm shape
// cache never leaks shapes across epochs. The optimizer itself is never
// mutated.
TEST_F(EngineTest, SnapshotOnContextRekeysCachesAndPreservesBaseline) {
  WhatIfOptimizer opt(schema_);
  Query q = LineitemQuery(CmpOp::kEq);
  IndexConfig with;
  with.Add(Index{{Col("lineitem", "l_shipdate")}});
  const double base = opt.TryQueryCost(q, with).value();
  EXPECT_EQ(opt.EpochOf({}), 0u);

  catalog::StatsOverlay overlay;
  ColumnId ship = Col("lineitem", "l_shipdate");
  catalog::ColumnStats stats = catalog::StatsOf(schema_.column(ship));
  stats.num_distinct = std::max<int64_t>(1, stats.num_distinct / 64);
  overlay.SetColumnStats(ship, stats);
  const catalog::Snapshot shifted_snapshot(schema_, overlay);
  ASSERT_NE(shifted_snapshot.epoch(), 0u);
  common::EvalContext shifted_ctx;
  shifted_ctx.snapshot = &shifted_snapshot;
  EXPECT_EQ(opt.EpochOf(shifted_ctx), shifted_snapshot.epoch());
  EXPECT_EQ(&opt.SchemaFor({}), &schema_);
  EXPECT_NE(&opt.SchemaFor(shifted_ctx), &schema_);

  // Fewer distinct values -> the equality predicate matches more rows ->
  // the indexed plan gets pricier. The exact value must match a fresh
  // optimizer that never saw the base epoch: a warm shape keyed without
  // the epoch would surface the stale base cost here.
  const double shifted = opt.TryQueryCost(q, with, shifted_ctx).value();
  EXPECT_NE(shifted, base);
  WhatIfOptimizer fresh(schema_);
  EXPECT_EQ(fresh.TryQueryCost(q, with, shifted_ctx).value(), shifted);

  // The base epoch was never touched: a snapshot-free probe (and an
  // explicit base snapshot) still see baseline costs, warm.
  EXPECT_EQ(opt.TryQueryCost(q, with).value(), base);
  const catalog::Snapshot base_snapshot(schema_);
  common::EvalContext base_ctx;
  base_ctx.snapshot = &base_snapshot;
  EXPECT_EQ(base_snapshot.epoch(), 0u);
  EXPECT_EQ(opt.TryQueryCost(q, with, base_ctx).value(), base);

  // A snapshot rebuilt from the same overlay content lands in the same
  // epoch and is costed from the retained epoch's warm shapes.
  const catalog::Snapshot again(schema_, overlay);
  EXPECT_EQ(again.epoch(), shifted_snapshot.epoch());
  common::EvalContext again_ctx;
  again_ctx.snapshot = &again;
  EXPECT_EQ(opt.TryQueryCost(q, with, again_ctx).value(), shifted);
}

// Hammers SnapshotManager::Publish against concurrent batched costs. Each
// batch pins one snapshot at entry and resolves its epoch once, so every
// result vector must be either all-base or all-shifted -- never a torn mix.
TEST_F(EngineTest, SnapshotPublishDuringConcurrentBatchedCostsIsAtomic) {
  WhatIfOptimizer opt(schema_);
  workload::Workload w;
  w.queries.push_back(workload::WorkloadQuery{LineitemQuery(CmpOp::kEq), 1.0});
  w.queries.push_back(workload::WorkloadQuery{LineitemQuery(CmpOp::kLt), 2.0});
  std::vector<IndexConfig> configs(2);
  configs[1].Add(Index{{Col("lineitem", "l_shipdate")}});

  catalog::StatsOverlay overlay;
  ColumnId ship = Col("lineitem", "l_shipdate");
  catalog::ColumnStats stats = catalog::StatsOf(schema_.column(ship));
  stats.num_distinct = std::max<int64_t>(1, stats.num_distinct / 64);
  overlay.SetColumnStats(ship, stats);

  WhatIfOptimizer ref_base(schema_);
  WhatIfOptimizer ref_shift(schema_);
  const catalog::Snapshot ref_snapshot(schema_, overlay);
  common::EvalContext ref_ctx;
  ref_ctx.snapshot = &ref_snapshot;
  const std::vector<double> want_base =
      ref_base.TryWorkloadCosts(w, configs).value();
  const std::vector<double> want_shift =
      ref_shift.TryWorkloadCosts(w, configs, ref_ctx).value();
  ASSERT_NE(want_base, want_shift);

  catalog::SnapshotManager manager(schema_);
  common::ThreadPool pool(8);
  constexpr size_t kRounds = 256;
  std::vector<std::vector<double>> got(kRounds);
  pool.ParallelFor(kRounds, [&](size_t i) {
    if (i % 8 == 0) {
      if ((i / 8) % 2 == 0) {
        manager.Publish(overlay);
      } else {
        manager.ResetToBase();
      }
      return;
    }
    // Pin the published snapshot for the whole batch, exactly as a serve
    // request does at admission.
    const std::shared_ptr<const catalog::Snapshot> pinned = manager.Current();
    common::EvalContext ctx;
    ctx.snapshot = pinned.get();
    got[i] = opt.TryWorkloadCosts(w, configs, ctx).value();
  });
  for (size_t i = 0; i < kRounds; ++i) {
    if (i % 8 == 0) continue;
    EXPECT_TRUE(got[i] == want_base || got[i] == want_shift)
        << "round " << i << " returned a torn epoch mix";
  }
}

}  // namespace
}  // namespace trap::engine
