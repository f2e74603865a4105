#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "catalog/datasets.h"
#include "catalog/snapshot.h"
#include "catalog/stats_overlay.h"
#include "common/deadline.h"
#include "common/thread_pool.h"
#include "engine/cost_model.h"
#include "engine/index.h"
#include "engine/plan.h"
#include "engine/scratch.h"
#include "engine/selectivity.h"
#include "engine/true_cost.h"
#include "engine/what_if.h"
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
  const double c1 = optimizer.QueryCost(q, none);
  for (int64_t calls = 2; calls <= 4; ++calls) {
    EXPECT_EQ(optimizer.QueryCost(q, none), c1);
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
    serial_total += wq.weight * serial_opt.QueryCost(wq.query, config);
  }

  for (int lanes : {1, 4, 8}) {
    WhatIfOptimizer shared(schema_);
    for (double total : FromConcurrentLanes(
             lanes, [&] { return shared.WorkloadCost(w, config); })) {
      EXPECT_EQ(total, serial_total) << "lanes=" << lanes;  // bit-identical
    }
    EXPECT_EQ(shared.num_calls(), lanes * serial_opt.num_calls());

    // Re-costing the same workload gives the same total and counts again.
    EXPECT_EQ(shared.WorkloadCost(w, config), serial_total);
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
      expected += wq.weight * ref.QueryCost(wq.query, config);
    }
    want.push_back(expected);
  }
  for (int lanes : {1, 4, 8}) {
    WhatIfOptimizer shared(schema_);
    for (const std::vector<double>& swept : FromConcurrentLanes(
             lanes, [&] { return shared.WorkloadCosts(w, configs); })) {
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
  const std::vector<double> first = opt.WorkloadCosts(w, configs);
  EXPECT_EQ(opt.cache_size(), w.queries.size());
  EXPECT_EQ(opt.num_calls(),
            static_cast<int64_t>(w.queries.size() * configs.size()));
  // A repeat sweep compiles nothing new and returns the same totals.
  EXPECT_EQ(opt.WorkloadCosts(w, configs), first);
  EXPECT_EQ(opt.cache_size(), w.queries.size());
}

TEST_F(EngineTest, ScratchArenaReusedAcrossRepeatedBatches) {
  WhatIfOptimizer opt(schema_);
  MiniWorkload w;
  for (int i = 0; i < 8; ++i) {
    sql::Query q = LineitemQuery(CmpOp::kLt);
    q.filters[0].value = Value::Int(10 + 20 * i);
    w.queries.push_back({q, 1.0});
  }
  std::vector<IndexConfig> configs(3);
  configs[1].Add(Index{{Col("lineitem", "l_shipdate")}});
  configs[2].Add(Index{{Col("lineitem", "l_quantity")}});
  common::EvalContext ctx;
  const BatchScratch& arena = ScratchLease::ThreadLocalForTest();
  (void)opt.WorkloadCosts(w, configs, ctx);
  const uint64_t gen_after_first = arena.generation;
  const size_t item_cap = arena.item_to_unique.capacity();
  const size_t unique_cap = arena.uniques.capacity();
  const size_t table_cap = arena.slot_keys.capacity();
  std::vector<double> a = opt.WorkloadCosts(w, configs, ctx);
  std::vector<double> b = opt.WorkloadCosts(w, configs, ctx);
  EXPECT_EQ(a, b);
  // Each batched call leased (and released) this thread's arena...
  EXPECT_EQ(arena.generation, gen_after_first + 2);
  EXPECT_FALSE(arena.in_use);
  // ...and steady-state batches run inside the capacity the first batch
  // grew: the generational-pool contract of zero reallocation on repeat.
  EXPECT_EQ(arena.item_to_unique.capacity(), item_cap);
  EXPECT_EQ(arena.uniques.capacity(), unique_cap);
  EXPECT_EQ(arena.slot_keys.capacity(), table_cap);
}

TEST_F(EngineTest, ShapeCacheCoherentWithFreshComputation) {
  WhatIfOptimizer warm(schema_);
  Query q = LineitemQuery(CmpOp::kLt);
  IndexConfig none;
  IndexConfig with;
  with.Add(Index{{Col("lineitem", "l_shipdate")}});
  double first_none = warm.QueryCost(q, none);
  double first_with = warm.QueryCost(q, with);
  EXPECT_EQ(warm.cache_size(), 1u);  // one shape serves both configs
  // Costs recomputed through the cached shape match a fresh optimizer —
  // and the raw kernel with no shape at all — bit for bit.
  WhatIfOptimizer fresh(schema_);
  EXPECT_EQ(warm.QueryCost(q, none), fresh.QueryCost(q, none));
  EXPECT_EQ(warm.QueryCost(q, with), fresh.QueryCost(q, with));
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

TEST_F(EngineTest, BatchDedupMatchesSerialAndKeepsAccounting) {
  // Every query appears twice (same fingerprint, different weights) and one
  // config is duplicated outright: dedup must collapse the evaluations yet
  // keep per-item call accounting and bit-identical weighted folds.
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
      expected += wq.weight * ref.QueryCost(wq.query, config);
    }
    want.push_back(expected);
  }

  // 1, 4 and 8 concurrent callers on one optimizer fold the batch to the
  // same bits as the serial reference.
  const int64_t items = static_cast<int64_t>(w.queries.size() * configs.size());
  for (int lanes : {1, 4, 8}) {
    WhatIfOptimizer shared(schema_);
    for (const std::vector<double>& swept : FromConcurrentLanes(
             lanes, [&] { return shared.WorkloadCosts(w, configs); })) {
      EXPECT_EQ(swept, want) << "lanes=" << lanes;
    }
    // Pre-dedup accounting: every (query, config) item charges one call,
    // and one shape is compiled per distinct query.
    EXPECT_EQ(shared.num_calls(), lanes * items);
    EXPECT_EQ(shared.cache_size(), 5u);
  }
}

// A batch that runs out of step budget returns early with an error; the
// calls granted a step before that are still counted, in the unique-pair
// loop and in the fold that accounts for deduplicated items alike.
TEST_F(EngineTest, ExpiredBudgetStillCountsGrantedCalls) {
  MiniWorkload w;
  for (int i = 0; i < 6; ++i) {
    sql::Query q = LineitemQuery(CmpOp::kLt);
    q.filters[0].value = Value::Int(25 + 30 * i);
    w.queries.push_back({q, 1.0});
    w.queries.push_back({q, 2.0});  // a duplicate pair, charged at fold time
  }
  IndexConfig config;
  config.Add(Index{{Col("lineitem", "l_shipdate")}});
  // 6 unique pairs, 12 items: a budget of 4 expires in the unique loop, a
  // budget of 8 in the fold.
  for (uint64_t budget : {4u, 8u}) {
    WhatIfOptimizer opt(schema_);
    common::CancelToken token(budget);
    common::EvalContext ctx;
    ctx.cancel = &token;
    EXPECT_FALSE(opt.TryWorkloadCost(w, config, ctx).ok()) << budget;
    EXPECT_EQ(opt.num_calls(), static_cast<int64_t>(budget)) << budget;
  }
}

TEST_F(EngineTest, TrueCostDivergesButCorrelates) {
  WhatIfOptimizer optimizer(schema_);
  TrueCostModel truth(schema_);
  IndexConfig none;
  IndexConfig with;
  with.Add(Index{{Col("lineitem", "l_shipdate")}});
  Query q = LineitemQuery();
  double est = optimizer.QueryCost(q, with);
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
  const double base = opt.QueryCost(q, with);
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
  const double shifted = opt.QueryCost(q, with, shifted_ctx);
  EXPECT_NE(shifted, base);
  WhatIfOptimizer fresh(schema_);
  EXPECT_EQ(fresh.QueryCost(q, with, shifted_ctx), shifted);

  // The base epoch was never touched: a snapshot-free probe (and an
  // explicit base snapshot) still see baseline costs, warm.
  EXPECT_EQ(opt.QueryCost(q, with), base);
  const catalog::Snapshot base_snapshot(schema_);
  common::EvalContext base_ctx;
  base_ctx.snapshot = &base_snapshot;
  EXPECT_EQ(base_snapshot.epoch(), 0u);
  EXPECT_EQ(opt.QueryCost(q, with, base_ctx), base);

  // A snapshot rebuilt from the same overlay content lands in the same
  // epoch and is costed from the retained epoch's warm shapes.
  const catalog::Snapshot again(schema_, overlay);
  EXPECT_EQ(again.epoch(), shifted_snapshot.epoch());
  common::EvalContext again_ctx;
  again_ctx.snapshot = &again;
  EXPECT_EQ(opt.QueryCost(q, with, again_ctx), shifted);
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
  const std::vector<double> want_base = ref_base.WorkloadCosts(w, configs);
  const std::vector<double> want_shift =
      ref_shift.WorkloadCosts(w, configs, ref_ctx);
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
    got[i] = opt.WorkloadCosts(w, configs, ctx);
  });
  for (size_t i = 0; i < kRounds; ++i) {
    if (i % 8 == 0) continue;
    EXPECT_TRUE(got[i] == want_base || got[i] == want_shift)
        << "round " << i << " returned a torn epoch mix";
  }
}

}  // namespace
}  // namespace trap::engine
