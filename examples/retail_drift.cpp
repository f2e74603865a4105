// Retail workload drift: an online retailer issues the same report queries
// with different parameter bindings each season (the paper's motivating
// Value-Only scenario). This example shows how far a tuned index
// configuration degrades when only the literals move — comparing random
// drift against TRAP-directed drift.

#include <cstdio>
#include <optional>

#include "advisor/registry.h"
#include "assess/assess.h"
#include "catalog/datasets.h"
#include "workload/generator.h"

namespace {

using namespace trap;
namespace trapcore = ::trap::trap;

// Builds a seasonal sales-report template bundle over TPC-H. Each report
// pins a selective binding (one date, the top price band), so an index
// serves it and the tuned configuration has utility to lose.
workload::Workload SalesReports(const catalog::Schema& schema,
                                const sql::Vocabulary& vocab) {
  workload::Workload w;
  auto col = [&](const char* t, const char* c) {
    return *schema.FindColumn(t, c);
  };
  // Report 1: one market segment's revenue on one order date.
  {
    sql::Query q;
    q.select = {sql::SelectItem{sql::AggFunc::kNone, col("orders", "o_orderdate")},
                sql::SelectItem{sql::AggFunc::kSum, col("orders", "o_totalprice")}};
    q.tables = {*schema.FindTable("customer"), *schema.FindTable("orders")};
    std::sort(q.tables.begin(), q.tables.end());
    q.joins = {sql::JoinPredicate{col("orders", "o_custkey"),
                                  col("customer", "c_custkey")}};
    q.filters = {
        sql::Predicate{col("customer", "c_mktsegment"), sql::CmpOp::kEq,
                       vocab.BucketValue(col("customer", "c_mktsegment"), 1)},
        sql::Predicate{col("orders", "o_orderdate"), sql::CmpOp::kEq,
                       vocab.BucketValue(col("orders", "o_orderdate"), 5)}};
    q.group_by = {col("orders", "o_orderdate")};
    w.queries.push_back(workload::WorkloadQuery{q, 1.0});
  }
  // Report 2: discounts of the line items shipped on one day in a
  // quantity band.
  {
    sql::Query q;
    q.select = {sql::SelectItem{sql::AggFunc::kNone, col("lineitem", "l_shipdate")},
                sql::SelectItem{sql::AggFunc::kAvg, col("lineitem", "l_discount")}};
    q.tables = {*schema.FindTable("lineitem")};
    q.filters = {
        sql::Predicate{col("lineitem", "l_quantity"), sql::CmpOp::kLt,
                       vocab.BucketValue(col("lineitem", "l_quantity"), 2)},
        sql::Predicate{col("lineitem", "l_shipdate"), sql::CmpOp::kEq,
                       vocab.BucketValue(col("lineitem", "l_shipdate"), 6)}};
    q.group_by = {col("lineitem", "l_shipdate")};
    w.queries.push_back(workload::WorkloadQuery{q, 1.0});
  }
  // Report 3: high-value orders of one status, by priority.
  {
    sql::Query q;
    q.select = {sql::SelectItem{sql::AggFunc::kNone, col("orders", "o_orderpriority")},
                sql::SelectItem{sql::AggFunc::kCount, col("orders", "o_orderkey")}};
    q.tables = {*schema.FindTable("orders")};
    q.filters = {
        sql::Predicate{col("orders", "o_orderstatus"), sql::CmpOp::kEq,
                       vocab.BucketValue(col("orders", "o_orderstatus"), 0)},
        sql::Predicate{col("orders", "o_totalprice"), sql::CmpOp::kGt,
                       vocab.BucketValue(col("orders", "o_totalprice"), 7)}};
    q.group_by = {col("orders", "o_orderpriority")};
    w.queries.push_back(workload::WorkloadQuery{q, 1.0});
  }
  return w;
}

}  // namespace

int main() {
  catalog::Schema schema = catalog::MakeTpcH(0.2);
  sql::Vocabulary vocab(schema, 8);
  engine::WhatIfOptimizer optimizer(schema);
  engine::TrueCostModel truth(schema);
  advisor::TuningConstraint constraint =
      advisor::TuningConstraint::Storage(schema.DataSizeBytes() / 2);

  workload::Workload reports = SalesReports(schema, vocab);
  std::vector<workload::Workload> training = {reports};

  std::unique_ptr<advisor::IndexAdvisor> victim =
      *advisor::MakeAdvisor("DB2Advis", optimizer);
  gbdt::LearnedUtilityModel utility(optimizer, truth);
  workload::QueryGenerator gen(vocab, workload::GeneratorOptions{}, 4);
  const std::vector<sql::Query> pool = gen.GeneratePool(80);
  utility.Train(pool, {engine::IndexConfig()});
  const assess::Substrate substrate{vocab,   optimizer, truth,
                                    utility, pool,      training};

  // Random scores the mean over its random_attempts drifted bundles, TRAP
  // its one adversarial bundle; a bundle no index can serve is filtered.
  std::printf("DB2Advis on the seasonal reports\n\n");
  std::printf("%-10s %8s %8s %8s %8s\n", "drift", "u(W)", "IUDR", "bundles",
              "filtered");
  for (trapcore::GenerationMethod m :
       {trapcore::GenerationMethod::kRandom, trapcore::GenerationMethod::kTrap}) {
    trapcore::GeneratorConfig config;
    config.method = m;
    config.constraint = trapcore::PerturbationConstraint::kValueOnly;
    config.epsilon = 3;
    config.agent.embed_dim = 32;
    config.agent.hidden_dim = 32;
    config.pretrain.num_pairs = 100;
    config.pretrain.epochs = 2;
    config.rl.epochs = 5;
    config.rl.workloads_per_epoch = 2;
    config.rl.theta = 0.02;
    const assess::AssessmentRecord record =
        *assess::Assess(substrate, {.victim = victim.get(),
                                    .generator = config,
                                    .constraint = constraint,
                                    .theta = 0.02,
                                    .tests = {reports}});
    std::printf("%-10s", trapcore::MethodName(m));
    if (record.workloads.empty()) {  // u(W) <= theta: nothing to degrade
      std::printf(" %8s %8s %8d %8d\n", "n/a", "n/a", 0, 0);
      continue;
    }
    std::printf(" %8.4f", record.workloads[0].u);
    const std::optional<double> iudr = record.mean_iudr();
    if (iudr.has_value()) {
      std::printf(" %8.4f", *iudr);
    } else {
      std::printf(" %8s", "n/a");
    }
    std::printf(" %8zu %8d\n", record.workloads.size(), record.filtered());
  }
  std::printf("\nValue-Only drift keeps every template intact; TRAP finds the "
              "parameter bindings the tuned indexes serve worst.\n");
  return 0;
}
