// Retail workload drift: an online retailer issues the same report queries
// with different parameter bindings each season (the paper's motivating
// Value-Only scenario). This example shows how far a tuned index
// configuration degrades when only the literals move — comparing random
// drift against TRAP-directed drift.

#include <cstdio>

#include "advisor/evaluation.h"
#include "advisor/registry.h"
#include "catalog/datasets.h"
#include "trap/perturber.h"
#include "workload/generator.h"

namespace {

using namespace trap;
namespace trapcore = ::trap::trap;

// Builds a seasonal sales-report template bundle over TPC-H.
workload::Workload SalesReports(const catalog::Schema& schema,
                                const sql::Vocabulary& vocab) {
  workload::Workload w;
  auto col = [&](const char* t, const char* c) {
    return *schema.FindColumn(t, c);
  };
  // Report 1: revenue by order date for one market segment.
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
        sql::Predicate{col("orders", "o_orderdate"), sql::CmpOp::kGt,
                       vocab.BucketValue(col("orders", "o_orderdate"), 5)}};
    q.group_by = {col("orders", "o_orderdate")};
    w.queries.push_back(workload::WorkloadQuery{q, 1.0});
  }
  // Report 2: discounted line items in a quantity band.
  {
    sql::Query q;
    q.select = {sql::SelectItem{sql::AggFunc::kNone, col("lineitem", "l_shipdate")},
                sql::SelectItem{sql::AggFunc::kAvg, col("lineitem", "l_discount")}};
    q.tables = {*schema.FindTable("lineitem")};
    q.filters = {
        sql::Predicate{col("lineitem", "l_quantity"), sql::CmpOp::kLt,
                       vocab.BucketValue(col("lineitem", "l_quantity"), 2)},
        sql::Predicate{col("lineitem", "l_shipdate"), sql::CmpOp::kGt,
                       vocab.BucketValue(col("lineitem", "l_shipdate"), 6)}};
    q.group_by = {col("lineitem", "l_shipdate")};
    w.queries.push_back(workload::WorkloadQuery{q, 1.0});
  }
  // Report 3: open orders by priority.
  {
    sql::Query q;
    q.select = {sql::SelectItem{sql::AggFunc::kNone, col("orders", "o_orderpriority")},
                sql::SelectItem{sql::AggFunc::kCount, col("orders", "o_orderkey")}};
    q.tables = {*schema.FindTable("orders")};
    q.filters = {
        sql::Predicate{col("orders", "o_orderstatus"), sql::CmpOp::kEq,
                       vocab.BucketValue(col("orders", "o_orderstatus"), 0)},
        sql::Predicate{col("orders", "o_totalprice"), sql::CmpOp::kGt,
                       vocab.BucketValue(col("orders", "o_totalprice"), 4)}};
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
  utility.Train(gen.GeneratePool(80), {engine::IndexConfig()});

  advisor::RobustnessEvaluator evaluator(optimizer, truth);
  double u = evaluator.TryIndexUtility(*victim, nullptr, reports, constraint, {})
                 .value_or(0.0);
  std::printf("DB2Advis utility on the seasonal reports: %.4f\n\n", u);

  std::printf("%-10s %8s\n", "drift", "IUDR");
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
    trapcore::AdversarialWorkloadGenerator generator(vocab, config);
    generator.Fit(victim.get(), nullptr, &optimizer, &utility,
                  gen.GeneratePool(40), training, constraint);
    workload::Workload drifted = generator.Generate(reports);
    double u_prime =
        evaluator.TryIndexUtility(*victim, nullptr, drifted, constraint, {})
            .value_or(0.0);
    std::printf("%-10s %8.4f\n", trapcore::MethodName(m),
                advisor::RobustnessEvaluator::Iudr(u, u_prime));
  }
  std::printf("\nValue-Only drift keeps every template intact; TRAP finds the "
              "parameter bindings the tuned indexes serve worst.\n");
  return 0;
}
