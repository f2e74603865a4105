// Microbenchmarks (google-benchmark) of the substrate hot paths: what-if
// costing, plan construction, learned-utility prediction, reference-tree
// decoding. These bound the throughput of every experiment harness.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>

#include "catalog/datasets.h"
#include "engine/what_if.h"
#include "gbdt/features.h"
#include "gbdt/utility_model.h"
#include "harness.h"
#include "trap/reference_tree.h"
#include "workload/generator.h"

namespace {

using namespace trap;
namespace tc = ::trap::trap;

struct Fixture {
  Fixture()
      : schema(catalog::MakeTpcH()),
        vocab(schema, 8),
        optimizer(schema),
        truth(schema),
        utility(optimizer, truth) {
    workload::QueryGenerator gen(vocab, workload::GeneratorOptions{}, 3);
    queries = gen.GeneratePool(64);
    utility.Train(queries, {engine::IndexConfig()});
    auto ship = *schema.FindColumn("lineitem", "l_shipdate");
    auto date = *schema.FindColumn("orders", "o_orderdate");
    config.Add(engine::Index{{ship}});
    config.Add(engine::Index{{date}});
  }
  catalog::Schema schema;
  sql::Vocabulary vocab;
  engine::WhatIfOptimizer optimizer;
  engine::TrueCostModel truth;
  gbdt::LearnedUtilityModel utility;
  std::vector<sql::Query> queries;
  engine::IndexConfig config;
};

Fixture& fixture() {
  static Fixture* f = new Fixture();
  return *f;
}

void BM_WhatIfQueryCost(benchmark::State& state) {
  Fixture& f = fixture();
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        f.optimizer.QueryCost(f.queries[i++ % f.queries.size()], f.config));
  }
}
BENCHMARK(BM_WhatIfQueryCost);

void BM_PlanConstruction(benchmark::State& state) {
  Fixture& f = fixture();
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        f.optimizer.Plan(f.queries[i++ % f.queries.size()], f.config));
  }
}
BENCHMARK(BM_PlanConstruction);

void BM_TrueCost(benchmark::State& state) {
  Fixture& f = fixture();
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        f.truth.QueryCost(f.queries[i++ % f.queries.size()], f.config));
  }
}
BENCHMARK(BM_TrueCost);

void BM_UtilityPrediction(benchmark::State& state) {
  Fixture& f = fixture();
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        f.utility.PredictQueryCost(f.queries[i++ % f.queries.size()], f.config));
  }
}
BENCHMARK(BM_UtilityPrediction);

void BM_PlanFeatureExtraction(benchmark::State& state) {
  Fixture& f = fixture();
  std::unique_ptr<engine::PlanNode> plan =
      f.optimizer.Plan(f.queries[0], f.config);
  for (auto _ : state) {
    benchmark::DoNotOptimize(gbdt::ExtractPlanFeatures(*plan));
  }
}
BENCHMARK(BM_PlanFeatureExtraction);

void BM_ReferenceTreeRandomDecode(benchmark::State& state) {
  Fixture& f = fixture();
  common::Rng rng(9);
  size_t i = 0;
  for (auto _ : state) {
    tc::ReferenceTree tree(f.queries[i++ % f.queries.size()], f.vocab,
                           tc::PerturbationConstraint::kSharedTable, 5);
    while (!tree.Done()) tree.Advance(rng.Choice(tree.LegalTokens()));
    benchmark::DoNotOptimize(tree.edit_distance());
  }
}
BENCHMARK(BM_ReferenceTreeRandomDecode);

// Workload-costing section: the candidate-benefit sweep that every advisor
// greedy round funnels through, costed twice on the calling thread. Costs
// are not cached, so the second sweep is timed (the first also compiles the
// query shapes) and both must return bit-identical costs.
void WorkloadCostingSection(const bench::BenchOptions& opt) {
  Fixture& f = fixture();
  bench::PrintHeader("Workload costing — candidate sweep");

  workload::Workload w;
  for (const sql::Query& q : f.queries) {
    w.queries.push_back(workload::WorkloadQuery{q, 1.0});
  }
  // One single-column candidate configuration per schema column — the shape
  // of an advisor's first greedy round.
  std::vector<engine::IndexConfig> configs;
  for (int g = 0; g < f.schema.num_columns(); ++g) {
    engine::IndexConfig cfg;
    cfg.Add(engine::Index{{f.schema.ColumnFromGlobalIndex(g)}});
    configs.push_back(cfg);
  }

  const std::vector<double> first_costs = f.optimizer.WorkloadCosts(w, configs);
  auto start = std::chrono::steady_clock::now();
  const std::vector<double> costs = f.optimizer.WorkloadCosts(w, configs);
  const double sweep_sec =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  const bool identical = first_costs == costs;
  std::printf("pairs costed:        %zu (%zu queries x %zu configs)\n",
              w.queries.size() * configs.size(), w.queries.size(),
              configs.size());
  std::printf("sweep:               %.4f s\n", sweep_sec);
  std::printf("costs bit-identical: %s\n", identical ? "yes" : "NO — BUG");

  bench::BenchReport report("engine_micro");
  report.RecordPhase("workload_cost", sweep_sec);
  report.RecordMetric("costs_identical", identical ? 1.0 : 0.0);
  report.RecordMetric("what_if_pairs",
                      static_cast<double>(w.queries.size() * configs.size()));
  // The gate metric (whatif_pairs_per_sec) comes from the shared
  // median-of-N probe so every BENCH_*.json reports the same quantity; the
  // one-shot sweep above is for the human-readable printout.
  bench::RecordWhatIfThroughput(&report, opt);
  report.Write();
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchOptions opt = bench::ParseBenchOptions(&argc, argv);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  WorkloadCostingSection(opt);
  return 0;
}
