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

void BM_WhatIfCostCached(benchmark::State& state) {
  Fixture& f = fixture();
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        f.optimizer.QueryCost(f.queries[i++ % f.queries.size()], f.config));
  }
}
BENCHMARK(BM_WhatIfCostCached);

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
// greedy round funnels through, costed cold and then warm on the calling
// thread. Both passes must return bit-identical costs.
void WorkloadCostingSection(const bench::BenchOptions& opt) {
  Fixture& f = fixture();
  bench::PrintHeader("Workload costing — cold vs warm sweep");

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

  auto timed_sweep = [&] {
    auto start = std::chrono::steady_clock::now();
    std::vector<double> costs = f.optimizer.WorkloadCosts(w, configs);
    double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    return std::make_pair(seconds, std::move(costs));
  };

  f.optimizer.ClearCache();
  f.optimizer.ResetCounters();
  auto [cold_sec, cold_costs] = timed_sweep();
  const int64_t misses = f.optimizer.num_cache_misses();
  auto [warm_sec, warm_costs] = timed_sweep();

  const bool identical = cold_costs == warm_costs;
  std::printf("pairs costed:        %zu (%zu queries x %zu configs)\n",
              w.queries.size() * configs.size(), w.queries.size(),
              configs.size());
  std::printf("cold cache:          %.4f s  (%lld misses)\n", cold_sec,
              static_cast<long long>(misses));
  std::printf("warm cache:          %.4f s\n", warm_sec);
  std::printf("costs bit-identical: %s\n", identical ? "yes" : "NO — BUG");

  bench::BenchReport report("engine_micro");
  report.RecordPhase("workload_cost_cold", cold_sec);
  report.RecordPhase("workload_cost_warm", warm_sec);
  report.RecordMetric("costs_identical", identical ? 1.0 : 0.0);
  report.RecordMetric("what_if_pairs",
                      static_cast<double>(w.queries.size() * configs.size()));
  // The gate metric (whatif_pairs_per_sec) comes from the shared
  // median-of-N probe so every BENCH_*.json reports the same quantity; the
  // one-shot sweeps above are for the human-readable printout.
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
