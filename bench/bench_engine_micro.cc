// Microbenchmarks (google-benchmark) of the substrate hot paths: what-if
// costing, plan construction, learned-utility prediction, reference-tree
// decoding, the two set-up training layers (DQN training, GBDT fitting) and
// the TRAP agent's RL update and generation. These bound the throughput of
// every experiment harness. Report-only.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cmath>
#include <cstdio>

#include "advisor/registry.h"
#include "catalog/datasets.h"
#include "engine/what_if.h"
#include "gbdt/features.h"
#include "gbdt/gbdt.h"
#include "gbdt/utility_model.h"
#include "harness.h"
#include "nn/adam.h"
#include "trap/reference_tree.h"
#include "trap/training.h"
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
        f.optimizer
            .TryQueryCost(f.queries[i++ % f.queries.size()], f.config)
            .value());
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

// Learner layer: trains a DQN victim (60 episodes, one batched tape per
// replay update) on six 6-query workloads under a 4-index budget.
void BM_DqnTrain(benchmark::State& state) {
  Fixture& f = fixture();
  common::Rng rng(11);
  std::vector<workload::Workload> training;
  for (int i = 0; i < 6; ++i) {
    training.push_back(workload::SampleWorkload(f.queries, 6, rng));
  }
  advisor::RegistryOptions opt;
  opt.rl_episodes = 60;
  opt.max_actions = 24;
  const advisor::TuningConstraint constraint =
      advisor::TuningConstraint::IndexCount(4, f.schema.DataSizeBytes() / 2);
  for (auto _ : state) {
    auto dqn = *advisor::MakeLearningAdvisor("DQN", f.optimizer, opt);
    dqn->Train(training, constraint);
    benchmark::DoNotOptimize(dqn.get());
  }
}
BENCHMARK(BM_DqnTrain)->Unit(benchmark::kMillisecond);

// GBDT layer: fits the utility model's default regressor (200 trees) on the
// plan features of the fixture's queries under four configurations.
void BM_GbdtFit(benchmark::State& state) {
  Fixture& f = fixture();
  std::vector<engine::IndexConfig> configs(4);
  configs[1] = f.config;
  configs[2].Add(f.config.indexes()[0]);
  configs[3].Add(f.config.indexes()[1]);
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  for (const sql::Query& q : f.queries) {
    for (const engine::IndexConfig& c : configs) {
      std::unique_ptr<engine::PlanNode> plan = f.optimizer.Plan(q, c);
      x.push_back(gbdt::ExtractPlanFeatures(*plan));
      y.push_back(std::log1p(f.truth.PlanCost(*plan, q, c)));
    }
  }
  for (auto _ : state) {
    gbdt::GbdtRegressor model;
    model.Fit(x, y);
    benchmark::DoNotOptimize(model.num_trees());
  }
}
BENCHMARK(BM_GbdtFit)->Unit(benchmark::kMillisecond);

// The TRAP agent of the assessment benchmark (Bi-GRU encoder, attention
// decoder, 32-wide) and a 5-query workload from the fixture's queries.
struct AgentFixture {
  AgentFixture() : agent(fixture().vocab, Options()) {
    for (int i = 0; i < 5; ++i) {
      const sql::Query& q = fixture().queries[static_cast<size_t>(i)];
      w.queries.push_back(workload::WorkloadQuery{q, 1.0});
    }
  }
  static tc::AgentOptions Options() {
    tc::AgentOptions options;
    options.embed_dim = 32;
    options.hidden_dim = 32;
    return options;
  }
  tc::TrapAgent agent;
  workload::Workload w;
};

constexpr tc::PerturbationConstraint kBenchConstraint =
    tc::PerturbationConstraint::kSharedTable;

// nn layer under RL: one policy-gradient step -- the 5 queries' sampled
// episodes on one tape, Backward, and an Adam step.
void BM_TrapRlUpdate(benchmark::State& state) {
  AgentFixture f;
  const sql::Vocabulary& vocab = fixture().vocab;
  nn::Adam adam(f.agent.store().parameters(), 1e-3);
  adam.set_max_grad_norm(5.0);
  common::Rng rng(17);
  for (auto _ : state) {
    nn::Graph g;
    nn::Graph::VarId logp = g.Input(nn::Matrix(1, 1));
    for (const workload::WorkloadQuery& wq : f.w.queries) {
      tc::TrapAgent::EpisodeResult r = f.agent.RunEpisode(
          &g, tc::ReferenceTree(wq.query, vocab, kBenchConstraint, 5),
          tc::TrapAgent::Mode::kSample, &rng);
      logp = g.Add(logp, r.log_prob_var);
    }
    g.Backward(g.Scale(logp, -0.1));
    adam.Step();
  }
}
BENCHMARK(BM_TrapRlUpdate)->Unit(benchmark::kMillisecond);

// Generation: the greedy decode and two sampled decodes of one workload
// that the best-of-3 selection scores, sharing one record of encodings.
void BM_TrapGenerate(benchmark::State& state) {
  AgentFixture f;
  tc::RlOptions rl;
  rl.use_learned_utility = false;
  const tc::RlTrainer trainer(&f.agent, nullptr, nullptr, nullptr, nullptr,
                              kBenchConstraint, 5, advisor::TuningConstraint(),
                              rl);
  common::Rng rng(19);
  for (auto _ : state) {
    tc::TrapAgent::Encodings encodings;
    benchmark::DoNotOptimize(trainer.Perturb(f.w, {}, &encodings));
    for (int i = 0; i < 2; ++i) {
      benchmark::DoNotOptimize(
          trainer.PerturbSampled(f.w, rng, {}, &encodings));
    }
  }
}
BENCHMARK(BM_TrapGenerate)->Unit(benchmark::kMillisecond);

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

  const std::vector<double> first_costs =
      f.optimizer.TryWorkloadCosts(w, configs).value();
  auto start = std::chrono::steady_clock::now();
  const std::vector<double> costs =
      f.optimizer.TryWorkloadCosts(w, configs).value();
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
