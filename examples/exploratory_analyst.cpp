// Exploratory analysis drift: a sales analyst keeps refining the same
// queries — new payload columns, extra filter predicates (the paper's
// Shared-Table scenario, JOB/CEB-style). The example contrasts how a
// heuristic advisor (Extend) and a search-based one (MCTS) hold up when TRAP
// steers the exploration adversarially.

#include <cstdio>

#include "advisor/registry.h"
#include "assess/assess.h"
#include "catalog/datasets.h"
#include "workload/generator.h"

int main() {
  using namespace trap;
  namespace trapcore = ::trap::trap;

  catalog::Schema schema = catalog::MakeTransaction(0.1);
  sql::Vocabulary vocab(schema, 8);
  engine::WhatIfOptimizer optimizer(schema);
  engine::TrueCostModel truth(schema);
  advisor::TuningConstraint constraint =
      advisor::TuningConstraint::IndexCount(4, schema.DataSizeBytes() / 2);

  workload::GeneratorOptions gopt;
  gopt.max_tables = 3;
  workload::QueryGenerator gen(vocab, gopt, 19);
  std::vector<sql::Query> pool = gen.GeneratePool(60);
  common::Rng rng(23);
  std::vector<workload::Workload> training;
  for (int i = 0; i < 3; ++i) {
    training.push_back(workload::SampleWorkload(pool, 4, rng));
  }
  workload::Workload analyst_session = workload::SampleWorkload(pool, 5, rng);

  gbdt::LearnedUtilityModel utility(optimizer, truth);
  utility.Train(pool, {engine::IndexConfig()});

  const assess::Substrate substrate{vocab,   optimizer, truth,
                                    utility, pool,      training};
  std::printf("banking schema (%d tables / %d columns), Shared-Table drift\n\n",
              schema.num_tables(), schema.num_columns());
  std::printf("%-10s %10s %10s %8s\n", "advisor", "u(W)", "u(W')", "IUDR");
  for (const char* name : {"Extend", "MCTS"}) {
    std::unique_ptr<advisor::IndexAdvisor> victim =
        *advisor::MakeAdvisor(name, optimizer);
    trapcore::GeneratorConfig config;
    config.method = trapcore::GenerationMethod::kTrap;
    config.constraint = trapcore::PerturbationConstraint::kSharedTable;
    config.epsilon = 6;
    config.agent.embed_dim = 32;
    config.agent.hidden_dim = 32;
    config.pretrain.num_pairs = 120;
    config.pretrain.epochs = 2;
    config.rl.epochs = 4;
    config.rl.workloads_per_epoch = 2;
    config.rl.theta = 0.02;
    const assess::AssessmentRecord record =
        *assess::Assess(substrate, {.victim = victim.get(),
                                    .generator = config,
                                    .constraint = constraint,
                                    .theta = 0.02,
                                    .tests = {analyst_session}});
    // An empty record: u(W) <= theta, so no index helps the session.
    std::printf("%-10s", name);
    if (record.workloads.empty()) {
      std::printf(" %10s %10s %8s\n", "n/a", "n/a", "n/a");
      continue;
    }
    const assess::AssessedWorkload& result = record.workloads[0];
    if (result.filtered) {  // no index serves the drifted session
      std::printf(" %10.4f %10s %8s\n", result.u, "filtered", "n/a");
    } else {
      std::printf(" %10.4f %10.4f %8.4f\n", result.u, result.u_prime,
                  result.iudr);
    }
  }
  std::printf("\nShared-Table perturbations may add payloads and predicates, "
              "the most flexible (and most damaging) drift class.\n");
  return 0;
}
