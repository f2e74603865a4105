// Exploratory analysis drift: a sales analyst keeps refining the same
// queries — new payload columns, extra filter predicates (the paper's
// Shared-Table scenario, JOB/CEB-style). The example contrasts how a
// heuristic advisor (Extend) and a search-based one (MCTS) hold up when TRAP
// steers the exploration adversarially.

#include <cstdio>

#include "advisor/evaluation.h"
#include "advisor/registry.h"
#include "catalog/datasets.h"
#include "trap/perturber.h"
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

  advisor::RobustnessEvaluator evaluator(optimizer, truth);
  struct VictimSpec {
    std::unique_ptr<advisor::IndexAdvisor> advisor;
  };
  std::vector<VictimSpec> victims;
  victims.push_back(VictimSpec{*advisor::MakeAdvisor("Extend", optimizer)});
  victims.push_back(VictimSpec{*advisor::MakeAdvisor("MCTS", optimizer)});

  std::printf("banking schema (%d tables / %d columns), Shared-Table drift\n\n",
              schema.num_tables(), schema.num_columns());
  std::printf("%-10s %10s %10s %8s\n", "advisor", "u(W)", "u(W')", "IUDR");
  for (VictimSpec& v : victims) {
    double u = evaluator
                   .TryIndexUtility(*v.advisor, nullptr, analyst_session,
                                    constraint, {})
                   .value_or(0.0);
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
    trapcore::AdversarialWorkloadGenerator generator(vocab, config);
    generator.Fit(v.advisor.get(), nullptr, &optimizer, &utility, pool,
                  training, constraint);
    workload::Workload drifted = generator.Generate(analyst_session);
    double u_prime =
        evaluator.TryIndexUtility(*v.advisor, nullptr, drifted, constraint, {})
            .value_or(0.0);
    std::printf("%-10s %10.4f %10.4f %8.4f\n", v.advisor->name().c_str(), u,
                u_prime, advisor::RobustnessEvaluator::Iudr(u, u_prime));
  }
  std::printf("\nShared-Table perturbations may add payloads and predicates, "
              "the most flexible (and most damaging) drift class.\n");
  return 0;
}
