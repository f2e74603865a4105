// Quickstart: assess the robustness of one index advisor with TRAP.
//
// Builds the TPC-H catalog, trains the learned utility model, fits TRAP
// against the Extend advisor, and reports the Index Utility Decrease Ratio
// (IUDR) on a held-out workload.

#include <cstdio>

#include "advisor/evaluation.h"
#include "advisor/registry.h"
#include "catalog/datasets.h"
#include "trap/perturber.h"
#include "workload/generator.h"

int main() {
  using namespace trap;
  namespace trapcore = ::trap::trap;

  // 1. Dataset and engine substrate.
  catalog::Schema schema = catalog::MakeTpcH(0.2);
  sql::Vocabulary vocab(schema, 8);
  engine::WhatIfOptimizer optimizer(schema);
  engine::TrueCostModel truth(schema);
  advisor::TuningConstraint constraint =
      advisor::TuningConstraint::Storage(schema.DataSizeBytes() / 2);

  // 2. Queries and workloads.
  workload::QueryGenerator gen(vocab, workload::GeneratorOptions{}, 42);
  std::vector<sql::Query> pool = gen.GeneratePool(60);
  common::Rng rng(7);
  std::vector<workload::Workload> training;
  for (int i = 0; i < 4; ++i) {
    training.push_back(workload::SampleWorkload(pool, 5, rng));
  }
  workload::Workload test = workload::SampleWorkload(pool, 6, rng);

  // 3. The victim advisor and the learned index utility model.
  std::unique_ptr<advisor::IndexAdvisor> victim =
      *advisor::MakeAdvisor("Extend", optimizer);
  gbdt::LearnedUtilityModel utility(optimizer, truth);
  utility.Train(pool, {engine::IndexConfig()});
  std::printf("learned utility model: holdout R^2 = %.3f\n",
              utility.holdout_r2());

  // 4. Fit TRAP (pretraining + reinforced perturbation policy learning).
  trapcore::GeneratorConfig config;
  config.method = trapcore::GenerationMethod::kTrap;
  config.constraint = trapcore::PerturbationConstraint::kSharedTable;
  config.epsilon = 5;
  config.agent.embed_dim = 32;
  config.agent.hidden_dim = 32;
  config.pretrain.num_pairs = 150;
  config.pretrain.epochs = 2;
  config.rl.epochs = 4;
  config.rl.workloads_per_epoch = 3;
  trapcore::AdversarialWorkloadGenerator generator(vocab, config);
  generator.Fit(victim.get(), nullptr, &optimizer, &utility, pool, training,
                constraint);

  // 5. Assess: utility on W vs the adversarial W'.
  advisor::RobustnessEvaluator evaluator(optimizer, truth);
  double u = evaluator.TryIndexUtility(*victim, nullptr, test, constraint, {})
                 .value_or(0.0);
  workload::Workload perturbed = generator.Generate(test);
  double u_prime =
      evaluator.TryIndexUtility(*victim, nullptr, perturbed, constraint, {})
          .value_or(0.0);
  std::printf("u(W)  = %.4f\nu(W') = %.4f\nIUDR  = %.4f\n", u, u_prime,
              advisor::RobustnessEvaluator::Iudr(u, u_prime));

  std::printf("\nexample perturbation:\n  %s\n->%s\n",
              sql::ToSql(test.queries[0].query, schema).c_str(),
              sql::ToSql(perturbed.queries[0].query, schema).c_str());
  return 0;
}
