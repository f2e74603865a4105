// Quickstart: assess the robustness of one index advisor with TRAP.
//
// Builds the TPC-H catalog, trains the learned utility model, then runs one
// assessment (assess::Assess): fit TRAP against the Extend advisor and
// report the Index Utility Decrease Ratio (IUDR) on a held-out workload.

#include <cstdio>

#include "advisor/registry.h"
#include "assess/assess.h"
#include "catalog/datasets.h"
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

  // 4. Assess: fit TRAP (pretraining + reinforced perturbation policy
  //    learning), then compare the utility on W with that on the
  //    adversarial W'.
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
  const assess::AssessmentRecord record = *assess::Assess(
      assess::Substrate{vocab, optimizer, truth, utility, pool, training},
      {.victim = victim.get(),
       .generator = config,
       .constraint = constraint,
       .theta = 0.02,
       .tests = {test}});
  if (record.workloads.empty()) {
    std::printf("u(W) <= 0.02: no index helps W, so there is nothing to "
                "degrade\n");
    return 0;
  }
  const assess::AssessedWorkload& result = record.workloads[0];
  std::printf("u(W)  = %.4f\n", result.u);
  if (result.filtered) {
    std::printf("W' is non-sargable (no index serves it): no IUDR\n");
  } else {
    std::printf("u(W') = %.4f\nIUDR  = %.4f\n", result.u_prime, result.iudr);
  }

  std::printf("\nexample perturbation:\n  %s\n->%s\n",
              sql::ToSql(test.queries[0].query, schema).c_str(),
              sql::ToSql(result.perturbed.queries[0].query, schema).c_str());
  return 0;
}
