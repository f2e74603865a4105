// Advisor bakeoff: rank all ten index advisors by robustness against the
// same adversarial drift, mirroring the paper's headline assessment at a
// miniature scale. Heuristic advisors are measured against the no-index
// baseline; learning-based advisors against their Table III pairings.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "advisor/registry.h"
#include "assess/assess.h"
#include "catalog/datasets.h"
#include "workload/generator.h"

int main() {
  using namespace trap;
  namespace trapcore = ::trap::trap;

  catalog::Schema schema = catalog::MakeTpcH(0.15);
  sql::Vocabulary vocab(schema, 8);
  engine::WhatIfOptimizer optimizer(schema);
  engine::TrueCostModel truth(schema);
  advisor::TuningConstraint constraint =
      advisor::TuningConstraint::IndexCount(4, schema.DataSizeBytes() / 2);

  workload::GeneratorOptions gopt;
  gopt.max_tables = 2;
  gopt.max_filters = 3;
  workload::QueryGenerator gen(vocab, gopt, 77);
  std::vector<sql::Query> pool = gen.GeneratePool(50);
  common::Rng rng(78);
  std::vector<workload::Workload> training;
  for (int i = 0; i < 3; ++i) {
    training.push_back(workload::SampleWorkload(pool, 4, rng));
  }
  std::vector<workload::Workload> tests;
  for (int i = 0; i < 2; ++i) {
    tests.push_back(workload::SampleWorkload(pool, 4, rng));
  }

  // Every advisor of Table III, ranked under one shared #index constraint.
  advisor::RegistryOptions registry;
  registry.seed = 0x5417e;
  registry.rl_episodes = 300;
  registry.max_actions = 48;
  registry.mcts_iterations = 300;
  std::printf("training the learning-based advisors (SWIRL, DRLindex, DQN)...\n");
  std::vector<std::unique_ptr<advisor::IndexAdvisor>> victims;
  for (const advisor::AdvisorSpec& row : advisor::AdvisorTable()) {
    if (!row.trainable) {
      victims.push_back(*advisor::MakeAdvisor(row.name, optimizer, registry));
      continue;
    }
    std::unique_ptr<advisor::LearningAdvisor> learner =
        *advisor::MakeLearningAdvisor(row.name, optimizer, registry);
    learner->Train(training, constraint);
    victims.push_back(std::move(learner));
  }

  gbdt::LearnedUtilityModel utility(optimizer, truth);
  utility.Train(pool, {engine::IndexConfig()});
  const assess::Substrate substrate{vocab,   optimizer, truth,
                                    utility, pool,      training};

  struct Row {
    std::string name;
    std::optional<double> mean_iudr;  // nullopt: no eligible workload
  };
  std::vector<Row> rows;
  for (size_t i = 0; i < victims.size(); ++i) {
    const advisor::AdvisorSpec& spec = advisor::AdvisorTable()[i];
    const std::string name(spec.name);
    advisor::IndexAdvisor* victim = victims[i].get();
    std::unique_ptr<advisor::IndexAdvisor> baseline_owner;
    if (!spec.heuristic()) {
      baseline_owner = *advisor::MakeAdvisor(spec.baseline, optimizer, registry);
    }
    advisor::IndexAdvisor* baseline = baseline_owner.get();

    trapcore::GeneratorConfig config;
    config.method = trapcore::GenerationMethod::kTrap;
    config.constraint = trapcore::PerturbationConstraint::kColumnConsistent;
    config.epsilon = 5;
    config.agent.embed_dim = 24;
    config.agent.hidden_dim = 24;
    config.pretrain.num_pairs = 80;
    config.pretrain.epochs = 1;
    config.rl.epochs = 3;
    config.rl.workloads_per_epoch = 2;
    config.rl.theta = 0.02;
    config.seed = 0xbbb ^ std::hash<std::string>{}(name);
    const assess::AssessmentRecord record =
        *assess::Assess(substrate, {.victim = victim,
                                    .baseline = baseline,
                                    .generator = config,
                                    .constraint = constraint,
                                    .theta = 0.02,
                                    .tests = tests});
    rows.push_back(Row{name, record.mean_iudr()});
    std::printf("  assessed %-10s (eligible workloads: %d, filtered: %d)\n",
                name.c_str(), record.eligible(), record.filtered());
  }

  // Advisors without data rank last: no eligible workload says nothing
  // about robustness.
  std::stable_sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
    if (a.mean_iudr.has_value() != b.mean_iudr.has_value()) {
      return a.mean_iudr.has_value();
    }
    return a.mean_iudr.has_value() && *a.mean_iudr < *b.mean_iudr;
  });
  std::printf("\nrobustness ranking (smaller IUDR = more robust):\n");
  std::printf("%-12s %8s\n", "advisor", "IUDR");
  for (const Row& r : rows) {
    if (r.mean_iudr.has_value()) {
      std::printf("%-12s %8.4f\n", r.name.c_str(), *r.mean_iudr);
    } else {
      std::printf("%-12s %8s\n", r.name.c_str(), "n/a");
    }
  }
  return 0;
}
