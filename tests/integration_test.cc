// End-to-end integration: catalog -> engine -> advisors -> learned utility
// -> TRAP -> assessment, exercising the same pipeline as the paper's main
// experiment at a miniature scale.

#include <gtest/gtest.h>

#include "advisor/evaluation.h"
#include "advisor/registry.h"
#include "catalog/datasets.h"
#include "sql/tokenizer.h"
#include "trap/perturber.h"
#include "workload/generator.h"

namespace trap {
namespace {

namespace tc = ::trap::trap;

class IntegrationTest : public ::testing::Test {
 protected:
  IntegrationTest()
      : schema_(catalog::MakeTpcH(0.15)),
        vocab_(schema_, 8),
        optimizer_(schema_),
        truth_(schema_),
        utility_(optimizer_, truth_),
        evaluator_(optimizer_, truth_) {
    workload::GeneratorOptions gopt;
    gopt.max_tables = 3;
    workload::QueryGenerator gen(vocab_, gopt, 0xabc);
    pool_ = gen.GeneratePool(50);
    common::Rng rng(0xabd);
    for (int i = 0; i < 6; ++i) {
      training_.push_back(workload::SampleWorkload(pool_, 5, rng));
    }
    for (int i = 0; i < 4; ++i) {
      tests_.push_back(workload::SampleWorkload(pool_, 5, rng));
    }
    utility_.Train(pool_, {engine::IndexConfig()});
  }

  advisor::TuningConstraint Constraint() const {
    return advisor::TuningConstraint::Storage(schema_.DataSizeBytes() / 2);
  }

  // u(W) against the no-index Ib. No fault is armed here, so every
  // evaluation must succeed.
  double Utility(advisor::IndexAdvisor& advisor, const workload::Workload& w,
                 const advisor::TuningConstraint& constraint) const {
    common::StatusOr<double> u =
        evaluator_.TryIndexUtility(advisor, nullptr, w, constraint, {});
    EXPECT_TRUE(u.ok()) << u.status().ToString();
    return std::move(u).value_or(0.0);
  }

  catalog::Schema schema_;
  sql::Vocabulary vocab_;
  engine::WhatIfOptimizer optimizer_;
  engine::TrueCostModel truth_;
  gbdt::LearnedUtilityModel utility_;
  advisor::RobustnessEvaluator evaluator_;
  std::vector<sql::Query> pool_;
  std::vector<workload::Workload> training_;
  std::vector<workload::Workload> tests_;
};

TEST_F(IntegrationTest, FullPipelineProducesBoundedValidPerturbations) {
  auto victim = *advisor::MakeAdvisor("Extend", optimizer_);
  tc::GeneratorConfig config;
  config.method = tc::GenerationMethod::kTrap;
  config.constraint = tc::PerturbationConstraint::kSharedTable;
  config.epsilon = 5;
  config.agent.embed_dim = 24;
  config.agent.hidden_dim = 24;
  config.pretrain.num_pairs = 60;
  config.pretrain.epochs = 1;
  config.rl.epochs = 4;
  config.rl.workloads_per_epoch = 2;
  config.rl.theta = 0.02;
  tc::AdversarialWorkloadGenerator generator(vocab_, config);
  generator.Fit(victim.get(), nullptr, &optimizer_, &utility_, pool_,
                training_, Constraint());

  int assessed = 0;
  for (const workload::Workload& w : tests_) {
    double u = Utility(*victim, w, Constraint());
    workload::Workload perturbed = generator.TryGenerate(w).value();
    ASSERT_EQ(perturbed.size(), w.size());
    for (int i = 0; i < w.size(); ++i) {
      const sql::Query& original = w.queries[static_cast<size_t>(i)].query;
      const sql::Query& pq = perturbed.queries[static_cast<size_t>(i)].query;
      EXPECT_TRUE(sql::ValidateQuery(pq, schema_));
      EXPECT_LE(sql::EditDistance(sql::ToTokens(original, vocab_),
                                  sql::ToTokens(pq, vocab_)),
                config.epsilon);
      // Perturbations never touch the join graph (Definition 3.4 footnote).
      EXPECT_EQ(pq.joins, original.joins);
      EXPECT_EQ(pq.tables, original.tables);
    }
    if (u > 0.1) {
      (void)Utility(*victim, perturbed, Constraint());  // IUDR well-defined
      ++assessed;
    }
  }
  EXPECT_GT(assessed, 0);
}

TEST_F(IntegrationTest, RewardTraceHasConfiguredLength) {
  auto victim = *advisor::MakeAdvisor("AutoAdmin", optimizer_);
  tc::GeneratorConfig config;
  config.method = tc::GenerationMethod::kSeq2Seq;
  config.constraint = tc::PerturbationConstraint::kColumnConsistent;
  config.epsilon = 4;
  config.agent.embed_dim = 24;
  config.agent.hidden_dim = 24;
  config.rl.epochs = 3;
  config.rl.workloads_per_epoch = 2;
  config.rl.theta = 0.0;
  tc::AdversarialWorkloadGenerator generator(vocab_, config);
  generator.Fit(victim.get(), nullptr, &optimizer_, &utility_, pool_,
                training_, Constraint());
  EXPECT_EQ(generator.rl_trace().mean_reward_per_epoch.size(), 3u);
}

TEST_F(IntegrationTest, ValueOnlyPerturbationPreservesTemplates) {
  auto victim = *advisor::MakeAdvisor("DTA", optimizer_);
  tc::GeneratorConfig config;
  config.method = tc::GenerationMethod::kRandom;
  config.constraint = tc::PerturbationConstraint::kValueOnly;
  config.epsilon = 3;
  tc::AdversarialWorkloadGenerator generator(vocab_, config);
  generator.Fit(victim.get(), nullptr, &optimizer_, &utility_, pool_,
                training_, Constraint());
  workload::Workload perturbed = generator.TryGenerate(tests_[0]).value();
  for (int i = 0; i < perturbed.size(); ++i) {
    EXPECT_EQ(workload::TemplateSignature(
                  tests_[0].queries[static_cast<size_t>(i)].query),
              workload::TemplateSignature(
                  perturbed.queries[static_cast<size_t>(i)].query));
  }
}

TEST_F(IntegrationTest, LearningAdvisorVulnerableToColumnDrift) {
  // The paper's headline finding at miniature scale: a frozen-action-space
  // learner loses far more utility than an adaptive heuristic when columns
  // drift. Uses random column-consistent perturbations (no RL needed).
  advisor::RegistryOptions registry;
  registry.seed = 0x17e;
  registry.rl_episodes = 250;
  registry.max_actions = 64;
  std::unique_ptr<advisor::LearningAdvisor> learner =
      *advisor::MakeLearningAdvisor("DRLindex", optimizer_, registry);
  advisor::TuningConstraint count =
      advisor::TuningConstraint::IndexCount(4, schema_.DataSizeBytes() / 2);
  learner->Train(training_, count);
  std::unique_ptr<advisor::IndexAdvisor> heuristic =
      *advisor::MakeAdvisor("Extend", optimizer_, registry);

  common::Rng rng(0x5ee);
  auto random_perturb = [&](const workload::Workload& w) {
    workload::Workload out;
    for (const workload::WorkloadQuery& wq : w.queries) {
      tc::ReferenceTree tree(wq.query, vocab_,
                             tc::PerturbationConstraint::kColumnConsistent, 5);
      while (!tree.Done()) tree.Advance(rng.Choice(tree.LegalTokens()));
      out.queries.push_back(
          workload::WorkloadQuery{tree.Materialize(), wq.weight});
    }
    return out;
  };

  double learner_drop = 0.0, heuristic_drop = 0.0;
  int n = 0;
  for (const workload::Workload& w : tests_) {
    double ul = Utility(*learner, w, count);
    double uh = Utility(*heuristic, w, Constraint());
    if (ul <= 0.1 || uh <= 0.1) continue;
    for (int a = 0; a < 3; ++a) {
      workload::Workload wp = random_perturb(w);
      learner_drop += advisor::RobustnessEvaluator::Iudr(
          ul, Utility(*learner, wp, count));
      heuristic_drop += advisor::RobustnessEvaluator::Iudr(
          uh, Utility(*heuristic, wp, Constraint()));
      ++n;
    }
  }
  ASSERT_GT(n, 0);
  EXPECT_GT(learner_drop / n, heuristic_drop / n);
}

}  // namespace
}  // namespace trap
