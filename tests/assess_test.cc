#include "assess/assess.h"

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <set>
#include <vector>

#include "advisor/registry.h"
#include "catalog/datasets.h"
#include "common/stats.h"
#include "workload/generator.h"

namespace trap::assess {
namespace {

namespace tc = ::trap::trap;

// A miniature TPC-H substrate: small pool, three training and four test
// workloads, the utility model trained on the pool alone.
struct MiniEnv {
  MiniEnv()
      : schema(catalog::MakeTpcH(0.2)),
        vocab(schema, 8),
        optimizer(schema),
        truth(schema),
        utility(optimizer, truth) {
    workload::GeneratorOptions opt;
    opt.max_tables = 2;
    opt.max_filters = 3;
    workload::QueryGenerator gen(vocab, opt, 909);
    pool = gen.GeneratePool(40);
    common::Rng rng(3);
    for (int i = 0; i < 3; ++i) {
      training.push_back(workload::SampleWorkload(pool, 4, rng));
    }
    for (int i = 0; i < 4; ++i) {
      tests.push_back(workload::SampleWorkload(pool, 4, rng));
    }
    utility.Train(pool, {engine::IndexConfig()});
    victim = *advisor::MakeAdvisor("Extend", optimizer);
  }

  Substrate substrate() const {
    return Substrate{vocab, optimizer, truth, utility, pool, training};
  }
  advisor::TuningConstraint constraint() const {
    return advisor::TuningConstraint::Storage(schema.DataSizeBytes() / 2);
  }
  double Utility(advisor::IndexAdvisor& advisor,
                 const workload::Workload& w) const {
    return *advisor::RobustnessEvaluator(optimizer, truth)
                .TryIndexUtility(advisor, nullptr, w, constraint(), {});
  }
  AssessmentSpec Spec(const tc::GeneratorConfig& generator,
                      double theta) const {
    return AssessmentSpec{.victim = victim.get(),
                          .generator = generator,
                          .constraint = constraint(),
                          .theta = theta,
                          .tests = tests};
  }

  catalog::Schema schema;
  sql::Vocabulary vocab;
  engine::WhatIfOptimizer optimizer;
  engine::TrueCostModel truth;
  gbdt::LearnedUtilityModel utility;
  std::vector<sql::Query> pool;
  std::vector<workload::Workload> training;
  std::vector<workload::Workload> tests;
  std::unique_ptr<advisor::IndexAdvisor> victim;
};

tc::GeneratorConfig RandomConfig() {
  tc::GeneratorConfig config;
  config.method = tc::GenerationMethod::kRandom;
  config.constraint = tc::PerturbationConstraint::kSharedTable;
  config.epsilon = 5;
  config.seed = 31;
  return config;
}

tc::GeneratorConfig TinyTrapConfig() {
  tc::GeneratorConfig config;
  config.method = tc::GenerationMethod::kTrap;
  config.constraint = tc::PerturbationConstraint::kColumnConsistent;
  config.epsilon = 4;
  config.agent.embed_dim = 16;
  config.agent.hidden_dim = 16;
  config.pretrain.num_pairs = 20;
  config.pretrain.epochs = 1;
  config.rl.epochs = 2;
  config.rl.workloads_per_epoch = 2;
  config.rl.theta = 0.0;
  config.seed = 37;
  return config;
}

// High enough that the theta gate skips a test of the miniature substrate.
constexpr double kTheta = 0.45;

// Checks the record against the protocol, recomputing every utility, the
// filter and the IUDR directly (Extend is pure, so re-asking it is exact).
void ExpectFollowsProtocol(const MiniEnv& env, const AssessmentRecord& record,
                           int per_test) {
  std::vector<int> eligible_tests;
  for (size_t t = 0; t < env.tests.size(); ++t) {
    if (env.Utility(*env.victim, env.tests[t]) > kTheta) {
      eligible_tests.push_back(static_cast<int>(t));
    }
  }
  ASSERT_FALSE(eligible_tests.empty()) << "miniature substrate has no data";
  EXPECT_LT(eligible_tests.size(), env.tests.size()) << "gate never skips";
  ASSERT_EQ(record.workloads.size(), eligible_tests.size() * per_test);
  std::unique_ptr<advisor::IndexAdvisor> extend =
      *advisor::MakeAdvisor("Extend", env.optimizer);
  std::unique_ptr<advisor::IndexAdvisor> autoadmin =
      *advisor::MakeAdvisor("AutoAdmin", env.optimizer);
  double sum = 0.0;
  int unfiltered = 0;
  for (size_t i = 0; i < record.workloads.size(); ++i) {
    const AssessedWorkload& a = record.workloads[i];
    EXPECT_EQ(a.test, eligible_tests[i / static_cast<size_t>(per_test)]);
    EXPECT_GT(a.u, kTheta);
    EXPECT_EQ(a.u,
              env.Utility(*env.victim, env.tests[static_cast<size_t>(a.test)]));
    const bool non_sargable = env.Utility(*extend, a.perturbed) < kTheta &&
                              env.Utility(*autoadmin, a.perturbed) < kTheta;
    EXPECT_EQ(a.filtered, non_sargable);
    if (a.filtered) continue;
    EXPECT_EQ(a.u_prime, env.Utility(*env.victim, a.perturbed));
    EXPECT_EQ(a.iudr,
              common::Clamp(advisor::RobustnessEvaluator::Iudr(a.u, a.u_prime),
                            -1.0, 2.0));
    sum += a.iudr;
    ++unfiltered;
  }
  EXPECT_EQ(record.eligible(), unfiltered);
  EXPECT_EQ(record.eligible() + record.filtered(),
            static_cast<int>(record.workloads.size()));
  if (unfiltered == 0) {
    EXPECT_EQ(record.mean_iudr(), std::nullopt);
  } else {
    ASSERT_TRUE(record.mean_iudr().has_value());
    EXPECT_EQ(*record.mean_iudr(), sum / unfiltered);
  }
}

TEST(AssessTest, ClampedIudrBoundsTheRatio) {
  EXPECT_EQ(ClampedIudr(0.5, 0.25), 0.5);
  EXPECT_EQ(ClampedIudr(0.1, 0.5), kMinIudr);   // raw IUDR -4
  EXPECT_EQ(ClampedIudr(0.1, -0.5), kMaxIudr);  // raw IUDR 6
  EXPECT_EQ(ClampedIudr(0.0, 0.3), 0.0);        // u = 0 has no ratio
}

TEST(AssessTest, RandomAssessesRandomAttemptsPerEligibleTest) {
  MiniEnv env;
  const tc::GeneratorConfig config = RandomConfig();
  const AssessmentRecord record =
      *Assess(env.substrate(), env.Spec(config, kTheta));
  ExpectFollowsProtocol(env, record, config.random_attempts);
}

TEST(AssessTest, TrainedMethodAssessesOneWorkloadPerEligibleTest) {
  MiniEnv env;
  const AssessmentRecord record =
      *Assess(env.substrate(), env.Spec(TinyTrapConfig(), kTheta));
  ExpectFollowsProtocol(env, record, 1);
}

TEST(AssessTest, ThetaOneLeavesNoData) {
  MiniEnv env;
  // u = 1 - c(f(W)) / c(empty) < 1 always, so no test clears theta = 1.
  const AssessmentRecord record =
      *Assess(env.substrate(), env.Spec(RandomConfig(), 1.0));
  EXPECT_TRUE(record.workloads.empty());
  EXPECT_EQ(record.eligible(), 0);
  EXPECT_EQ(record.filtered(), 0);
  EXPECT_EQ(record.mean_iudr(), std::nullopt);
}

TEST(AssessTest, MissingVictimIsInvalidArgument) {
  MiniEnv env;
  AssessmentSpec spec = env.Spec(RandomConfig(), kTheta);
  spec.victim = nullptr;
  EXPECT_EQ(Assess(env.substrate(), spec).status().code(),
            common::StatusCode::kInvalidArgument);
}

TEST(AssessTest, IsNonSargableMeansBothReferencesBelowTheta) {
  MiniEnv env;
  std::unique_ptr<advisor::IndexAdvisor> extend =
      *advisor::MakeAdvisor("Extend", env.optimizer);
  std::unique_ptr<advisor::IndexAdvisor> autoadmin =
      *advisor::MakeAdvisor("AutoAdmin", env.optimizer);
  std::vector<workload::Workload> workloads = env.tests;
  // Single-query workloads reach both sides of the filter.
  for (const sql::Query& q : env.pool) {
    workloads.push_back(workload::Workload{{workload::WorkloadQuery{q, 1.0}}});
  }
  std::set<bool> seen;
  for (double theta : {0.02, 0.1, 0.5}) {
    for (const workload::Workload& w : workloads) {
      const bool expected = env.Utility(*extend, w) < theta &&
                            env.Utility(*autoadmin, w) < theta;
      EXPECT_EQ(*IsNonSargable(env.substrate(), w, env.constraint(), theta),
                expected);
      seen.insert(expected);
    }
  }
  EXPECT_EQ(seen.size(), 2u) << "both outcomes should be exercised";
}

// Separate assessments on separate engine state (fresh optimizer, utility
// model and victim) must agree bit for bit: the same spec is the same unit
// of work wherever it runs.
TEST(AssessTest, FreshSubstratesGiveBitIdenticalRecords) {
  for (const tc::GeneratorConfig& config : {RandomConfig(), TinyTrapConfig()}) {
    MiniEnv first;
    MiniEnv second;
    const AssessmentRecord a =
        *Assess(first.substrate(), first.Spec(config, kTheta));
    const AssessmentRecord b =
        *Assess(second.substrate(), second.Spec(config, kTheta));
    ASSERT_EQ(a.workloads.size(), b.workloads.size());
    ASSERT_FALSE(a.workloads.empty());
    for (size_t i = 0; i < a.workloads.size(); ++i) {
      const AssessedWorkload& x = a.workloads[i];
      const AssessedWorkload& y = b.workloads[i];
      EXPECT_EQ(x.test, y.test);
      EXPECT_EQ(x.u, y.u);
      EXPECT_EQ(advisor::WorkloadFingerprint(x.perturbed),
                advisor::WorkloadFingerprint(y.perturbed));
      EXPECT_EQ(x.filtered, y.filtered);
      EXPECT_EQ(x.u_prime, y.u_prime);
      EXPECT_EQ(x.iudr, y.iudr);
    }
    EXPECT_EQ(a.mean_iudr(), b.mean_iudr());
    EXPECT_EQ(a.failures.size(), b.failures.size());
  }
}

}  // namespace
}  // namespace trap::assess
