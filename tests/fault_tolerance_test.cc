// Fault-tolerance runtime tests: the Status taxonomy, deterministic step
// budgets, the fault-site registry, retry-with-backoff, and graceful
// advisor degradation. The table-driven cases arm each site at p=1.0 and
// assert the exact Status code, retry count, and FailureRecord the runtime
// must produce; the determinism tests assert the whole trajectory is
// bit-identical across runs and thread-pool sizes.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "advisor/evaluation.h"
#include "advisor/registry.h"
#include "catalog/datasets.h"
#include "common/deadline.h"
#include "common/fault.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "engine/what_if.h"
#include "sql/vocabulary.h"
#include "testing/fault_campaign.h"
#include "trap/perturber.h"
#include "workload/generator.h"

namespace trap {
namespace {

using common::EvalContext;
using common::FaultSite;
using common::ScopedFaultSpec;
using common::Status;
using common::StatusCode;
using common::StatusOr;

// ---------------------------------------------------------------------------
// Status / StatusOr
// ---------------------------------------------------------------------------

TEST(StatusTest, OkAndErrorBasics) {
  Status ok = Status::Ok();
  EXPECT_TRUE(ok.ok());
  EXPECT_EQ(ok.code(), StatusCode::kOk);
  Status err = Status::DeadlineExceeded("budget spent");
  EXPECT_FALSE(err.ok());
  EXPECT_EQ(err.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(err.message(), "budget spent");
  EXPECT_EQ(err.ToString(), "DEADLINE_EXCEEDED: budget spent");
  EXPECT_EQ(ok.ToString(), "OK");
  EXPECT_NE(ok, err);
  EXPECT_EQ(err, Status::DeadlineExceeded("budget spent"));
}

TEST(StatusTest, CodeNamesAreStable) {
  EXPECT_STREQ(common::StatusCodeName(StatusCode::kInvalidArgument),
               "INVALID_ARGUMENT");
  EXPECT_STREQ(common::StatusCodeName(StatusCode::kCancelled), "CANCELLED");
  EXPECT_STREQ(common::StatusCodeName(StatusCode::kResourceExhausted),
               "RESOURCE_EXHAUSTED");
  EXPECT_STREQ(common::StatusCodeName(StatusCode::kFaultInjected),
               "FAULT_INJECTED");
}

StatusOr<int> ParsePositive(int v) {
  if (v <= 0) return Status::InvalidArgument("not positive");
  return v;
}

Status UsesMacros(int v, int* out) {
  TRAP_ASSIGN_OR_RETURN(int parsed, ParsePositive(v));
  TRAP_RETURN_IF_ERROR(Status::Ok());
  *out = parsed * 2;
  return Status::Ok();
}

TEST(StatusTest, StatusOrAndMacros) {
  StatusOr<int> good = ParsePositive(21);
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(*good, 21);
  StatusOr<int> bad = ParsePositive(-1);
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(StatusOr<int>(Status::Internal("x")).value_or(7), 7);

  int out = 0;
  EXPECT_TRUE(UsesMacros(21, &out).ok());
  EXPECT_EQ(out, 42);
  EXPECT_EQ(UsesMacros(0, &out).code(), StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------------
// CancelToken / EvalContext
// ---------------------------------------------------------------------------

TEST(DeadlineTest, StepBudgetExpiresDeterministically) {
  common::CancelToken token(3);
  EXPECT_TRUE(token.Charge());
  EXPECT_TRUE(token.Charge(2));
  EXPECT_FALSE(token.Charge());  // 4 > 3
  EXPECT_TRUE(token.expired());
  EXPECT_EQ(token.status().code(), StatusCode::kDeadlineExceeded);
}

TEST(DeadlineTest, CancellationWinsOverBudget) {
  common::CancelToken token(100);
  token.Cancel();
  EXPECT_FALSE(token.Charge());
  EXPECT_EQ(token.status().code(), StatusCode::kCancelled);
}

TEST(DeadlineTest, DefaultContextNeverExpires) {
  EvalContext ctx;
  for (int i = 0; i < 1000; ++i) EXPECT_TRUE(ctx.CheckContinue().ok());
}

TEST(DeadlineTest, WithAttemptChangesSaltDeterministically) {
  EvalContext ctx;
  ctx.fault_salt = 5;
  EXPECT_NE(ctx.WithAttempt(1).fault_salt, ctx.WithAttempt(2).fault_salt);
  EXPECT_EQ(ctx.WithAttempt(3).fault_salt, ctx.WithAttempt(3).fault_salt);
}

// ---------------------------------------------------------------------------
// Fault spec parsing / registry
// ---------------------------------------------------------------------------

TEST(FaultSpecTest, ParsesSitesProbabilitiesAndLimits) {
  std::string error;
  std::optional<common::FaultSpec> spec = common::ParseFaultSpec(
      "engine.whatif.cost_error@p=0.25,advisor.recommend.fail@limit=2", 9,
      &error);
  ASSERT_TRUE(spec.has_value()) << error;
  EXPECT_EQ(spec->seed, 9u);
  ASSERT_EQ(spec->sites.size(), 2u);
  EXPECT_EQ(spec->sites[0].site, FaultSite::kWhatIfCostError);
  EXPECT_DOUBLE_EQ(spec->sites[0].probability, 0.25);
  EXPECT_EQ(spec->sites[1].site, FaultSite::kAdvisorRecommendFail);
  EXPECT_EQ(spec->sites[1].limit, 2);
}

TEST(FaultSpecTest, RejectsMalformedSpecs) {
  std::string error;
  EXPECT_FALSE(common::ParseFaultSpec("no.such.site", 0, &error).has_value());
  EXPECT_FALSE(
      common::ParseFaultSpec("engine.whatif.timeout@p=2.5", 0, &error)
          .has_value());
  EXPECT_FALSE(
      common::ParseFaultSpec("engine.whatif.timeout@bogus=1", 0, &error)
          .has_value());
}

TEST(FaultRegistryTest, DrawsAreDeterministicAndSeedSensitive) {
  std::vector<bool> run1, run2;
  {
    ScopedFaultSpec scoped("engine.whatif.cost_error@p=0.5", 11);
    for (uint64_t key = 0; key < 64; ++key) {
      run1.push_back(common::FaultShouldFire(FaultSite::kWhatIfCostError, key));
    }
  }
  {
    ScopedFaultSpec scoped("engine.whatif.cost_error@p=0.5", 11);
    for (uint64_t key = 0; key < 64; ++key) {
      run2.push_back(common::FaultShouldFire(FaultSite::kWhatIfCostError, key));
    }
  }
  EXPECT_EQ(run1, run2);
  int fired = 0;
  for (bool b : run1) fired += b ? 1 : 0;
  EXPECT_GT(fired, 0);
  EXPECT_LT(fired, 64);
  {
    ScopedFaultSpec scoped("engine.whatif.cost_error@p=0.5", 12);
    std::vector<bool> other_seed;
    for (uint64_t key = 0; key < 64; ++key) {
      other_seed.push_back(
          common::FaultShouldFire(FaultSite::kWhatIfCostError, key));
    }
    EXPECT_NE(run1, other_seed);
  }
}

TEST(FaultRegistryTest, LimitCapsFirings) {
  ScopedFaultSpec scoped("advisor.recommend.fail@limit=2", 0);
  int fired = 0;
  for (uint64_t key = 0; key < 10; ++key) {
    fired += common::FaultShouldFire(FaultSite::kAdvisorRecommendFail, key);
  }
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(common::FaultRegistry::Global().hits(
                FaultSite::kAdvisorRecommendFail),
            2);
}

// ---------------------------------------------------------------------------
// Table-driven per-site degradation
// ---------------------------------------------------------------------------

struct FaultEnv {
  FaultEnv()
      : schema(catalog::MakeTpcH()),
        vocab(schema, 8),
        optimizer(schema),
        constraint(advisor::TuningConstraint::IndexCount(
            3, schema.DataSizeBytes() / 2)) {
    workload::GeneratorOptions gopt;
    gopt.max_tables = 2;
    gopt.max_filters = 2;
    workload::QueryGenerator gen(vocab, gopt, 0x5eed);
    std::vector<sql::Query> pool = gen.GeneratePool(12);
    common::Rng rng(0x5eed ^ 0x77);
    w = workload::SampleWorkload(pool, 4, rng);
  }

  catalog::Schema schema;
  sql::Vocabulary vocab;
  engine::WhatIfOptimizer optimizer;
  advisor::TuningConstraint constraint;
  workload::Workload w;
};

struct SiteCase {
  const char* spec;
  StatusCode expected_code;
  int expected_attempts;  // -1 = don't care
};

class FaultSiteDegradationTest : public ::testing::TestWithParam<SiteCase> {};

TEST_P(FaultSiteDegradationTest, DegradesWithExpectedStatusAndRetries) {
  const SiteCase& param = GetParam();
  FaultEnv env;
  ScopedFaultSpec scoped(param.spec, 7);
  std::unique_ptr<advisor::IndexAdvisor> adv =
      *advisor::MakeAdvisor("AutoAdmin", env.optimizer);
  common::CancelToken token(200000);
  EvalContext ctx;
  ctx.cancel = &token;
  ctx.fault_salt = 0x11;
  advisor::RecommendOutcome outcome = advisor::RecommendWithRetry(
      *adv, env.w, env.constraint, ctx, advisor::RetryPolicy{});
  EXPECT_EQ(outcome.status.code(), param.expected_code)
      << outcome.status.ToString();
  EXPECT_TRUE(outcome.degraded);
  EXPECT_TRUE(outcome.config.indexes().empty());
  if (param.expected_attempts >= 0) {
    EXPECT_EQ(outcome.attempts, param.expected_attempts);
  }
  advisor::FailureRecord record = advisor::MakeFailureRecord("AutoAdmin",
                                                             outcome);
  EXPECT_EQ(record.advisor, "AutoAdmin");
  EXPECT_EQ(record.code, outcome.status.code());
  EXPECT_EQ(record.attempts, outcome.attempts);
  EXPECT_TRUE(record.degraded);
  if (outcome.status.code() == StatusCode::kDeadlineExceeded) {
    // Deadline statuses come straight from the token or the injected
    // timeout; the site name is recorded only for injected-fault messages.
    EXPECT_TRUE(record.site.empty() || record.site.rfind("engine.", 0) == 0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllSites, FaultSiteDegradationTest,
    ::testing::Values(
        // A p=1 cost error fails every attempt; the retry loop exhausts.
        SiteCase{"engine.whatif.cost_error@p=1", StatusCode::kResourceExhausted,
                 3},
        // Injected timeouts are never retried: the budget is gone.
        SiteCase{"engine.whatif.timeout@p=1", StatusCode::kDeadlineExceeded, 1},
        // Entry-point failure is retryable and exhausts at p=1.
        SiteCase{"advisor.recommend.fail@p=1", StatusCode::kResourceExhausted,
                 3},
        // A hang consumes the whole step budget -> kDeadlineExceeded.
        SiteCase{"advisor.recommend.hang@p=1", StatusCode::kDeadlineExceeded,
                 1}),
    [](const ::testing::TestParamInfo<SiteCase>& site) {
      // "engine.whatif.cost_error@p=1" -> "engine_whatif_cost_error"
      std::string name(site.param.spec);
      name.resize(name.find('@'));
      for (char& ch : name) {
        if (ch == '.') ch = '_';
      }
      return name;
    });

TEST(FaultSiteTest, FailureRecordNamesTheInjectedSite) {
  FaultEnv env;
  ScopedFaultSpec scoped("advisor.recommend.fail@p=1", 7);
  std::unique_ptr<advisor::IndexAdvisor> adv =
      *advisor::MakeAdvisor("Extend", env.optimizer);
  EvalContext ctx;
  advisor::RecommendOutcome outcome = advisor::RecommendWithRetry(
      *adv, env.w, env.constraint, ctx, advisor::RetryPolicy{});
  advisor::FailureRecord record = advisor::MakeFailureRecord("Extend", outcome);
  EXPECT_EQ(record.site, "advisor.recommend.fail");
  EXPECT_EQ(record.code, StatusCode::kResourceExhausted);
}

TEST(FaultSiteTest, LegacyRecommendDegradesToEmptyInsteadOfAborting) {
  FaultEnv env;
  ScopedFaultSpec scoped("advisor.recommend.fail@p=1", 7);
  std::unique_ptr<advisor::IndexAdvisor> adv =
      *advisor::MakeAdvisor("Drop", env.optimizer);
  engine::IndexConfig config = adv->Recommend(env.w, env.constraint);
  EXPECT_TRUE(config.indexes().empty());
}

TEST(FaultSiteTest, PerturberDegradesFiredQueriesToOriginals) {
  FaultEnv env;
  ::trap::trap::GeneratorConfig config;
  config.method = ::trap::trap::GenerationMethod::kRandom;
  config.seed = 0xace;
  ::trap::trap::AdversarialWorkloadGenerator generator(env.vocab, config);
  ScopedFaultSpec scoped("perturber.invalid_tree@p=1", 7);
  StatusOr<workload::Workload> perturbed = generator.TryGenerate(env.w);
  ASSERT_TRUE(perturbed.ok()) << perturbed.status().ToString();
  ASSERT_EQ(perturbed->queries.size(), env.w.queries.size());
  EXPECT_EQ(generator.num_degraded_queries(),
            static_cast<int64_t>(env.w.queries.size()));
  for (size_t i = 0; i < env.w.queries.size(); ++i) {
    EXPECT_EQ(sql::Fingerprint(perturbed->queries[i].query),
              sql::Fingerprint(env.w.queries[i].query));
  }
}

TEST(FaultSiteTest, TryIndexUtilityRecordsFailuresAndKeepsRunning) {
  FaultEnv env;
  engine::TrueCostModel truth(env.schema);
  advisor::RobustnessEvaluator evaluator(env.optimizer, truth);
  ScopedFaultSpec scoped("advisor.recommend.fail@p=1", 7);
  std::unique_ptr<advisor::IndexAdvisor> adv =
      *advisor::MakeAdvisor("AutoAdmin", env.optimizer);
  std::vector<advisor::FailureRecord> failures;
  EvalContext ctx;
  StatusOr<double> utility = evaluator.TryIndexUtility(
      *adv, nullptr, env.w, env.constraint, ctx, advisor::RetryPolicy{},
      &failures);
  ASSERT_TRUE(utility.ok()) << utility.status().ToString();
  // Degraded advisor vs empty baseline: utility collapses to zero, and the
  // failure is recorded instead of crashing the evaluation.
  EXPECT_DOUBLE_EQ(*utility, 0.0);
  ASSERT_EQ(failures.size(), 1u);
  EXPECT_EQ(failures[0].site, "advisor.recommend.fail");
  EXPECT_TRUE(failures[0].degraded);
}

// ---------------------------------------------------------------------------
// Determinism of the whole trajectory
// ---------------------------------------------------------------------------

// Runs three advisors through the retry runtime and returns the failure
// records. Each call builds its own FaultEnv: cost_error draws happen only on
// cache misses, so a cache shared between concurrent callers would make
// fault fates depend on which caller filled an entry first. The caller arms
// the fault registry, which is process-global.
std::vector<advisor::FailureRecord> RunTrajectory() {
  FaultEnv env;
  std::vector<advisor::FailureRecord> failures;
  for (const char* name : {"Extend", "AutoAdmin", "Drop"}) {
    std::unique_ptr<advisor::IndexAdvisor> adv =
        *advisor::MakeAdvisor(name, env.optimizer);
    common::CancelToken token(200000);
    EvalContext ctx;
    ctx.cancel = &token;
    ctx.fault_salt = 0x42;
    advisor::RecommendOutcome outcome = advisor::RecommendWithRetry(
        *adv, env.w, env.constraint, ctx, advisor::RetryPolicy{});
    if (!outcome.status.ok()) {
      failures.push_back(advisor::MakeFailureRecord(name, outcome));
    }
  }
  return failures;
}

bool SameRecords(const std::vector<advisor::FailureRecord>& a,
                 const std::vector<advisor::FailureRecord>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].advisor != b[i].advisor || a[i].site != b[i].site ||
        a[i].code != b[i].code || a[i].message != b[i].message ||
        a[i].attempts != b[i].attempts || a[i].degraded != b[i].degraded) {
      return false;
    }
  }
  return true;
}

TEST(FaultDeterminismTest, FailureRecordsIdenticalAcrossRunsAndThreadCounts) {
  ScopedFaultSpec scoped(
      "engine.whatif.cost_error@p=0.02,advisor.recommend.fail@p=0.3", 21);
  std::vector<advisor::FailureRecord> serial_run = RunTrajectory();
  std::vector<advisor::FailureRecord> repeat = RunTrajectory();
  EXPECT_TRUE(SameRecords(serial_run, repeat));
  // The draws are keyed on fingerprints, not schedules, so the records do
  // not depend on how many trajectories run at once.
  common::ThreadPool pool(8);
  std::vector<std::vector<advisor::FailureRecord>> lanes(8);
  pool.ParallelFor(lanes.size(),
                   [&](size_t lane) { lanes[lane] = RunTrajectory(); });
  for (size_t lane = 0; lane < lanes.size(); ++lane) {
    EXPECT_TRUE(SameRecords(serial_run, lanes[lane])) << "lane " << lane;
  }
}

TEST(FaultDeterminismTest, CampaignDigestStableAcrossRuns) {
  proptest::FaultCampaignOptions options;
  options.workloads = 1;
  options.probabilities = {1.0};
  proptest::CampaignResult a = proptest::RunFaultCampaign(options, nullptr);
  proptest::CampaignResult b = proptest::RunFaultCampaign(options, nullptr);
  EXPECT_TRUE(a.ok());
  EXPECT_TRUE(b.ok());
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.cases.size(), b.cases.size());
}

TEST(FaultDeterminismTest, BackoffIsSeededAndReproducible) {
  advisor::RetryPolicy policy;
  for (int attempt = 1; attempt <= 4; ++attempt) {
    EXPECT_EQ(policy.BackoffSteps(attempt), policy.BackoffSteps(attempt));
  }
  EXPECT_GE(policy.BackoffSteps(2), policy.BackoffSteps(1) / 2 * 2);
  advisor::RetryPolicy other = policy;
  other.seed ^= 1;
  bool any_different = false;
  for (int attempt = 1; attempt <= 4; ++attempt) {
    any_different |= policy.BackoffSteps(attempt) != other.BackoffSteps(attempt);
  }
  EXPECT_TRUE(any_different);
}

}  // namespace
}  // namespace trap
