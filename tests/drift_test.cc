#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "catalog/datasets.h"
#include "catalog/snapshot.h"
#include "catalog/stats_overlay.h"
#include "common/status.h"
#include "drift/episode.h"
#include "drift/replay.h"
#include "drift/stats_perturber.h"
#include "engine/what_if.h"
#include "sql/vocabulary.h"
#include "workload/generator.h"
#include "workload/workload.h"

namespace trap::drift {
namespace {

class DriftTest : public ::testing::Test {
 protected:
  DriftTest() : schema_(catalog::MakeTpcH()), vocab_(schema_, 8) {
    workload::GeneratorOptions gopt;
    gopt.max_tables = 3;
    gopt.max_filters = 3;
    workload::QueryGenerator gen(vocab_, gopt, 77);
    for (const sql::Query& q : gen.GeneratePool(6)) {
      base_.queries.push_back(workload::WorkloadQuery{q, 1.0});
    }
  }

  // A deterministic advisor-free re-advisement callback: index the first
  // base-schema filter column the workload references (empty config when
  // there is none).
  ReadviseFn IndexFirstFilter() const {
    return [this](const workload::Workload& w,
                  const common::EvalContext&) -> common::StatusOr<
                                                  engine::IndexConfig> {
      engine::IndexConfig config;
      for (const workload::WorkloadQuery& wq : w.queries) {
        for (const sql::Predicate& p : wq.query.filters) {
          if (p.column.table < schema_.num_tables()) {
            config.Add(engine::Index{{p.column}});
            return config;
          }
        }
      }
      return config;
    };
  }

  catalog::Schema schema_;
  sql::Vocabulary vocab_;
  workload::Workload base_;
};

// At(step) is a pure function of (base, spec, seed, step): a second stream
// and a repeated call both regenerate every episode bit-identically, and a
// different seed diverges.
TEST_F(DriftTest, EpisodeStreamIsPureFunctionOfSeedAndStep) {
  EpisodeStream a(vocab_, base_, DriftSpec{}, 42);
  EpisodeStream b(vocab_, base_, DriftSpec{}, 42);
  for (int step : {0, 1, 2, 3, 5, 7}) {
    const Episode ea = a.At(step);
    const Episode eb = b.At(step);
    EXPECT_EQ(ea.fingerprint, eb.fingerprint) << "step " << step;
    EXPECT_EQ(ea.fingerprint, a.At(step).fingerprint) << "step " << step;
    EXPECT_EQ(ea.overlay.Fingerprint(), eb.overlay.Fingerprint());
    EXPECT_EQ(ea.workload.queries.size(), eb.workload.queries.size());
  }
  EpisodeStream other(vocab_, base_, DriftSpec{}, 43);
  EXPECT_NE(a.At(0).fingerprint, other.At(0).fingerprint);
}

TEST_F(DriftTest, EpisodeKindsCycleInSpecOrder) {
  DriftSpec spec;
  EpisodeStream stream(vocab_, base_, spec, 1);
  for (int step = 0; step < 8; ++step) {
    EXPECT_EQ(stream.At(step).kind,
              spec.kinds[static_cast<size_t>(step) % spec.kinds.size()])
        << "step " << step;
  }
}

// Frequency rotation only moves the hot block: every episode's weight
// multiset (and total mass) matches episode 0's.
TEST_F(DriftTest, FrequencyRotationPermutesWeights) {
  DriftSpec spec;
  spec.kinds = {EpisodeKind::kFrequencyRotation};
  EpisodeStream stream(vocab_, base_, spec, 9);
  std::vector<double> want;
  for (const workload::WorkloadQuery& wq : stream.At(0).workload.queries) {
    want.push_back(wq.weight);
  }
  std::sort(want.begin(), want.end());
  for (int step : {1, 2, 3, 6}) {
    std::vector<double> got;
    for (const workload::WorkloadQuery& wq :
         stream.At(step).workload.queries) {
      got.push_back(wq.weight);
    }
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, want) << "step " << step;
  }
}

// Mid-run schema growth is additive: base-schema queries cost bit-identical
// under the grown epoch, because appended tables never touch existing
// statistics.
TEST_F(DriftTest, SchemaGrowthKeepsPriorQueryCostsBitIdentical) {
  DriftSpec spec;
  spec.kinds = {EpisodeKind::kSchemaGrowth};
  EpisodeStream stream(vocab_, base_, spec, 5);
  const Episode ep = stream.At(0);
  ASSERT_EQ(ep.overlay.added_tables().size(), 1u);
  ASSERT_EQ(ep.workload.queries.size(),
            base_.queries.size() + static_cast<size_t>(spec.growth_queries));

  engine::WhatIfOptimizer opt(schema_);
  engine::IndexConfig none;
  std::vector<double> want;
  for (const workload::WorkloadQuery& wq : base_.queries) {
    want.push_back(opt.TryQueryCost(wq.query, none).value());
  }
  const catalog::Snapshot grown(schema_, ep.overlay);
  common::EvalContext grown_ctx;
  grown_ctx.snapshot = &grown;
  for (size_t i = 0; i < base_.queries.size(); ++i) {
    EXPECT_EQ(
        opt.TryQueryCost(base_.queries[i].query, none, grown_ctx).value(),
        want[i])
        << "query " << i;
  }
  // The appended queries are costable under the grown epoch.
  for (size_t i = base_.queries.size(); i < ep.workload.queries.size(); ++i) {
    EXPECT_TRUE(std::isfinite(
        opt.TryQueryCost(ep.workload.queries[i].query, none, grown_ctx)
            .value()));
  }
}

TEST_F(DriftTest, ZeroBudgetPerturbationIsIdentity) {
  engine::IndexConfig fixed;
  fixed.Add(
      engine::Index{{base_.queries[0].query.ReferencedColumns().front()}});
  StatsPerturberOptions popt;
  popt.l1_budget = 0.0;
  StatsPerturber perturber(schema_, popt);
  common::StatusOr<StatsPerturbation> result =
      perturber.TryPerturb(base_, fixed);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const StatsPerturbation& out = *result;
  EXPECT_TRUE(out.overlay.empty());
  EXPECT_EQ(out.moves, 0);
  EXPECT_EQ(out.l1_spent, 0.0);
  EXPECT_EQ(out.shifted_cost, out.base_cost);
  EXPECT_EQ(out.regression(), 0.0);
}

TEST_F(DriftTest, PerturberRespectsBudgetAndDomain) {
  engine::IndexConfig fixed;
  fixed.Add(
      engine::Index{{base_.queries[0].query.ReferencedColumns().front()}});
  StatsPerturberOptions popt;
  popt.l1_budget = 0.5;
  StatsPerturber perturber(schema_, popt);
  common::StatusOr<StatsPerturbation> result =
      perturber.TryPerturb(base_, fixed);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const StatsPerturbation& out = *result;
  EXPECT_LE(out.l1_spent, popt.l1_budget + 1e-12);
  EXPECT_LE(out.moves, 2);  // 2 * step_size(0.25) == the budget
  EXPECT_GE(out.shifted_cost, out.base_cost);
  EXPECT_TRUE(out.overlay.table_rows().empty());
  EXPECT_TRUE(out.overlay.added_tables().empty());
  for (const auto& [id, stats] : out.overlay.column_stats()) {
    const catalog::ColumnStats base = catalog::StatsOf(schema_.column(id));
    EXPECT_GE(stats.num_distinct, 1);
    EXPECT_LE(stats.num_distinct, schema_.table(id.table).num_rows);
    EXPECT_EQ(stats.min_value, base.min_value);
    EXPECT_EQ(stats.max_value, base.max_value);
    EXPECT_GE(stats.skew, 0.0);
    EXPECT_LE(stats.skew, 2.0);
  }
}

// The replay loop is deterministic, regret is never negative, and the
// shared optimizer's base epoch is untouched afterwards (episodes carry
// their catalog state as snapshots; nothing is ever installed).
TEST_F(DriftTest, ReplayDeterministicRegretNonNegativeBaseUntouched) {
  engine::WhatIfOptimizer opt(schema_);
  const double before = opt.TryWorkloadCost(base_, engine::IndexConfig{},
                                            common::EvalContext{})
                            .value();

  EpisodeStream stream(vocab_, base_, DriftSpec{}, 13);
  ReplayOptions ropt;
  ropt.episodes = 5;
  ReplayLoop loop(&opt, ropt);
  common::StatusOr<ReplayResult> first =
      loop.TryRun(stream, engine::IndexConfig{}, IndexFirstFilter(), {});
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  common::StatusOr<ReplayResult> second =
      loop.TryRun(stream, engine::IndexConfig{}, IndexFirstFilter(), {});
  ASSERT_TRUE(second.ok()) << second.status().ToString();

  EXPECT_EQ(first->series_fp, second->series_fp);
  EXPECT_EQ(first->total_regret, second->total_regret);
  ASSERT_EQ(first->episodes.size(), 5u);
  for (const EpisodeResult& er : first->episodes) {
    EXPECT_GE(er.regret, 0.0) << "episode " << er.step;
    EXPECT_TRUE(std::isfinite(er.stale_cost));
    EXPECT_TRUE(std::isfinite(er.fresh_cost));
    EXPECT_FALSE(er.degraded);
  }

  // The loop never mutates the shared optimizer: snapshot-free probes read
  // baseline costs bit-exactly, warm.
  EXPECT_EQ(opt.EpochOf({}), 0u);
  EXPECT_EQ(opt.TryWorkloadCost(base_, engine::IndexConfig{},
                                common::EvalContext{})
                .value(),
            before);
}

// A failing re-advisement callback degrades every episode deterministically:
// the stale configuration is kept, regret is zero, the run still succeeds.
TEST_F(DriftTest, ReadviseFailureDegradesDeterministically) {
  engine::WhatIfOptimizer opt(schema_);
  EpisodeStream stream(vocab_, base_, DriftSpec{}, 21);
  ReplayOptions ropt;
  ropt.episodes = 3;
  ReplayLoop loop(&opt, ropt);
  ReadviseFn failing = [](const workload::Workload&,
                          const common::EvalContext&)
      -> common::StatusOr<engine::IndexConfig> {
    return common::Status::Internal("advisor crashed");
  };
  common::StatusOr<ReplayResult> result =
      loop.TryRun(stream, engine::IndexConfig{}, failing, {});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  for (const EpisodeResult& er : result->episodes) {
    EXPECT_TRUE(er.degraded);
    EXPECT_EQ(er.regret, 0.0);
    EXPECT_FALSE(er.adopted);
    EXPECT_EQ(er.fresh_config, er.stale_config);
  }
  EXPECT_EQ(result->total_regret, 0.0);
  EXPECT_EQ(result->final_config, engine::IndexConfig{});
}

// An exhausted per-episode step budget degrades exactly like an advisor
// failure -- deterministically, without failing the run.
TEST_F(DriftTest, StepBudgetExhaustionDegrades) {
  engine::WhatIfOptimizer opt(schema_);
  EpisodeStream stream(vocab_, base_, DriftSpec{}, 34);
  ReplayOptions ropt;
  ropt.episodes = 3;
  ropt.episode_step_budget = 1;
  ReplayLoop loop(&opt, ropt);
  ReadviseFn hungry = [](const workload::Workload&,
                         const common::EvalContext& ctx)
      -> common::StatusOr<engine::IndexConfig> {
    TRAP_RETURN_IF_ERROR(ctx.CheckContinue(100));
    return engine::IndexConfig{};
  };
  common::StatusOr<ReplayResult> result =
      loop.TryRun(stream, engine::IndexConfig{}, hungry, {});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  for (const EpisodeResult& er : result->episodes) {
    EXPECT_TRUE(er.degraded) << "episode " << er.step;
    EXPECT_EQ(er.regret, 0.0);
  }
}

}  // namespace
}  // namespace trap::drift
