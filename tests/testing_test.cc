#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "catalog/datasets.h"
#include "common/fault.h"
#include "testing/case_gen.h"
#include "testing/harness.h"
#include "testing/oracles.h"
#include "testing/shrink.h"

namespace trap::proptest {
namespace {

using catalog::MakeTpcH;

class ProptestTest : public ::testing::Test {
 protected:
  ProptestTest() : schema_(MakeTpcH()), vocab_(schema_) {}

  catalog::Schema schema_;
  sql::Vocabulary vocab_;
};

// Arms an injected fault for the duration of one test and guarantees the
// process-wide fault state is restored afterwards.
class ScopedFault {
 public:
  explicit ScopedFault(common::InjectedFault f) { common::SetInjectedFault(f); }
  ~ScopedFault() { common::SetInjectedFault(common::InjectedFault::kNone); }
};

TEST_F(ProptestTest, StreamSeedSeparatesCasesAndOracles) {
  uint64_t base = CaseGen::StreamSeed(1, 0, 0);
  EXPECT_NE(base, CaseGen::StreamSeed(1, 1, 0));
  EXPECT_NE(base, CaseGen::StreamSeed(1, 0, 1));
  EXPECT_NE(base, CaseGen::StreamSeed(2, 0, 0));
  EXPECT_EQ(base, CaseGen::StreamSeed(1, 0, 0));
}

TEST_F(ProptestTest, CaseGenIsDeterministicPerStream) {
  CaseGen a(vocab_, CaseGen::StreamSeed(7, 3, 2));
  CaseGen b(vocab_, CaseGen::StreamSeed(7, 3, 2));
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(a.Query(), b.Query());
  }
  workload::Workload wa = a.SmallWorkload(2, 4);
  workload::Workload wb = b.SmallWorkload(2, 4);
  ASSERT_EQ(wa.queries.size(), wb.queries.size());
  EXPECT_EQ(a.RandomConfigFor(wa, 3), b.RandomConfigFor(wb, 3));
}

TEST_F(ProptestTest, GeneratedIndexesAreWellFormed) {
  CaseGen gen(vocab_, CaseGen::StreamSeed(11, 0, 0));
  for (int i = 0; i < 200; ++i) {
    sql::Query q = gen.Query();
    ASSERT_TRUE(sql::ValidateQuery(q, schema_));
    engine::Index idx = gen.RandomIndexFor(q);
    ASSERT_FALSE(idx.columns.empty());
    ASSERT_LE(idx.NumColumns(), 3);
    for (const catalog::ColumnId& c : idx.columns) {
      EXPECT_EQ(c.table, idx.columns[0].table);
    }
  }
}

TEST_F(ProptestTest, OracleNamesRoundTrip) {
  for (OracleId id : AllOracles()) {
    std::optional<OracleId> back = OracleFromName(OracleName(id));
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, id);
  }
  EXPECT_FALSE(OracleFromName("no-such-oracle").has_value());
}

// Each oracle family holds on a healthy engine for a spread of cases.
TEST_F(ProptestTest, AllOraclesPassOnHealthyEngine) {
  OracleEnv env(schema_);
  for (OracleId id : AllOracles()) {
    for (int i = 0; i < 40; ++i) {
      std::optional<OracleFailure> failure = RunOracle(id, env, 42, i);
      ASSERT_FALSE(failure.has_value())
          << OracleName(id) << " case " << i << ": " << failure->message;
    }
  }
}

// The acceptance scenario of the harness: an injected cost-model bug that
// inverts the benefit of indexes is caught by the monotonicity oracle and
// shrunk to a minimal reproducer with at most 3 predicates.
TEST_F(ProptestTest, InjectedFaultIsCaughtAndShrunkSmall) {
  ScopedFault fault(common::InjectedFault::kInvertIndexBenefit);
  OracleEnv env(schema_);
  bool caught = false;
  for (int i = 0; i < 60 && !caught; ++i) {
    std::optional<OracleFailure> failure =
        RunOracle(OracleId::kAddIndexMonotone, env, 1, i);
    if (!failure.has_value()) continue;
    caught = true;
    Reproducer shrunk = failure->repro;
    ShrinkStats stats =
        ShrinkReproducer(&shrunk, schema_, [&](const Reproducer& r) {
          return CheckReproducer(OracleId::kAddIndexMonotone, env, r)
              .has_value();
        });
    EXPECT_GT(stats.passes, 0);
    // Still failing, and minimal: one query with few predicates.
    ASSERT_TRUE(
        CheckReproducer(OracleId::kAddIndexMonotone, env, shrunk).has_value());
    ASSERT_EQ(shrunk.workload.queries.size(), 1u);
    EXPECT_LE(shrunk.workload.queries[0].query.filters.size(), 3u);
  }
  EXPECT_TRUE(caught) << "fault injection produced no monotonicity failure";
}

TEST_F(ProptestTest, ShrinkIsDeterministic) {
  ScopedFault fault(common::InjectedFault::kInvertIndexBenefit);
  OracleEnv env(schema_);
  std::optional<OracleFailure> failure;
  for (int i = 0; i < 60 && !failure.has_value(); ++i) {
    failure = RunOracle(OracleId::kAddIndexMonotone, env, 1, i);
  }
  ASSERT_TRUE(failure.has_value());
  auto pred = [&](const Reproducer& r) {
    return CheckReproducer(OracleId::kAddIndexMonotone, env, r).has_value();
  };
  Reproducer a = failure->repro;
  Reproducer b = failure->repro;
  ShrinkReproducer(&a, schema_, pred);
  ShrinkReproducer(&b, schema_, pred);
  EXPECT_EQ(DescribeReproducer(OracleId::kAddIndexMonotone, env, a),
            DescribeReproducer(OracleId::kAddIndexMonotone, env, b));
}

TEST_F(ProptestTest, ShrunkQueriesStayValid) {
  ScopedFault fault(common::InjectedFault::kInvertIndexBenefit);
  OracleEnv env(schema_);
  int shrunk_count = 0;
  for (int i = 0; i < 120 && shrunk_count < 3; ++i) {
    std::optional<OracleFailure> failure =
        RunOracle(OracleId::kAddIndexMonotone, env, 9, i);
    if (!failure.has_value()) continue;
    ++shrunk_count;
    Reproducer r = failure->repro;
    ShrinkReproducer(&r, schema_, [&](const Reproducer& c) {
      return CheckReproducer(OracleId::kAddIndexMonotone, env, c).has_value();
    });
    for (const workload::WorkloadQuery& wq : r.workload.queries) {
      EXPECT_TRUE(sql::ValidateQuery(wq.query, schema_));
    }
  }
  EXPECT_GT(shrunk_count, 0);
}

TEST_F(ProptestTest, CaseFileRoundTrips) {
  CaseFile c;
  c.schema = "tpcds";
  c.oracle = OracleId::kPerturbationBudget;
  c.seed = 987654321;
  c.case_index = 4711;
  std::string error;
  std::optional<CaseFile> back = ParseCaseFile(FormatCaseFile(c), &error);
  ASSERT_TRUE(back.has_value()) << error;
  EXPECT_EQ(back->schema, c.schema);
  EXPECT_EQ(back->oracle, c.oracle);
  EXPECT_EQ(back->seed, c.seed);
  EXPECT_EQ(back->case_index, c.case_index);
}

TEST_F(ProptestTest, ParseCaseFileRejectsGarbage) {
  std::string error;
  EXPECT_FALSE(ParseCaseFile("", &error).has_value());
  EXPECT_FALSE(ParseCaseFile("oracle not-an-oracle\n", &error).has_value());
  EXPECT_FALSE(ParseCaseFile("oracle cache-coherence\nseed twelve\n", &error)
                   .has_value());
  EXPECT_FALSE(
      ParseCaseFile("oracle cache-coherence\nbogus 1\n", &error).has_value());
}

TEST_F(ProptestTest, RunHarnessIsDeterministic) {
  HarnessOptions opts;
  opts.seed = 3;
  opts.cases = 120;
  HarnessResult a = RunHarness(opts, nullptr);
  HarnessResult b = RunHarness(opts, nullptr);
  EXPECT_EQ(a.cases_run, b.cases_run);
  EXPECT_EQ(a.failures.size(), b.failures.size());
  EXPECT_TRUE(a.ok());
}

TEST_F(ProptestTest, ReplayCaseAgreesWithHarness) {
  // A case that passes today: replay must agree.
  CaseFile c;
  c.schema = "tpch";
  c.oracle = OracleId::kAddIndexMonotone;
  c.seed = 1;
  c.case_index = 2;
  EXPECT_FALSE(ReplayCase(c, /*shrink=*/false, nullptr).has_value());
  // The same case fails under the injected fault (it is the one the fuzz
  // fault-detection ctest entry finds first).
  ScopedFault fault(common::InjectedFault::kInvertIndexBenefit);
  EXPECT_TRUE(ReplayCase(c, /*shrink=*/false, nullptr).has_value());
}

// Satellite 6: minimization is a pure function of the case file.
TEST_F(ProptestTest, MinimizeCaseIsDeterministic) {
  ScopedFault fault(common::InjectedFault::kInvertIndexBenefit);
  CaseFile c;
  c.schema = "tpch";
  c.oracle = OracleId::kAddIndexMonotone;
  c.seed = 1;
  c.case_index = 2;
  std::string error;
  std::optional<std::string> first = MinimizeCase(c, &error);
  ASSERT_TRUE(first.has_value()) << error;
  std::optional<std::string> second = MinimizeCase(c, &error);
  ASSERT_TRUE(second.has_value()) << error;
  EXPECT_EQ(*first, *second);
  EXPECT_NE(first->find("minimal"), 0u);  // non-empty, structured text
}

TEST_F(ProptestTest, MinimizeCaseReportsPassingCases) {
  CaseFile c;
  c.oracle = OracleId::kAddIndexMonotone;
  c.seed = 1;
  c.case_index = 2;
  std::string error;
  EXPECT_FALSE(MinimizeCase(c, &error).has_value());
  EXPECT_NE(error.find("passes"), std::string::npos);
}

TEST_F(ProptestTest, FaultNamesRoundTrip) {
  EXPECT_EQ(common::FaultFromName("invert_index_benefit"),
            common::InjectedFault::kInvertIndexBenefit);
  EXPECT_EQ(common::FaultFromName("none"), common::InjectedFault::kNone);
  EXPECT_FALSE(common::FaultFromName("no-such-fault").has_value());
}

// Under a mixed low-probability fault regime the determinism and coherence
// oracles must still hold on every case where evaluation succeeds: fault
// draws are keyed on the logical work item, so whenever no error-producing
// site fires the costs are the true costs on every thread count and on warm
// and cold shape caches alike. Cases where cost_error or timeout fired are
// skipped — there the legacy batched wrappers deliberately degrade the whole
// result to +infinity while a per-query fold degrades only the firing pair,
// so the comparison is between two differently-degraded answers, not
// evidence of nondeterminism.
TEST_F(ProptestTest, DeterminismOraclesHoldUnderLowProbabilityFaults) {
  common::ScopedFaultSpec faults(
      "engine.whatif.cost_error@p=0.02,engine.whatif.timeout@p=0.02",
      /*seed=*/17);
  const common::FaultRegistry& reg = common::FaultRegistry::Global();
  OracleEnv env(schema_);
  int checked = 0;
  int degraded = 0;
  for (OracleId id :
       {OracleId::kParallelDeterminism, OracleId::kCacheCoherence}) {
    for (int i = 0; i < 25; ++i) {
      const std::int64_t before =
          reg.hits(common::FaultSite::kWhatIfCostError) +
          reg.hits(common::FaultSite::kWhatIfTimeout);
      std::optional<OracleFailure> failure = RunOracle(id, env, 99, i);
      const std::int64_t after =
          reg.hits(common::FaultSite::kWhatIfCostError) +
          reg.hits(common::FaultSite::kWhatIfTimeout);
      if (after != before) {
        ++degraded;
        continue;  // evaluation did not succeed; degradation is expected
      }
      ++checked;
      ASSERT_FALSE(failure.has_value())
          << OracleName(id) << " case " << i
          << " under faults: " << failure->message;
    }
  }
  // The sweep exercised both regimes: some cases ran fault-free and were
  // checked, and some drew an error-site fault.
  EXPECT_GT(checked, 0);
  EXPECT_GT(degraded, 0);
  EXPECT_GT(reg.total_hits(), 0);
}

}  // namespace
}  // namespace trap::proptest
