// Tests for the src/obs observability layer: metric naming, registry
// snapshot semantics, concurrent snapshot-vs-increment safety (run under
// TSan in the sanitizer flavors), span-tree canonicalization, and the
// headline invariant -- metric and trace digests bit-identical across
// thread-pool sizes -- plus a golden-file check on the Chrome trace export.

#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/thread_pool.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "obs/trace.h"
#include "testing/trace_scenario.h"

namespace trap::obs {
namespace {

// --- metric names --------------------------------------------------------

TEST(MetricNameTest, ValidNames) {
  EXPECT_TRUE(IsValidMetricName("trap.whatif.calls"));
  EXPECT_TRUE(IsValidMetricName("trap.whatif.shape.misses"));
  EXPECT_TRUE(IsValidMetricName("trap.advisor.db_advis.rounds"));
}

TEST(MetricNameTest, InvalidNames) {
  EXPECT_FALSE(IsValidMetricName(""));
  EXPECT_FALSE(IsValidMetricName("whatif.calls"));       // missing root
  EXPECT_FALSE(IsValidMetricName("trap.calls"));         // too few segments
  EXPECT_FALSE(IsValidMetricName("trap.WhatIf.calls"));  // upper case
  EXPECT_FALSE(IsValidMetricName("trap.whatif.v2"));     // digit
  EXPECT_FALSE(IsValidMetricName("trap..calls"));        // empty segment
  EXPECT_FALSE(IsValidMetricName("trap.whatif.calls.")); // trailing dot
}

TEST(MetricNameTest, MetricSegmentCanonicalizesLabels) {
  EXPECT_EQ(MetricSegment("DB2Advis"), "db_advis");
  EXPECT_EQ(MetricSegment("AutoAdmin"), "autoadmin");
  EXPECT_EQ(MetricSegment("a--b  c"), "a_b_c");
}

// --- registry ------------------------------------------------------------

TEST(MetricRegistryTest, PointersStableAcrossReset) {
  MetricRegistry registry;
  Counter* c = registry.counter("trap.test.stable");
  Histogram* h = registry.histogram("trap.test.stable_hist");
  c->Add(7);
  h->Record(3);
  registry.Reset();
  EXPECT_EQ(registry.counter("trap.test.stable"), c);
  EXPECT_EQ(registry.histogram("trap.test.stable_hist"), h);
  EXPECT_EQ(c->value(), 0);
  EXPECT_EQ(h->count(), 0);
  EXPECT_EQ(h->sum(), 0);
}

TEST(MetricRegistryTest, SnapshotFlattensHistogramsInNameOrder) {
  MetricRegistry registry;
  registry.counter("trap.test.b_counter")->Add(2);
  registry.histogram("trap.test.a_hist")->Record(5);
  std::vector<MetricSample> snap = registry.Snapshot();
  ASSERT_EQ(snap.size(), 3u);
  EXPECT_EQ(snap[0].name, "trap.test.a_hist.count");
  EXPECT_EQ(snap[0].value, 1);
  EXPECT_EQ(snap[1].name, "trap.test.a_hist.sum");
  EXPECT_EQ(snap[1].value, 5);
  EXPECT_EQ(snap[2].name, "trap.test.b_counter");
  EXPECT_EQ(snap[2].value, 2);
}

TEST(MetricRegistryTest, BestEffortMetricsAreExcludedFromDigest) {
  MetricRegistry registry;
  registry.counter("trap.test.det")->Add(3);
  Counter* racy = registry.counter("trap.test.racy", /*deterministic=*/false);
  const uint64_t before = MetricRegistry::Digest(registry.Snapshot());
  racy->Add(41);  // best-effort noise must not move the digest
  EXPECT_EQ(MetricRegistry::Digest(registry.Snapshot()), before);
  registry.counter("trap.test.det")->Add(1);  // deterministic change must
  EXPECT_NE(MetricRegistry::Digest(registry.Snapshot()), before);
}

TEST(HistogramTest, BucketsByBitWidth) {
  EXPECT_EQ(Histogram::BucketIndex(-5), 0);
  EXPECT_EQ(Histogram::BucketIndex(0), 0);
  EXPECT_EQ(Histogram::BucketIndex(1), 1);
  EXPECT_EQ(Histogram::BucketIndex(2), 2);
  EXPECT_EQ(Histogram::BucketIndex(3), 2);
  EXPECT_EQ(Histogram::BucketIndex(4), 3);
  EXPECT_EQ(Histogram::BucketIndex(7), 3);
  EXPECT_EQ(Histogram::BucketIndex(int64_t{1} << 40),
            Histogram::kNumBuckets - 1);  // tail absorbed by the last bucket
}

// --- concurrent snapshot vs. increment -----------------------------------

// Hammers one registry from a pool: most items increment counters and
// record into a histogram while the rest take snapshots and fold digests.
// Run under the TSan flavor this is the data-race check for the
// lock-free-read / locked-registry split; in every flavor the final totals
// must equal the logical work submitted.
TEST(MetricRegistryTest, SnapshotDuringConcurrentIncrementsIsSafe) {
  MetricRegistry registry;
  Counter* hits = registry.counter("trap.test.hammer_hits");
  Histogram* sizes = registry.histogram("trap.test.hammer_sizes");
  common::ThreadPool pool(8);

  constexpr size_t kItems = 64;
  constexpr int kAddsPerItem = 1000;
  int64_t incrementing_items = 0;
  for (size_t i = 0; i < kItems; ++i) {
    if (i % 8 != 0) ++incrementing_items;
  }
  pool.ParallelFor(kItems, [&](size_t i) {
    if (i % 8 == 0) {
      // Snapshot while writers are live; the digest value is unspecified
      // mid-run, but reading it must be race-free.
      std::vector<MetricSample> snap = registry.Snapshot();
      ASSERT_GE(snap.size(), 2u);
      (void)MetricRegistry::Digest(snap);
    } else {
      for (int n = 0; n < kAddsPerItem; ++n) hits->Add();
      sizes->Record(static_cast<int64_t>(i));
    }
  });

  EXPECT_EQ(hits->value(), incrementing_items * kAddsPerItem);
  EXPECT_EQ(sizes->count(), incrementing_items);
}

// --- span tree -----------------------------------------------------------

TEST(TraceSinkTest, CanonicalOrderSortsSiblingsByKeyNotOpenOrder) {
  TraceSink sink;
  const uint64_t root = sink.OpenSpan("scenario", 0, 0);
  const uint64_t late = sink.OpenSpan("advisor.round", 2, root);
  const uint64_t early = sink.OpenSpan("advisor.round", 1, root);
  sink.CloseSpan(early);
  sink.CloseSpan(late);
  sink.CloseSpan(root);

  std::vector<TraceEvent> events = sink.CanonicalEvents();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].name, "scenario");
  EXPECT_EQ(events[0].depth, 0);
  EXPECT_EQ(events[1].key, 1u);  // key order, not open order
  EXPECT_EQ(events[2].key, 2u);
  EXPECT_EQ(events[1].depth, 1);
}

TEST(TraceSinkTest, SerialRepeatsWithSameKeyGetDistinctIds) {
  TraceSink sink;
  const uint64_t a = sink.OpenSpan("advisor.attempt", 0, 0);
  sink.CloseSpan(a);
  const uint64_t b = sink.OpenSpan("advisor.attempt", 0, 0);
  sink.CloseSpan(b);
  EXPECT_NE(a, b);
  EXPECT_EQ(sink.CanonicalEvents().size(), 2u);
}

TEST(TraceSpanTest, NoSinkMeansNoSpansAndNoArgs) {
  common::EvalContext ctx;  // no obs sink attached
  TraceSpan span(ctx, "scenario", 1);
  span.AddArg("items", 3);
  EXPECT_EQ(span.ctx().span, 0u);
}

TEST(TraceSpanTest, NestsUnderEnclosingContextSpan) {
  TraceSink sink;
  ObsSink obs;
  obs.trace = &sink;
  common::EvalContext ctx;
  ctx.obs = &obs;
  {
    TraceSpan outer(ctx, "scenario", 1);
    TraceSpan inner(outer.ctx(), "scenario.recommend", 2);
    EXPECT_NE(inner.ctx().span, outer.ctx().span);
  }
  std::vector<TraceEvent> events = sink.CanonicalEvents();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[1].parent, events[0].id);
  EXPECT_TRUE(events[0].closed);
  EXPECT_TRUE(events[1].closed);
}

// --- end-to-end determinism ----------------------------------------------

struct ScenarioDigests {
  uint64_t metrics = 0;
  uint64_t trace = 0;
};

ScenarioDigests RunWithPool(common::ThreadPool* pool) {
  proptest::TraceScenarioOptions options;
  options.pool = pool;
  TraceSink sink;
  common::Status status = proptest::RunTraceScenario(options, &sink);
  EXPECT_TRUE(status.ok()) << status.ToString();
  return ScenarioDigests{
      MetricRegistry::Digest(MetricRegistry::Global().Snapshot()),
      sink.Digest()};
}

// The same scenario produces bit-identical metric and trace digests whether
// its per-config sweep batches come from 1, 4 or 8 concurrent callers.
TEST(ObsDeterminismTest, DigestsIdenticalAcrossPoolSizes) {
  common::ThreadPool serial(1);
  const ScenarioDigests baseline = RunWithPool(&serial);
  EXPECT_EQ(RunWithPool(&serial).metrics, baseline.metrics)
      << "serial rerun must reproduce the metric digest";

  for (int threads : {4, 8}) {
    common::ThreadPool pool(threads);
    const ScenarioDigests got = RunWithPool(&pool);
    EXPECT_EQ(got.metrics, baseline.metrics) << "threads=" << threads;
    EXPECT_EQ(got.trace, baseline.trace) << "threads=" << threads;
  }
}

// --- golden Chrome trace -------------------------------------------------

// The committed golden file is regenerated with:
//   build/tools/trace/trap_trace --out tests/golden/trace_scenario_chrome.json
// A diff here means the scenario's span structure changed; inspect the new
// trace in chrome://tracing, then regenerate and commit it if intended.
TEST(GoldenTraceTest, ChromeExportMatchesGoldenFile) {
  proptest::TraceScenarioOptions options;
  TraceSink sink;
  common::Status status = proptest::RunTraceScenario(options, &sink);
  ASSERT_TRUE(status.ok()) << status.ToString();
  const std::string got = ChromeTraceJson(sink);

  const std::string path =
      std::string(TRAP_GOLDEN_DIR) + "/trace_scenario_chrome.json";
  std::ifstream in(path);
  ASSERT_TRUE(in.is_open()) << "missing golden file: " << path;
  std::ostringstream want;
  want << in.rdbuf();
  EXPECT_EQ(got, want.str());
}

}  // namespace
}  // namespace trap::obs
