#include "engine/what_if.h"

#include <algorithm>
#include <cmath>

#include "common/fault.h"
#include "common/rng.h"
#include "obs/metrics.h"
#include "obs/obs.h"

namespace trap::engine {

namespace {

// Hot-path metric handles, resolved once (registry pointers are stable).
struct WhatIfMetrics {
  obs::Counter* calls;
  obs::Counter* base_reused;
  obs::Counter* shape_misses;
  obs::Counter* batches;
  obs::Histogram* batch_items;
};

const WhatIfMetrics& Metrics() {
  static const WhatIfMetrics* m = [] {
    obs::MetricRegistry& r = obs::MetricRegistry::Global();
    return new WhatIfMetrics{  // NOLINT(no-heap-on-hot-path): one-time static init
        r.counter("trap.whatif.calls"),
        r.counter("trap.whatif.base_reused"),
        r.counter("trap.whatif.shape.misses"),
        r.counter("trap.whatif.batch.count"),
        r.histogram("trap.whatif.batch.items"),
    };
  }();
  return *m;
}

// Tallies one entry point's what-if calls and base-reused items locally and
// publishes them on every exit (early error returns included), so the
// per-item path does no shared read-modify-write.
class CallTally {
 public:
  explicit CallTally(std::atomic<int64_t>* total) : total_(total) {}
  ~CallTally() {
    if (reused != 0) Metrics().base_reused->Add(reused);
    if (count == 0) return;
    total_->fetch_add(count, std::memory_order_relaxed);
    Metrics().calls->Add(count);
  }
  CallTally(const CallTally&) = delete;
  CallTally& operator=(const CallTally&) = delete;

  int64_t count = 0;   // items the cost model priced
  int64_t reused = 0;  // items answered from a base cost

 private:
  std::atomic<int64_t>* total_;
};

// Collects in *tables the table of every index in exactly one of `a` and
// `b`, by merging the two sorted index lists. A query that reads none of
// these tables is shown the same indexes, in the same order, by both.
void DifferingTables(const IndexConfig& a, const IndexConfig& b,
                     std::vector<int>* tables) {
  tables->clear();
  auto i = a.indexes().begin();
  auto j = b.indexes().begin();
  const auto i_end = a.indexes().end();
  const auto j_end = b.indexes().end();
  while (i != i_end && j != j_end) {
    const auto order = *i <=> *j;
    if (order < 0) {
      tables->push_back((i++)->table());
    } else if (order > 0) {
      tables->push_back((j++)->table());
    } else {
      ++i;
      ++j;
    }
  }
  for (; i != i_end; ++i) tables->push_back(i->table());
  for (; j != j_end; ++j) tables->push_back(j->table());
}

bool ReadsAnyTable(const QueryShape& shape, const std::vector<int>& tables) {
  for (const TableShape& ts : shape.tables) {
    if (std::find(tables.begin(), tables.end(), ts.table) != tables.end()) {
      return true;
    }
  }
  return false;
}

}  // namespace

WhatIfOptimizer::WhatIfOptimizer(const catalog::Schema& schema,
                                 CostParams params)
    : epochs_(schema, params) {}

const QueryShape* WhatIfOptimizer::ResolveShape(const StatsEpoch& epoch,
                                                uint64_t query_fp,
                                                const sql::Query& q) const {
  // Shapes bake in statistics-derived selectivities and cardinalities, so
  // the cache key carries the stats epoch: a distribution shift recompiles
  // rather than reuses.
  const uint64_t shape_key = common::HashCombine(query_fp, epoch.fingerprint);
  ShapeShard& shard = shape_shards_[shape_key >> 60];
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.map.find(shape_key);
    if (it != shard.map.end()) {
      // The stored query and epoch are compared in full: a 64-bit
      // fingerprint collision must never cost one query with another
      // query's — or another distribution's — shape.
      if (it->second.epoch_fp == epoch.fingerprint &&
          it->second.shape->query == q) {
        return it->second.shape.get();
      }
      return nullptr;
    }
  }
  // First sight of this (epoch, query): precompile outside the shard lock (a
  // shape build is much heavier than a map lookup), then publish. A racing
  // thread computing the same shape loses the try_emplace and adopts the
  // winner's entry; the miss is counted once, on insertion, so the count
  // stays deterministic across thread counts.
  auto shape = std::make_unique<QueryShape>(  // NOLINT(no-heap-on-hot-path): once per distinct query
      epoch.model.ComputeShape(q));
  std::lock_guard<std::mutex> lock(shard.mu);
  auto [it, inserted] = shard.map.try_emplace(
      shape_key, ShapeEntry{epoch.fingerprint, std::move(shape)});
  if (inserted) Metrics().shape_misses->Add();
  if (it->second.epoch_fp == epoch.fingerprint && it->second.shape->query == q) {
    return it->second.shape.get();
  }
  return nullptr;
}

common::Status WhatIfOptimizer::CostStatus(
    const StatsEpoch& epoch, const sql::Query& q, uint64_t query_fp,
    const QueryShape* shape, uint64_t config_fp, const IndexConfig& config,
    const common::EvalContext& ctx, int64_t* calls, double* out) const {
  TRAP_RETURN_IF_ERROR(ctx.CheckContinue());
  ++*calls;
  // Fault draws key on the logical work item + the context's salt, so the
  // same (query, config) pair draws identically on every run, thread count,
  // and stats epoch (drift must not reshuffle fault fates), while retry
  // attempts (which re-salt) redraw.
  const uint64_t draw_key = common::HashCombine(
      common::HashCombine(query_fp, config_fp), ctx.fault_salt);
  if (common::FaultShouldFire(common::FaultSite::kWhatIfTimeout, draw_key)) {
    obs::CountFaultFire(
        common::FaultSiteName(common::FaultSite::kWhatIfTimeout));
    return common::Status::DeadlineExceeded(
        "injected fault: engine.whatif.timeout");
  }
  // Unbatched calls resolve the shape here; the shape-free fallback only
  // runs on a verified fingerprint collision.
  if (shape == nullptr) shape = ResolveShape(epoch, query_fp, q);
  double cost = shape != nullptr ? epoch.model.QueryCost(*shape, config)
                                 : epoch.model.QueryCost(q, config);
  if (common::FaultShouldFire(common::FaultSite::kWhatIfCostError, draw_key)) {
    obs::CountFaultFire(
        common::FaultSiteName(common::FaultSite::kWhatIfCostError));
    cost = std::numeric_limits<double>::quiet_NaN();
  }
  // A mis-costed plan must surface as an error, never as a silently wrong
  // (or poisonous NaN) estimate.
  if (!std::isfinite(cost) || cost < 0.0) {
    return common::Status::Internal("what-if cost model produced an invalid "
                                    "cost estimate");
  }
  *out = cost;
  return common::Status::Ok();
}

common::Status WhatIfOptimizer::BatchCostCore(
    std::vector<BatchQuery>& queries, const IndexConfig* configs, size_t nc,
    const IndexConfig* base, BatchKind kind, const common::EvalContext& ctx,
    double* totals) const {
  // One epoch resolution per batch: every item of this batch costs against
  // ctx.snapshot's statistics, whatever other snapshots concurrent callers
  // carry (the hammer tests assert exactly this all-or-nothing property).
  const std::shared_ptr<const StatsEpoch> epoch = epochs_.Resolve(ctx.snapshot);
  const size_t nq = queries.size();
  // Fingerprint every query and configuration exactly once per batch.
  for (BatchQuery& bq : queries) bq.fp = sql::Fingerprint(*bq.query);
  std::vector<uint64_t> config_fps(nc);
  for (size_t c = 0; c < nc; ++c) config_fps[c] = configs[c].Fingerprint();

  // Span keys are derived exactly as the per-entry-point code always did,
  // so golden trace digests are unchanged.
  uint64_t span_key = 0;
  switch (kind) {
    case BatchKind::kWorkloadCost:
      span_key = common::HashCombine(config_fps[0], nq);
      break;
    case BatchKind::kWorkloadCosts: {
      uint64_t k = nq;
      for (uint64_t fp : config_fps) k = common::HashCombine(k, fp);
      span_key = k;
      break;
    }
    case BatchKind::kQueryCosts: {
      uint64_t k = nc;
      for (uint64_t fp : config_fps) k = common::HashCombine(k, fp);
      span_key = common::HashCombine(queries[0].fp, k);
      break;
    }
  }
  obs::TraceSpan span(ctx, "whatif.batch", span_key);
  const int64_t items = static_cast<int64_t>(nq * nc);
  Metrics().batches->Add();
  Metrics().batch_items->Record(items);
  span.AddArg("items", items);
  span.AddArg("configs", static_cast<int64_t>(nc));

  // Resolve each query's precompiled shape once per batch, not per item.
  // A nullptr entry (verified fingerprint collision) degrades that query to
  // shape-free costing.
  for (BatchQuery& bq : queries) {
    bq.shape = ResolveShape(*epoch, bq.fp, *bq.query);
  }

  // Cost every item in input order -- the base items first, then config
  // major -- folding each total in query order. A failed item keeps the
  // batch going, so every costed item is charged its step and counted as a
  // call; the first error in input order is returned. Only a cancelled or
  // spent token stops the batch early.
  common::Status first_error;
  CallTally calls(&num_calls_);
  auto stopped = [&] {
    if (ctx.cancel == nullptr ||
        !(ctx.cancel->cancelled() || ctx.cancel->expired())) {
      return false;
    }
    if (first_error.ok()) {
      first_error = common::Status::Cancelled("skipped: evaluation cancelled");
    }
    return true;
  };
  auto cost_item = [&](const BatchQuery& bq, uint64_t config_fp,
                       const IndexConfig& config, double* cost) {
    common::Status status = CostStatus(*epoch, *bq.query, bq.fp, bq.shape,
                                       config_fp, config, ctx, &calls.count,
                                       cost);
    if (status.ok()) return true;
    if (first_error.ok()) first_error = std::move(status);
    return false;
  };

  // Base-relative batch: each query's cost under `base` first. A failed
  // base item has already failed the batch, so the totals that reuse its
  // (unset) cost are never returned.
  const bool relative = base != nullptr && nc > 0;
  std::vector<double> base_costs;
  std::vector<int> differing;  // tables where configs[c] and *base differ
  if (relative) {
    const uint64_t base_fp = base->Fingerprint();
    base_costs.assign(nq, 0.0);
    for (size_t q = 0; q < nq; ++q) {
      if (stopped()) return first_error;
      cost_item(queries[q], base_fp, *base, &base_costs[q]);
    }
  }
  for (size_t c = 0; c < nc; ++c) {
    if (relative) DifferingTables(configs[c], *base, &differing);
    double total = 0.0;
    for (size_t q = 0; q < nq; ++q) {
      if (stopped()) return first_error;
      const BatchQuery& bq = queries[q];
      double cost = 0.0;
      if (relative && bq.shape != nullptr &&
          !ReadsAnyTable(*bq.shape, differing)) {
        ++calls.reused;
        cost = base_costs[q];
      } else if (!cost_item(bq, config_fps[c], configs[c], &cost)) {
        continue;
      }
      total += bq.weight * cost;
    }
    totals[c] = total;
  }
  return first_error;
}

common::StatusOr<double> WhatIfOptimizer::TryQueryCost(
    const sql::Query& q, const IndexConfig& config,
    const common::EvalContext& ctx) const {
  const std::shared_ptr<const StatsEpoch> epoch = epochs_.Resolve(ctx.snapshot);
  CallTally calls(&num_calls_);
  double cost = 0.0;
  TRAP_RETURN_IF_ERROR(CostStatus(*epoch, q, sql::Fingerprint(q),
                                  /*shape=*/nullptr, config.Fingerprint(),
                                  config, ctx, &calls.count, &cost));
  return cost;
}

common::StatusOr<std::vector<double>> WhatIfOptimizer::TryQueryCosts(
    const sql::Query& q, const std::vector<IndexConfig>& configs,
    const common::EvalContext& ctx) const {
  std::vector<BatchQuery> queries = {BatchQuery{&q, 1.0}};
  std::vector<double> costs(configs.size(), 0.0);
  TRAP_RETURN_IF_ERROR(BatchCostCore(queries, configs.data(), configs.size(),
                                     /*base=*/nullptr, BatchKind::kQueryCosts,
                                     ctx,
                                     costs.data()));
  return costs;
}

std::unique_ptr<PlanNode> WhatIfOptimizer::Plan(
    const sql::Query& q, const IndexConfig& config,
    const common::EvalContext& ctx) const {
  return epochs_.Resolve(ctx.snapshot)->model.Plan(q, config);
}

size_t WhatIfOptimizer::cache_size() const {
  size_t total = 0;
  for (const ShapeShard& shard : shape_shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    total += shard.map.size();
  }
  return total;
}

}  // namespace trap::engine
