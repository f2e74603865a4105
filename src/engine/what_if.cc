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
  obs::Counter* shape_misses;
  obs::Counter* batches;
  obs::Counter* dup_configs;
  obs::Counter* dup_pairs;
  obs::Histogram* batch_items;
};

const WhatIfMetrics& Metrics() {
  static const WhatIfMetrics* m = [] {
    obs::MetricRegistry& r = obs::MetricRegistry::Global();
    return new WhatIfMetrics{  // NOLINT(no-heap-on-hot-path): one-time static init
        r.counter("trap.whatif.calls"),
        r.counter("trap.whatif.shape.misses"),
        r.counter("trap.whatif.batch.count"),
        r.counter("trap.whatif.batch.dup_configs"),
        r.counter("trap.whatif.batch.dup_pairs"),
        r.histogram("trap.whatif.batch.items"),
    };
  }();
  return *m;
}

// Tallies one entry point's what-if calls locally and publishes them with a
// single atomic add on every exit (early error returns included), so the
// per-item path does no shared read-modify-write.
class CallTally {
 public:
  explicit CallTally(std::atomic<int64_t>* total) : total_(total) {}
  ~CallTally() {
    if (count == 0) return;
    total_->fetch_add(count, std::memory_order_relaxed);
    Metrics().calls->Add(count);
  }
  CallTally(const CallTally&) = delete;
  CallTally& operator=(const CallTally&) = delete;

  int64_t count = 0;

 private:
  std::atomic<int64_t>* total_;
};

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

void WhatIfOptimizer::RecordBatchMetrics(
    size_t items, const std::vector<uint64_t>& config_fps,
    std::vector<uint64_t>* sort_scratch, obs::TraceSpan* span) {
  // Duplicate configurations in a candidate sweep measure how much work
  // in-batch deduplication absorbs.
  std::vector<uint64_t>& fps = *sort_scratch;
  fps.assign(config_fps.begin(), config_fps.end());
  std::sort(fps.begin(), fps.end());
  size_t dups = 0;
  for (size_t i = 1; i < fps.size(); ++i) {
    if (fps[i] == fps[i - 1]) ++dups;
  }
  const WhatIfMetrics& m = Metrics();
  m.batches->Add();
  m.batch_items->Record(static_cast<int64_t>(items));
  if (dups > 0) m.dup_configs->Add(static_cast<int64_t>(dups));
  span->AddArg("items", static_cast<int64_t>(items));
  span->AddArg("configs", static_cast<int64_t>(config_fps.size()));
  if (dups > 0) span->AddArg("dup_configs", static_cast<int64_t>(dups));
}

common::Status WhatIfOptimizer::BatchCostCore(
    BatchScratch& sc, size_t nq, const IndexConfig* configs, size_t nc,
    bool weighted, BatchKind kind, const common::EvalContext& ctx,
    double* totals) const {
  // One epoch resolution per batch: every item of this batch costs against
  // ctx.snapshot's statistics, whatever other snapshots concurrent callers
  // carry (the hammer tests assert exactly this all-or-nothing property).
  const std::shared_ptr<const StatsEpoch> epoch = epochs_.Resolve(ctx.snapshot);
  const size_t items = nq * nc;
  // Fingerprint every query and configuration exactly once per batch (the
  // pre-batched path refingerprinted the query on every item).
  sc.query_fps.resize(nq);
  for (size_t i = 0; i < nq; ++i) {
    sc.query_fps[i] = sql::Fingerprint(*sc.query_ptrs[i]);
  }
  sc.config_fps.resize(nc);
  for (size_t c = 0; c < nc; ++c) sc.config_fps[c] = configs[c].Fingerprint();

  // Span keys are derived exactly as the per-entry-point code always did,
  // so golden trace digests are unchanged.
  uint64_t span_key = 0;
  switch (kind) {
    case BatchKind::kWorkloadCost:
      span_key = common::HashCombine(sc.config_fps[0], nq);
      break;
    case BatchKind::kWorkloadCosts: {
      uint64_t k = nq;
      for (uint64_t fp : sc.config_fps) k = common::HashCombine(k, fp);
      span_key = k;
      break;
    }
    case BatchKind::kQueryCosts: {
      uint64_t k = nc;
      for (uint64_t fp : sc.config_fps) k = common::HashCombine(k, fp);
      span_key = common::HashCombine(sc.query_fps[0], k);
      break;
    }
  }
  obs::TraceSpan span(ctx, "whatif.batch", span_key);
  RecordBatchMetrics(items, sc.config_fps, &sc.sorted_config_fps, &span);

  // Resolve each query's precompiled shape once per batch, not per item.
  // A nullptr entry (verified fingerprint collision) degrades that query to
  // shape-free costing.
  sc.shapes.resize(nq);
  for (size_t i = 0; i < nq; ++i) {
    sc.shapes[i] = ResolveShape(*epoch, sc.query_fps[i], *sc.query_ptrs[i]);
  }

  // Collapse identical (query_fp, config_fp) items: only the first
  // occurrence (the "primary") is costed; duplicates copy its result at
  // fold time. Candidate sweeps routinely repeat configurations.
  sc.uniques.clear();
  sc.item_to_unique.resize(items);
  // Re-arm the flat probe table: grow to the next power of two holding the
  // batch at <= 0.5 load (a one-time allocation per high-water mark), then
  // blanket-fill the value lane — no rehash, no node allocations.
  size_t table = 16;
  while (table < items * 2) table <<= 1;
  if (sc.slot_keys.size() < table) {
    sc.slot_keys.resize(table);
    sc.slot_vals.resize(table);
  }
  const size_t mask = sc.slot_keys.size() - 1;
  std::fill(sc.slot_vals.begin(), sc.slot_vals.end(),
            BatchScratch::kEmptySlot);
  for (size_t c = 0; c < nc; ++c) {
    for (size_t i = 0; i < nq; ++i) {
      const uint64_t pair_key =
          common::HashCombine(sc.query_fps[i], sc.config_fps[c]);
      const uint32_t next_slot = static_cast<uint32_t>(sc.uniques.size());
      uint32_t slot = next_slot;
      bool primary = true;
      for (size_t pos = pair_key & mask;; pos = (pos + 1) & mask) {
        if (sc.slot_vals[pos] == BatchScratch::kEmptySlot) {
          sc.slot_keys[pos] = pair_key;
          sc.slot_vals[pos] = next_slot;
          break;
        }
        if (sc.slot_keys[pos] != pair_key) continue;
        const BatchScratch::UniquePair& u = sc.uniques[sc.slot_vals[pos]];
        if (sc.query_fps[u.qi] == sc.query_fps[i] &&
            sc.config_fps[u.ci] == sc.config_fps[c]) {
          slot = sc.slot_vals[pos];
          primary = false;
        }
        // else: HashCombine collision between two *distinct* pairs — give
        // this item its own unregistered slot (it just loses dedup against
        // later twins).
        break;
      }
      if (primary) {
        sc.uniques.push_back(
            {static_cast<uint32_t>(i), static_cast<uint32_t>(c)});
      }
      sc.item_to_unique[c * nq + i] =
          primary ? (slot | BatchScratch::kPrimaryBit) : slot;
    }
  }
  const size_t dup_pairs = items - sc.uniques.size();
  if (dup_pairs > 0) {
    Metrics().dup_pairs->Add(static_cast<int64_t>(dup_pairs));
  }

  // Evaluate the unique set on the calling thread into pre-sized slots.
  // Statuses are pre-filled kCancelled, so items skipped once ctx.cancel
  // trips stay accounted for.
  sc.unique_costs.assign(sc.uniques.size(), 0.0);
  sc.unique_statuses.assign(
      sc.uniques.size(),
      common::Status::Cancelled("skipped: evaluation cancelled"));
  CallTally calls(&num_calls_);
  for (size_t u = 0; u < sc.uniques.size(); ++u) {
    if (ctx.cancel != nullptr &&
        (ctx.cancel->cancelled() || ctx.cancel->expired())) {
      break;
    }
    const BatchScratch::UniquePair p = sc.uniques[u];
    sc.unique_statuses[u] = CostStatus(
        *epoch, *sc.query_ptrs[p.qi], sc.query_fps[p.qi], sc.shapes[p.qi],
        sc.config_fps[p.ci], configs[p.ci], ctx, &calls.count,
        &sc.unique_costs[u]);
  }

  // Fold in input order: totals and the first error match an undeduplicated
  // per-item loop bit for bit.
  for (size_t c = 0; c < nc; ++c) {
    double total = 0.0;
    for (size_t i = 0; i < nq; ++i) {
      const uint32_t entry = sc.item_to_unique[c * nq + i];
      const uint32_t u = entry & ~BatchScratch::kPrimaryBit;
      if ((entry & BatchScratch::kPrimaryBit) == 0) {
        // Deduplicated item: keep the pre-dedup accounting — one step
        // charged, one call counted — and inherit the primary's Status
        // (fault draws key on the (query_fp, config_fp) pair, so this item
        // would have drawn the same fate).
        TRAP_RETURN_IF_ERROR(ctx.CheckContinue());
        ++calls.count;
      }
      TRAP_RETURN_IF_ERROR(sc.unique_statuses[u]);
      total += (weighted ? sc.weights[i] : 1.0) * sc.unique_costs[u];
    }
    totals[c] = total;
  }
  return common::Status::Ok();
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

std::vector<double> WhatIfOptimizer::QueryCosts(
    const sql::Query& q, const std::vector<IndexConfig>& configs,
    const common::EvalContext& ctx) const {
  common::StatusOr<std::vector<double>> costs = TryQueryCosts(q, configs, ctx);
  if (costs.ok()) return *std::move(costs);
  return std::vector<double>(configs.size(), kInfiniteCost);
}

common::StatusOr<std::vector<double>> WhatIfOptimizer::TryQueryCosts(
    const sql::Query& q, const std::vector<IndexConfig>& configs,
    const common::EvalContext& ctx) const {
  ScratchLease scratch;
  BatchScratch& sc = *scratch;
  sc.query_ptrs.assign(1, &q);
  std::vector<double> costs(configs.size(), 0.0);
  TRAP_RETURN_IF_ERROR(BatchCostCore(sc, 1, configs.data(), configs.size(),
                                     /*weighted=*/false,
                                     BatchKind::kQueryCosts, ctx,
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
