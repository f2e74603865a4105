#ifndef TRAP_ENGINE_WHAT_IF_H_
#define TRAP_ENGINE_WHAT_IF_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "catalog/snapshot.h"
#include "catalog/stats_overlay.h"
#include "common/deadline.h"
#include "common/rng.h"
#include "common/status.h"
#include "engine/cost_model.h"
#include "engine/query_shape.h"
#include "engine/scratch.h"
#include "engine/stats_epoch.h"
#include "obs/obs.h"

namespace trap::engine {

// Hypothetical-index ("what-if") interface: the only channel through which
// index advisors and TRAP interact with the database engine, mirroring the
// what-if calls of the paper's PostgreSQL setup.
//
// Hot-path structure (the assessment loop is bounded by what-if throughput;
// the paper's Table 4 counts optimizer invocations for exactly this reason):
//   * Query shapes — everything about a query that does not depend on the
//     index configuration (filter selectivities, join order, cardinalities,
//     referenced columns, sort/aggregate constants) — are precompiled once
//     per (stats epoch, query) into a sharded shape cache and fed to
//     CostModel's allocation-free cost kernel; only access-path and probe
//     selection run per (query, config) pair.
//   * Costs are not memoized. Every what-if call runs the shape kernel,
//     which is cheaper than a lookup in a per-pair memo large enough to
//     matter (DESIGN.md §3f), and keeps the optimizer's memory at one
//     shape per distinct query.
//   * Batched entry points fingerprint each query and configuration once,
//     deduplicate identical (query_fp, config_fp) items, and cost only the
//     unique set, serially on the calling thread. Fanning batches out over
//     a thread pool measured slower than one thread (DESIGN.md §3a).
//   * All per-batch bookkeeping lives in a per-thread scratch arena
//     (engine/scratch.h), so a steady-state batch performs no heap
//     allocation outside the shape cache.
//
// Thread safety: every const method is safe to call concurrently. The shape
// cache is the only shared mutable state besides the call counter. It is
// sharded N ways with a per-shard mutex (shard picked from the key's high
// bits, since HashCombine mixes well there; shards are cache-line aligned so
// neighbouring shard locks do not false-share). A call tallies its what-if
// calls locally and publishes them with one atomic add on exit, so no
// per-item shared read-modify-write remains. Concurrent callers sharing one
// optimizer get bit-identical results: a cost is a pure function of (query,
// config, epoch), and each batch folds its per-item costs in input order.
//
// Error handling: the Try* entry points are the *canonical* fallible core
// -- they honor the EvalContext (step budget, cancellation, trace sink) and surface injected faults and internal inconsistencies as
// Statuses. Batched Try* calls aggregate per-item Statuses by picking the
// first error in *input order*, so the returned Status is bit-identical
// across runs. Deduplicated items keep the accounting of the
// pre-dedup path: every item still charges one step and counts one call,
// and duplicates inherit their primary's Status (fault draws key on the
// (query_fp, config_fp) pair, so a duplicate would have drawn the same
// fate). Every infallible form below is a thin shim over its Try* twin
// (this header is the only definition site) that degrades an error to
// +infinity cost -- a deterministic "this configuration is unusable"
// answer that can never be mistaken for a real estimate (real costs are
// finite and non-negative).
//
// Observability: calls, shape-cache misses, batch sizes, duplicate
// configurations and deduplicated pairs per batch feed the global
// obs::MetricRegistry under trap.whatif.*. With a trace sink in the
// context, each batched call records a whatif.batch span.
//
// Statistics epochs: every evaluation reads its catalog state from the
// immutable catalog::Snapshot on ctx.snapshot (nullptr = the base epoch;
// drift scenarios and the serve runtime build snapshots to shift
// per-column statistics or grow the schema mid-run without mutating any
// shared state). The optimizer holds no "active" epoch at all -- two
// concurrent calls under different snapshots each resolve, and cost
// against, their own epoch. The shape cache mixes the epoch fingerprint
// into its keys and stores it in its entries, so a shape compiled under one
// data distribution can never cost a probe made under another.
// Fault draws deliberately do NOT key on the epoch: a (query, config) work
// item draws the same fate under every distribution, keeping fault
// campaigns comparable across drift. Each batched call resolves its epoch
// once at entry, so however the caller swaps snapshots between calls, one
// batch is never split across epochs.
//
// Cache integrity: shape-cache entries store the full query plus their
// epoch fingerprint and are verified against both on every hit, so a
// 64-bit fingerprint collision is answered by shape-free computation, never
// by another query's (or another distribution's) shape.
class WhatIfOptimizer {
 public:
  explicit WhatIfOptimizer(const catalog::Schema& schema,
                           CostParams params = {});

  // Estimated cost of `q` under hypothetical configuration `config`.
  // Shim over TryQueryCost: degrades errors to +infinity.
  double QueryCost(const sql::Query& q, const IndexConfig& config,
                   const common::EvalContext& ctx = {}) const {
    return TryQueryCost(q, config, ctx).value_or(kInfiniteCost);
  }

  // Fallible cost of `q` under `config`, honoring `ctx` (step budget,
  // cancellation, fault salt).
  common::StatusOr<double> TryQueryCost(const sql::Query& q,
                                        const IndexConfig& config,
                                        const common::EvalContext& ctx = {})
      const;

  // The plan behind the estimate (uncached), under ctx.snapshot's epoch.
  // PlanNode::index pointers borrow from `config`, which must outlive the
  // returned plan.
  std::unique_ptr<PlanNode> Plan(const sql::Query& q,
                                 const IndexConfig& config,
                                 const common::EvalContext& ctx = {}) const;

  // Batched: weighted workload cost, one what-if call per query, folded in
  // query order. `WorkloadT` is any
  // type with a `queries` container of {query, weight} items
  // (workload::Workload; templated to keep the engine layer free of an
  // upward dependency). Shim over TryWorkloadCost: degrades errors to
  // +infinity.
  template <typename WorkloadT>
  double WorkloadCost(const WorkloadT& w, const IndexConfig& config,
                      const common::EvalContext& ctx = {}) const {
    common::StatusOr<double> total = TryWorkloadCost(w, config, ctx);
    return std::move(total).value_or(kInfiniteCost);
  }

  template <typename WorkloadT>
  common::StatusOr<double> TryWorkloadCost(
      const WorkloadT& w, const IndexConfig& config,
      const common::EvalContext& ctx = {}) const {
    ScratchLease scratch;
    BatchScratch& sc = *scratch;
    const size_t n = w.queries.size();
    sc.query_ptrs.resize(n);
    sc.weights.resize(n);
    for (size_t i = 0; i < n; ++i) {
      sc.query_ptrs[i] = &w.queries[i].query;
      sc.weights[i] = w.queries[i].weight;
    }
    double total = 0.0;
    TRAP_RETURN_IF_ERROR(BatchCostCore(sc, n, &config, 1,
                                       /*weighted=*/true,
                                       BatchKind::kWorkloadCost, ctx, &total));
    return total;
  }

  // Batched candidate-benefit sweep: weighted workload cost under each of
  // `configs`, each unique (query, config) pair evaluated once.
  // Entry k of the result corresponds to configs[k]. Shim over
  // TryWorkloadCosts: degrades errors to +infinity.
  template <typename WorkloadT>
  std::vector<double> WorkloadCosts(const WorkloadT& w,
                                    const std::vector<IndexConfig>& configs,
                                    const common::EvalContext& ctx = {}) const {
    common::StatusOr<std::vector<double>> totals =
        TryWorkloadCosts(w, configs, ctx);
    if (totals.ok()) return *std::move(totals);
    return std::vector<double>(configs.size(), kInfiniteCost);
  }

  template <typename WorkloadT>
  common::StatusOr<std::vector<double>> TryWorkloadCosts(
      const WorkloadT& w, const std::vector<IndexConfig>& configs,
      const common::EvalContext& ctx = {}) const {
    ScratchLease scratch;
    BatchScratch& sc = *scratch;
    const size_t nq = w.queries.size();
    sc.query_ptrs.resize(nq);
    sc.weights.resize(nq);
    for (size_t i = 0; i < nq; ++i) {
      sc.query_ptrs[i] = &w.queries[i].query;
      sc.weights[i] = w.queries[i].weight;
    }
    std::vector<double> totals(configs.size(), 0.0);
    TRAP_RETURN_IF_ERROR(BatchCostCore(sc, nq, configs.data(), configs.size(),
                                       /*weighted=*/true,
                                       BatchKind::kWorkloadCosts, ctx,
                                       totals.data()));
    return totals;
  }

  // Batched: cost of one query under each of `configs` (order-preserving)
  // — the inner loop of per-query greedy searches.
  // Shim over TryQueryCosts: degrades errors to +infinity per entry.
  std::vector<double> QueryCosts(const sql::Query& q,
                                 const std::vector<IndexConfig>& configs,
                                 const common::EvalContext& ctx = {}) const;

  common::StatusOr<std::vector<double>> TryQueryCosts(
      const sql::Query& q, const std::vector<IndexConfig>& configs,
      const common::EvalContext& ctx = {}) const;

  // The base schema and cost model (the constructor-time catalog, no
  // overlay). Snapshot-carrying callers should use SchemaFor(ctx) instead.
  const catalog::Schema& schema() const {
    return epochs_.Base()->model.schema();
  }
  const CostModel& cost_model() const { return epochs_.Base()->model; }

  // The schema ctx.snapshot's epoch evaluates under: the base schema for a
  // null or base snapshot, the overlay-applied schema otherwise
  // (materialized once per distinct epoch, retained for the optimizer's
  // lifetime -- the reference stays valid across any later snapshots).
  // Advisors call this at TryRecommend entry so candidate generation sees
  // the same catalog the costing below it does.
  const catalog::Schema& SchemaFor(const common::EvalContext& ctx) const {
    return epochs_.Resolve(ctx.snapshot)->model.schema();
  }

  // Fingerprint of the epoch ctx.snapshot evaluates under; 0 = base.
  uint64_t EpochOf(const common::EvalContext& ctx) const {
    return ctx.snapshot == nullptr ? 0 : ctx.snapshot->epoch();
  }

  // The sentinel cost returned by the legacy (non-Try) wrappers when the
  // underlying evaluation fails: +infinity never wins a cost comparison, so
  // a degraded estimate can only push a search away from the failed config.
  static constexpr double kInfiniteCost =
      std::numeric_limits<double>::infinity();

  // Number of what-if calls answered (including batch duplicates) — the
  // paper's efficiency discussions count optimizer invocations.
  int64_t num_calls() const {
    return num_calls_.load(std::memory_order_relaxed);
  }

  // Number of precompiled query shapes held: one per distinct (stats epoch,
  // query) seen; costs themselves are never cached.
  size_t cache_size() const;

 private:
  // Shape entries record the epoch they were compiled under; a hit must
  // match both the stored query and the probing epoch.
  struct ShapeEntry {
    uint64_t epoch_fp = 0;
    std::unique_ptr<QueryShape> shape;
  };
  struct alignas(64) ShapeShard {
    mutable std::mutex mu;
    std::unordered_map<uint64_t, ShapeEntry> map;
  };
  static constexpr size_t kNumShards = 16;  // power of two

  // Which batched entry point a BatchCostCore call serves; selects the
  // span-key derivation (kept bit-compatible with the pre-batched-core
  // code so golden trace digests are unchanged).
  enum class BatchKind { kWorkloadCost, kWorkloadCosts, kQueryCosts };

  // Records batch size / duplicate-config metrics for a batched call of
  // `items` what-if items over `config_fps`, and annotates `span`.
  // `sort_scratch` is clobbered.
  static void RecordBatchMetrics(size_t items,
                                 const std::vector<uint64_t>& config_fps,
                                 std::vector<uint64_t>* sort_scratch,
                                 obs::TraceSpan* span);

  // The precompiled shape for (epoch, query_fp, q): served from the shape
  // cache, computed against `epoch`'s cost model and inserted on first
  // sight. Returns nullptr on a verified fingerprint collision (caller must
  // fall back to shape-free costing).
  const QueryShape* ResolveShape(const StatsEpoch& epoch, uint64_t query_fp,
                                 const sql::Query& q) const;

  // The shared batched core behind TryWorkloadCost / TryWorkloadCosts /
  // TryQueryCosts: fingerprints queries (sc.query_ptrs, size nq) and
  // configs once, dedups identical (query_fp, config_fp) items, evaluates
  // the unique set on the calling thread, and folds totals[0..nc) in input
  // order (weights from sc.weights when `weighted`).
  common::Status BatchCostCore(BatchScratch& sc, size_t nq,
                               const IndexConfig* configs, size_t nc,
                               bool weighted, BatchKind kind,
                               const common::EvalContext& ctx,
                               double* totals) const;

  // The fallible per-pair core: charges one step against ctx, counts one
  // call into *calls once the step is granted, consults the engine.whatif.*
  // fault sites, costs the pair and validates the cost (finite,
  // non-negative). On success writes the cost to *out. `shape` is the
  // prefetched shape for `q`; nullptr means resolve on demand (and cost
  // shape-free if resolution reports a fingerprint collision).
  common::Status CostStatus(const StatsEpoch& epoch, const sql::Query& q,
                            uint64_t query_fp, const QueryShape* shape,
                            uint64_t config_fp, const IndexConfig& config,
                            const common::EvalContext& ctx, int64_t* calls,
                            double* out) const;

  StatsEpochRegistry epochs_;
  mutable std::array<ShapeShard, kNumShards> shape_shards_;
  mutable std::atomic<int64_t> num_calls_{0};
};

}  // namespace trap::engine

#endif  // TRAP_ENGINE_WHAT_IF_H_
