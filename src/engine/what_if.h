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
//   * Costs are not memoized across calls. Every what-if call runs the
//     shape kernel, which is cheaper than a lookup in a per-pair memo large
//     enough to matter (DESIGN.md §3f), and keeps the optimizer's memory at
//     one shape per distinct query. No cost survives the call that made it.
//   * Batched entry points fingerprint each query and configuration and
//     resolve each query's shape once per batch, then cost every (query,
//     config) item serially on the calling thread in config-major input
//     order. Per item the path does no heap allocation; a batch allocates
//     only a few small per-batch vectors. Fanning batches out over a thread
//     pool measured slower than one thread (DESIGN.md §3a).
//   * A batch may be base-relative (TryWorkloadCosts' `base`): a greedy
//     search's neighbours of its current configuration differ from it on
//     one or two tables, and a query reading none of them costs exactly
//     what it costs under the base, which the batch prices once per query.
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
// Error handling: every cost entry point is a Try* call. It honors the
// EvalContext (step budget, cancellation, trace sink) and surfaces
// injected faults and internal inconsistencies as Statuses; each caller
// decides what a failure means for it (propagate, stop an episode, or
// substitute kInfiniteCost). Batched calls aggregate per-item Statuses by
// picking the first error in *input order*, so the returned Status is
// bit-identical across runs. A batch tries every item even after one fails
// (each costed item charges one step and counts one call; an item answered
// from a base cost charges nothing and draws no fault), and stops early
// only when ctx.cancel is cancelled or spent.
//
// Observability: calls, base-reused items, shape-cache misses, batch counts
// and batch sizes feed the global obs::MetricRegistry under trap.whatif.*.
// With a trace sink in the context, each batched call records a
// whatif.batch span.
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

  // Estimated cost of `q` under hypothetical configuration `config`,
  // honoring `ctx` (step budget, cancellation, fault salt).
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
  // upward dependency).
  template <typename WorkloadT>
  common::StatusOr<double> TryWorkloadCost(
      const WorkloadT& w, const IndexConfig& config,
      const common::EvalContext& ctx = {}) const {
    std::vector<BatchQuery> queries = BatchQueries(w);
    double total = 0.0;
    TRAP_RETURN_IF_ERROR(BatchCostCore(queries, &config, 1, /*base=*/nullptr,
                                       BatchKind::kWorkloadCost, ctx, &total));
    return total;
  }

  // Batched candidate-benefit sweep: weighted workload cost under each of
  // `configs`. Entry k of the result corresponds to configs[k].
  //
  // Without `base`, every (query, config) item is one what-if call. With a
  // `base` configuration -- a greedy search's current configuration, whose
  // neighbours `configs` are -- each query is first costed once under
  // `base`, and an item whose config shows the query the same indexes as
  // `base` (the two differ only on tables the query does not read) takes
  // that cost instead of a call. The totals are bit-identical either way;
  // only the number of calls, step charges and fault draws differs.
  template <typename WorkloadT>
  common::StatusOr<std::vector<double>> TryWorkloadCosts(
      const WorkloadT& w, const std::vector<IndexConfig>& configs,
      const common::EvalContext& ctx = {},
      const IndexConfig* base = nullptr) const {
    std::vector<BatchQuery> queries = BatchQueries(w);
    std::vector<double> totals(configs.size(), 0.0);
    TRAP_RETURN_IF_ERROR(BatchCostCore(queries, configs.data(),
                                       configs.size(), base,
                                       BatchKind::kWorkloadCosts, ctx,
                                       totals.data()));
    return totals;
  }

  // Batched: cost of one query under each of `configs` (order-preserving)
  // — the inner loop of per-query greedy searches.
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

  // The cost a caller substitutes for a failed evaluation when it would
  // rather keep going than stop (`.value_or(kInfiniteCost)`, with the reason
  // at the call site): +infinity never wins a cost comparison, so a degraded
  // estimate can only push a search away from the failed config. Real costs
  // are finite and non-negative, so it is never mistaken for one.
  static constexpr double kInfiniteCost =
      std::numeric_limits<double>::infinity();

  // Number of what-if calls answered: one per (query, config) item the cost
  // model prices -- the paper's efficiency discussions count optimizer
  // invocations. Items a base-relative batch answers from its base cost are
  // not calls.
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

  // One query of a batch: the caller sets `query` and its fold `weight`;
  // BatchCostCore fills in the fingerprint and the resolved shape.
  struct BatchQuery {
    const sql::Query* query = nullptr;
    double weight = 1.0;
    uint64_t fp = 0;
    const QueryShape* shape = nullptr;  // null on a fingerprint collision
  };

  template <typename WorkloadT>
  static std::vector<BatchQuery> BatchQueries(const WorkloadT& w) {
    std::vector<BatchQuery> queries;
    queries.reserve(w.queries.size());
    for (const auto& wq : w.queries) {
      queries.push_back(BatchQuery{&wq.query, wq.weight});
    }
    return queries;
  }

  // The precompiled shape for (epoch, query_fp, q): served from the shape
  // cache, computed against `epoch`'s cost model and inserted on first
  // sight. Returns nullptr on a verified fingerprint collision (caller must
  // fall back to shape-free costing).
  const QueryShape* ResolveShape(const StatsEpoch& epoch, uint64_t query_fp,
                                 const sql::Query& q) const;

  // The shared batched core behind TryWorkloadCost / TryWorkloadCosts /
  // TryQueryCosts: fingerprints the queries and the nc configs and resolves
  // each query's shape once, then costs every item in config-major input
  // order and folds totals[0..nc) as the sum of weight * cost in query
  // order. With a non-null `base` (and nc > 0) the queries are first costed
  // under `base`, and an item whose config differs from `base` only on
  // tables its query's shape does not read reuses that cost (see
  // TryWorkloadCosts). Returns the first failing item's Status in input
  // order, the base items coming first.
  common::Status BatchCostCore(std::vector<BatchQuery>& queries,
                               const IndexConfig* configs, size_t nc,
                               const IndexConfig* base, BatchKind kind,
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
