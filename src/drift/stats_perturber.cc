#include "drift/stats_perturber.h"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "catalog/snapshot.h"
#include "common/check.h"
#include "obs/metrics.h"
#include "sql/query.h"

namespace trap::drift {
namespace {

// Normalized move coordinates: one unit of L1 budget buys
// kNdvDoublingsPerUnit doublings of a column's NDV, or kSkewRangePerUnit of
// skew travel (the full [0, 2] skew range). With the default step_size of
// 0.25 a single move doubles/halves NDV or moves skew by 0.5.
constexpr double kNdvDoublingsPerUnit = 4.0;
constexpr double kSkewRangePerUnit = 2.0;

// The four bounded moves the greedy search may apply to one column.
enum class StatsMove { kNdvUp = 0, kNdvDown, kSkewUp, kSkewDown };
constexpr StatsMove kAllMoves[] = {StatsMove::kNdvUp, StatsMove::kNdvDown,
                                   StatsMove::kSkewUp, StatsMove::kSkewDown};

// Applies `move` of size `step` to `cur`; returns false when the move is a
// no-op (already clamped at the boundary).
bool ApplyMove(StatsMove move, double step, int64_t max_ndv,
               catalog::ColumnStats* cur) {
  switch (move) {
    case StatsMove::kNdvUp:
    case StatsMove::kNdvDown: {
      const double factor = std::pow(2.0, step * kNdvDoublingsPerUnit);
      const double scaled =
          move == StatsMove::kNdvUp
              ? static_cast<double>(cur->num_distinct) * factor
              : static_cast<double>(cur->num_distinct) / factor;
      const int64_t ndv = std::clamp<int64_t>(
          static_cast<int64_t>(std::llround(scaled)), 1, max_ndv);
      if (ndv == cur->num_distinct) return false;
      cur->num_distinct = ndv;
      return true;
    }
    case StatsMove::kSkewUp:
    case StatsMove::kSkewDown: {
      const double delta = step * kSkewRangePerUnit;
      const double skew =
          std::clamp(move == StatsMove::kSkewUp ? cur->skew + delta
                                                : cur->skew - delta,
                     0.0, 2.0);
      if (skew == cur->skew) return false;
      cur->skew = skew;
      return true;
    }
  }
  return false;
}

// Filter columns of `w` that live in `schema`, deduplicated in first-use
// order — the deterministic candidate set.
std::vector<catalog::ColumnId> CandidateColumns(
    const workload::Workload& w, const catalog::Schema& schema) {
  std::vector<catalog::ColumnId> out;
  for (const workload::WorkloadQuery& wq : w.queries) {
    for (const sql::Predicate& p : wq.query.filters) {
      if (p.column.table >= schema.num_tables()) continue;
      if (std::find(out.begin(), out.end(), p.column) == out.end()) {
        out.push_back(p.column);
      }
    }
  }
  return out;
}

}  // namespace

StatsPerturber::StatsPerturber(const catalog::Schema& schema,
                               StatsPerturberOptions options)
    : schema_(&schema), options_(options), optimizer_(schema) {
  TRAP_CHECK(options_.l1_budget >= 0.0);
  TRAP_CHECK(options_.step_size > 0.0);
}

common::StatusOr<StatsPerturbation> StatsPerturber::TryPerturb(
    const workload::Workload& w, const engine::IndexConfig& fixed,
    const common::EvalContext& ctx) {
  obs::Counter* rounds_metric =
      obs::MetricRegistry::Global().counter("trap.drift.stats.rounds");
  obs::Counter* moves_metric =
      obs::MetricRegistry::Global().counter("trap.drift.stats.moves");

  StatsPerturbation result;
  // The private optimizer's base epoch is the unshifted schema; the search
  // never reads whatever snapshot the caller's context carries.
  common::EvalContext base_ctx = ctx;
  base_ctx.snapshot = nullptr;
  TRAP_ASSIGN_OR_RETURN(result.base_cost,
                        optimizer_.TryWorkloadCost(w, fixed, base_ctx));
  result.shifted_cost = result.base_cost;

  const std::vector<catalog::ColumnId> candidates =
      CandidateColumns(w, *schema_);
  const double step = options_.step_size;
  double current_cost = result.base_cost;
  // Greedy hill-climb, one budgeted move per round: evaluate every
  // (column, move) candidate against the current overlay, adopt the one
  // that regresses the fixed configuration most, stop when the budget (or
  // the round cap) is exhausted or no candidate regresses further.
  for (int round = 0; round < options_.max_rounds; ++round) {
    if (candidates.empty()) break;
    if (result.l1_spent + step > options_.l1_budget + 1e-12) break;
    TRAP_RETURN_IF_ERROR(ctx.CheckContinue());
    rounds_metric->Add();

    bool found = false;
    double best_cost = current_cost;
    catalog::StatsOverlay best_overlay;
    for (const catalog::ColumnId id : candidates) {
      auto it = result.overlay.column_stats().find(id);
      const catalog::ColumnStats cur =
          it != result.overlay.column_stats().end()
              ? it->second
              : catalog::StatsOf(schema_->column(id));
      const int64_t rows =
          std::max<int64_t>(1, schema_->table(id.table).num_rows);
      for (const StatsMove move : kAllMoves) {
        catalog::ColumnStats next = cur;
        if (!ApplyMove(move, step, rows, &next)) continue;
        catalog::StatsOverlay trial = result.overlay;
        trial.SetColumnStats(id, next);
        // Each trial is an immutable snapshot on the context; nothing is
        // installed, so there is nothing to clear on any exit path.
        const catalog::Snapshot trial_snapshot(*schema_, trial);
        common::EvalContext trial_ctx = ctx;
        trial_ctx.snapshot = &trial_snapshot;
        TRAP_ASSIGN_OR_RETURN(const double cost,
                              optimizer_.TryWorkloadCost(w, fixed, trial_ctx));
        // Strict improvement keeps the search deterministic under ties:
        // the earliest (column, move) candidate wins.
        if (cost > best_cost) {
          best_cost = cost;
          best_overlay = std::move(trial);
          found = true;
        }
      }
    }
    if (!found) break;
    result.overlay = std::move(best_overlay);
    result.l1_spent += step;
    result.moves += 1;
    current_cost = best_cost;
    moves_metric->Add();
  }

  result.shifted_cost = current_cost;
  return result;
}

}  // namespace trap::drift
