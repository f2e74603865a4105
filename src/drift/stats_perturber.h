#ifndef TRAP_DRIFT_STATS_PERTURBER_H_
#define TRAP_DRIFT_STATS_PERTURBER_H_

#include <cstdint>

#include "catalog/stats_overlay.h"
#include "common/deadline.h"
#include "common/status.h"
#include "engine/index.h"
#include "engine/what_if.h"
#include "workload/workload.h"

namespace trap::drift {

// Knobs for the adversarial statistics search. The L1 budget bounds the
// total normalized distribution shift, mirroring the edit-budget epsilon of
// the trap:: workload perturber (trap/constraints.h): each greedy move
// spends `step_size` of the budget, so at most floor(l1_budget / step_size)
// moves ever land.
struct StatsPerturberOptions {
  double l1_budget = 1.0;
  double step_size = 0.25;
  int max_rounds = 16;  // hard cap on greedy rounds regardless of budget
};

// The result of an adversarial statistics search.
struct StatsPerturbation {
  catalog::StatsOverlay overlay;  // empty when no regressing move exists
  double l1_spent = 0.0;
  int moves = 0;
  double base_cost = 0.0;     // workload cost under base stats
  double shifted_cost = 0.0;  // workload cost under the overlay
  double regression() const { return shifted_cost - base_cost; }
};

// Adversarial data-distribution perturber: searches, within an L1 budget,
// for the per-column statistics shift that maximizes the cost regression of
// a *fixed* index configuration — the data-shift analogue of the trap::
// workload perturber (same greedy hill-climb, same budget discipline; the
// "edit" is a bounded NDV or skew move on one column instead of a query
// edit). Row counts and value domains are never touched, so the modeled
// histogram's mass and support are conserved; only its shape moves.
//
// The search is fully deterministic: candidate columns are the workload's
// filter columns in first-use order, moves are enumerated in a fixed order,
// and ties keep the earliest candidate. Candidates are costed through a
// private WhatIfOptimizer with the candidate overlay installed, so every
// estimate is bit-identical to what a drift episode with that overlay would
// see (and the epoch-keyed caches get adversarial exercise).
class StatsPerturber {
 public:
  // `schema` must outlive the perturber.
  explicit StatsPerturber(const catalog::Schema& schema,
                          StatsPerturberOptions options = {});

  // Maximizes cost regression of `fixed` over `w` within the L1 budget.
  // A zero (or sub-step) budget returns the identity perturbation:
  // an empty overlay and shifted_cost == base_cost, bit-for-bit.
  common::StatusOr<StatsPerturbation> TryPerturb(
      const workload::Workload& w, const engine::IndexConfig& fixed,
      const common::EvalContext& ctx = {});

 private:
  const catalog::Schema* schema_;
  StatsPerturberOptions options_;
  engine::WhatIfOptimizer optimizer_;  // private: epochs swapped in search
};

}  // namespace trap::drift

#endif  // TRAP_DRIFT_STATS_PERTURBER_H_
