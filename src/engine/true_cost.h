#ifndef TRAP_ENGINE_TRUE_COST_H_
#define TRAP_ENGINE_TRUE_COST_H_

#include "engine/cost_model.h"

namespace trap::engine {

// Surrogate for actual query runtime. The paper trains its learned index
// utility model on executed runtimes because optimizer estimates carry
// systematic error; with no real hardware here, TrueCostModel plays the role
// of "ground truth" by deliberately diverging from CostModel:
//
//   * per-operator bias factors (e.g. the estimator undercosts random I/O of
//     index scans and overcosts index-only scans);
//   * a hidden per-(table, filtered-column-set) correlation factor that
//     models attribute correlations the independence assumption misses;
//   * small deterministic per-(query, configuration) noise.
//
// The divergence is a deterministic function of the plan plus hidden factors,
// so a learned model over plan features can approximate it far better than
// the raw estimate can — reproducing the effect behind Fig. 8(a).
class TrueCostModel {
 public:
  explicit TrueCostModel(const catalog::Schema& schema, CostParams params = {},
                         uint64_t seed = 0x7ea1c0deULL);

  // "Actual runtime" of `q` under `config`.
  double QueryCost(const sql::Query& q, const IndexConfig& config) const;

  // Actual runtime computed from an existing plan of `q`.
  double PlanCost(const PlanNode& root, const sql::Query& q,
                  const IndexConfig& config) const;

  const catalog::Schema& schema() const { return model_.schema(); }

 private:
  double NodeBias(PlanNodeType type) const;
  double CorrelationFactor(const sql::Query& q, int table) const;

  CostModel model_;
  uint64_t seed_;
};

// Weighted "actual runtime" cost of a workload under `config` via the
// true-cost oracle, summed in query order. `WorkloadT` is any type with a
// `queries` vector of {query, weight} entries (workload::Workload; templated
// like WhatIfOptimizer's batch APIs so the engine layer stays free of an
// upward dependency on workload/).
template <typename WorkloadT>
double ActualCost(const WorkloadT& w, const TrueCostModel& truth,
                  const IndexConfig& config) {
  double total = 0.0;
  for (const auto& wq : w.queries) {
    total += wq.weight * truth.QueryCost(wq.query, config);
  }
  return total;
}

}  // namespace trap::engine

#endif  // TRAP_ENGINE_TRUE_COST_H_
