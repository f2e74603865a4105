#include "advisor/rl_common.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <set>

#include "gbdt/features.h"
#include "obs/obs.h"

namespace trap::advisor {
namespace {

// Weighted fraction of `w`'s queries for which every column of `candidate`
// is syntactically relevant (appears among the query's indexable columns).
double CandidateRelevance(const engine::Index& candidate,
                          const workload::Workload& w) {
  double total = 0.0;
  double hit = 0.0;
  for (const workload::WorkloadQuery& wq : w.queries) {
    total += wq.weight;
    workload::Workload single;
    single.queries.push_back(wq);
    std::vector<IndexableColumn> cols = IndexableColumns(single);
    bool all = true;
    for (catalog::ColumnId c : candidate.columns) {
      bool found = false;
      for (const IndexableColumn& ic : cols) {
        if (ic.column == c) {
          found = true;
          break;
        }
      }
      if (!found) {
        all = false;
        break;
      }
    }
    if (all) hit += wq.weight;
  }
  return total > 0.0 ? hit / total : 0.0;
}

}  // namespace

void CountLearnerUpdate(int rows) {
  obs::MetricRegistry& reg = obs::MetricRegistry::Global();
  reg.counter("trap.advisor.learner.updates")->Add();
  reg.counter("trap.advisor.learner.update_rows")->Add(rows);
}

ActionSpace BuildActionSpace(const std::vector<workload::Workload>& training,
                             const catalog::Schema& schema, bool multi_column,
                             bool prune_candidates, int max_actions,
                             int max_width) {
  // Merge all training workloads into one bag to rank candidates by
  // frequency of syntactic relevance.
  workload::Workload merged;
  for (const workload::Workload& w : training) {
    for (const workload::WorkloadQuery& q : w.queries) {
      merged.queries.push_back(q);
    }
  }
  ActionSpace space;
  std::vector<engine::Index> relevant =
      AllCandidates(merged, schema, multi_column, max_width);
  // AllCandidates returns singles count-ordered first; keep that order.
  for (engine::Index& i : relevant) {
    if (static_cast<int>(space.candidates.size()) >= max_actions) break;
    space.candidates.push_back(std::move(i));
  }
  if (!prune_candidates) {
    // Un-pruned action space: single-column indexes over every schema
    // column, irrelevant ones included (Fig. 13's "w/o pruning" variant).
    for (int g = 0; g < schema.num_columns(); ++g) {
      if (static_cast<int>(space.candidates.size()) >= max_actions) break;
      engine::Index idx{{schema.ColumnFromGlobalIndex(g)}};
      if (std::find(space.candidates.begin(), space.candidates.end(), idx) ==
          space.candidates.end()) {
        space.candidates.push_back(std::move(idx));
      }
    }
  }
  return space;
}

StateEncoder::StateEncoder(StateGranularity granularity,
                           const engine::WhatIfOptimizer* optimizer,
                           const ActionSpace* actions)
    : granularity_(granularity), optimizer_(optimizer), actions_(actions) {}

int StateEncoder::dim() const {
  int k = actions_->size();
  if (granularity_ == StateGranularity::kFine) {
    // Plan features (4 x L) + current cost + utility so far + storage used +
    // per-candidate relevance + built flags.
    return gbdt::kPlanFeatureDim + 3 + 2 * k;
  }
  // Coarse: per-candidate occurrence counts + built flags + #built fraction.
  return 2 * k + 1;
}

common::StatusOr<std::vector<double>> StateEncoder::TryEncode(
    IndexSelectionEnv& env, const common::EvalContext& ctx) const {
  const workload::Workload& w = env.workload();
  const engine::IndexConfig& built = env.built();
  const TuningConstraint& constraint = env.constraint();
  int k = actions_->size();
  std::vector<double> state;
  state.reserve(static_cast<size_t>(dim()));
  if (granularity_ == StateGranularity::kFine) {
    // Aggregate plan features of the workload under the current config.
    std::vector<double> agg(gbdt::kPlanFeatureDim, 0.0);
    double cost = 0.0;
    for (const workload::WorkloadQuery& wq : w.queries) {
      std::unique_ptr<engine::PlanNode> plan =
          optimizer_->Plan(wq.query, built, ctx);
      std::vector<double> f = gbdt::ExtractPlanFeatures(*plan);
      for (int i = 0; i < gbdt::kPlanFeatureDim; ++i) {
        agg[static_cast<size_t>(i)] += wq.weight * f[static_cast<size_t>(i)];
      }
      cost += wq.weight * plan->cost;
    }
    double norm = std::max(1.0, static_cast<double>(w.size()));
    for (double v : agg) state.push_back(v / norm);
    TRAP_ASSIGN_OR_RETURN(double base, env.TryBaseCost(ctx));
    state.push_back(std::log1p(cost) / 20.0);
    state.push_back(base > 0.0 ? 1.0 - cost / base : 0.0);
    double used = constraint.storage_budget_bytes > 0
                      ? static_cast<double>(
                            built.TotalSizeBytes(optimizer_->schema())) /
                            static_cast<double>(constraint.storage_budget_bytes)
                      : 0.0;
    state.push_back(used);
    for (int a = 0; a < k; ++a) {
      state.push_back(
          CandidateRelevance(actions_->candidates[static_cast<size_t>(a)], w));
    }
    for (int a = 0; a < k; ++a) {
      state.push_back(
          built.Contains(actions_->candidates[static_cast<size_t>(a)]) ? 1.0 : 0.0);
    }
  } else {
    // Coarse: leading-column occurrence counts (no cost/plan information).
    std::map<catalog::ColumnId, double> counts;
    for (const IndexableColumn& ic : IndexableColumns(w)) {
      counts[ic.column] = ic.count;
    }
    double norm = std::max(1.0, static_cast<double>(w.size()));
    for (int a = 0; a < k; ++a) {
      catalog::ColumnId lead =
          actions_->candidates[static_cast<size_t>(a)].columns[0];
      auto it = counts.find(lead);
      state.push_back(it == counts.end() ? 0.0 : it->second / norm);
    }
    for (int a = 0; a < k; ++a) {
      state.push_back(
          built.Contains(actions_->candidates[static_cast<size_t>(a)]) ? 1.0 : 0.0);
    }
    int max_built = constraint.max_indexes > 0 ? constraint.max_indexes : 16;
    state.push_back(static_cast<double>(built.size()) /
                    static_cast<double>(max_built));
  }
  TRAP_CHECK(static_cast<int>(state.size()) == dim());
  return state;
}

IndexSelectionEnv::IndexSelectionEnv(const engine::WhatIfOptimizer* optimizer,
                                     const ActionSpace* actions)
    : optimizer_(optimizer), actions_(actions) {}

void IndexSelectionEnv::Reset(const workload::Workload* w,
                              const TuningConstraint& constraint) {
  workload_ = w;
  constraint_ = constraint;
  built_ = engine::IndexConfig();
  base_cost_.reset();
  steps_ = 0;
}

common::Status IndexSelectionEnv::TryReset(const workload::Workload* w,
                                           const TuningConstraint& constraint,
                                           const common::EvalContext& ctx) {
  Reset(w, constraint);
  ctx_ = ctx;
  TRAP_ASSIGN_OR_RETURN(current_cost_,
                        optimizer_->TryWorkloadCost(*w, built_, ctx_));
  base_cost_ = current_cost_;
  return common::Status::Ok();
}

common::StatusOr<double> IndexSelectionEnv::TryBaseCost(
    const common::EvalContext& ctx) {
  if (!base_cost_.has_value()) {
    TRAP_ASSIGN_OR_RETURN(
        double base,
        optimizer_->TryWorkloadCost(*workload_, engine::IndexConfig(), ctx));
    base_cost_ = base;
  }
  return *base_cost_;
}

std::vector<bool> IndexSelectionEnv::ValidActions(bool mask_irrelevant) const {
  std::vector<bool> valid(static_cast<size_t>(actions_->size()), false);
  for (int a = 0; a < actions_->size(); ++a) {
    const engine::Index& cand = actions_->candidates[static_cast<size_t>(a)];
    if (!FitsConstraint(built_, cand, constraint_, optimizer_->schema())) {
      continue;
    }
    if (mask_irrelevant && CandidateRelevance(cand, *workload_) <= 0.0) {
      continue;
    }
    valid[static_cast<size_t>(a)] = true;
  }
  return valid;
}

void IndexSelectionEnv::Build(int a) {
  TRAP_CHECK(a >= 0 && a < actions_->size());
  built_.Add(actions_->candidates[static_cast<size_t>(a)]);
  ++steps_;
}

common::StatusOr<double> IndexSelectionEnv::TryStep(int a) {
  Build(a);
  TRAP_ASSIGN_OR_RETURN(double new_cost,
                        optimizer_->TryWorkloadCost(*workload_, built_, ctx_));
  TRAP_CHECK(base_cost_.has_value());
  const double base = *base_cost_;
  double reward = base > 0.0 ? (current_cost_ - new_cost) / base : 0.0;
  current_cost_ = new_cost;
  return reward;
}

bool IndexSelectionEnv::Done() const {
  constexpr int kMaxSteps = 12;
  if (steps_ >= kMaxSteps) return true;
  if (constraint_.max_indexes > 0 && built_.size() >= constraint_.max_indexes) {
    return true;
  }
  return false;
}

}  // namespace trap::advisor
