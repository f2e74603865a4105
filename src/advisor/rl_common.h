#ifndef TRAP_ADVISOR_RL_COMMON_H_
#define TRAP_ADVISOR_RL_COMMON_H_

#include <optional>
#include <vector>

#include "advisor/advisor.h"
#include "advisor/candidates.h"
#include "nn/layers.h"

namespace trap::advisor {

// Learning-based advisors are trained once on training workloads and then
// frozen; robustness assessment probes the frozen policy (Definition 3.3
// explicitly excludes re-training).
class LearningAdvisor : public IndexAdvisor {
 public:
  virtual void Train(const std::vector<workload::Workload>& training,
                     const TuningConstraint& constraint) = 0;
  // The trained policy's weights (for DQN/DRLindex the online Q-network).
  virtual const nn::ParameterStore& weights() const = 0;
};

// Counts one gradient update over `rows` samples into
// trap.advisor.learner.updates and trap.advisor.learner.update_rows.
void CountLearnerUpdate(int rows);

// State representation granularity, the design axis of Fig. 12:
//   kFine   — operator/cost statistics from the workload's current plans
//             plus per-candidate relevance and progress features (SWIRL);
//   kCoarse — column-presence counts and built flags only (DRLindex).
enum class StateGranularity { kFine, kCoarse };

// The fixed action space of a learning-based advisor: one action per
// candidate index (plus an implicit stop). Built at training time from the
// training workloads — queries outside this space at assessment time are
// exactly where robustness problems appear.
struct ActionSpace {
  std::vector<engine::Index> candidates;

  int size() const { return static_cast<int>(candidates.size()); }
};

// Builds an action space from training workloads.
// `prune_candidates` (Fig. 13): when true, only syntactically relevant
// candidates (from AllCandidates) enter; when false, the space additionally
// contains single-column indexes over every schema column (irrelevant
// actions included), up to `max_actions`.
ActionSpace BuildActionSpace(const std::vector<workload::Workload>& training,
                             const catalog::Schema& schema, bool multi_column,
                             bool prune_candidates, int max_actions,
                             int max_width = 3);

class IndexSelectionEnv;

// Encodes (workload, built configuration, constraint) into a feature vector.
class StateEncoder {
 public:
  StateEncoder(StateGranularity granularity,
               const engine::WhatIfOptimizer* optimizer,
               const ActionSpace* actions);

  int dim() const;

  // Encodes the episode's workload, built configuration and constraint.
  // `ctx` selects the stats epoch the fine-grained plan/cost features are
  // computed against (the base epoch by default); it must be the one the
  // episode's cost probes use. Recommend-time callers must pass their
  // evaluation context so drifted workloads are encoded under the snapshot
  // they will be costed against. The fine state reads the no-index cost
  // from env.TryBaseCost, and fails when that probe fails.
  common::StatusOr<std::vector<double>> TryEncode(
      IndexSelectionEnv& env, const common::EvalContext& ctx = {}) const;

  StateGranularity granularity() const { return granularity_; }

 private:
  StateGranularity granularity_;
  const engine::WhatIfOptimizer* optimizer_;
  const ActionSpace* actions_;
};

// The index-selection episode shared by all RL advisors: starting from the
// empty configuration, each action builds one candidate; the reward is the
// workload cost reduction of that step normalized by the no-index cost.
// Training episodes read rewards (TryReset + TryStep); greedy policy walks
// read none, so they build without a single what-if probe (Reset + Build).
class IndexSelectionEnv {
 public:
  IndexSelectionEnv(const engine::WhatIfOptimizer* optimizer,
                    const ActionSpace* actions);

  // Starts an episode from the empty configuration; probes nothing.
  void Reset(const workload::Workload* w, const TuningConstraint& constraint);

  // Reset, then probes the no-index cost the rewards are normalized by.
  // `ctx` is pinned for the episode: every cost probe (the base cost here,
  // each TryStep's what-if probe) runs against the epoch it carries. It must
  // outlive the episode. Fails when the base-cost probe fails; the episode
  // cannot run then.
  common::Status TryReset(const workload::Workload* w,
                          const TuningConstraint& constraint,
                          const common::EvalContext& ctx = {});

  // Valid actions: not built, fits the constraint. If `mask_irrelevant`,
  // additionally requires positive syntactic relevance to the workload
  // (SWIRL's invalid action masking).
  std::vector<bool> ValidActions(bool mask_irrelevant) const;

  // Builds candidate `a` (index into the action space) without probing its
  // cost.
  void Build(int a);

  // Build(a) in an episode started by TryReset; returns the reward, or the
  // what-if probe's error (the episode should end there: its cost
  // bookkeeping no longer holds).
  common::StatusOr<double> TryStep(int a);

  // The no-index cost of the episode's workload, which no step changes:
  // TryReset's probe, or after Reset one probe under `ctx` (the context the
  // episode is encoded under) on the first call.
  common::StatusOr<double> TryBaseCost(const common::EvalContext& ctx);

  bool Done() const;
  const workload::Workload& workload() const { return *workload_; }
  const TuningConstraint& constraint() const { return constraint_; }
  const engine::IndexConfig& built() const { return built_; }

 private:
  const engine::WhatIfOptimizer* optimizer_;
  const ActionSpace* actions_;
  const workload::Workload* workload_ = nullptr;
  TuningConstraint constraint_;
  common::EvalContext ctx_;
  engine::IndexConfig built_;
  std::optional<double> base_cost_;  // empty after Reset until probed
  double current_cost_ = 0.0;
  int steps_ = 0;
};

}  // namespace trap::advisor

#endif  // TRAP_ADVISOR_RL_COMMON_H_
