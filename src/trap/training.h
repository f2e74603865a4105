#ifndef TRAP_TRAP_TRAINING_H_
#define TRAP_TRAP_TRAINING_H_

#include <optional>
#include <vector>

#include "advisor/evaluation.h"
#include "gbdt/utility_model.h"
#include "trap/agent.h"

namespace trap::trap {

// ---------------------------------------------------------------------------
// Phase 1: index-advisor-independent pretraining (Section IV-C, Eq. 7).
// ---------------------------------------------------------------------------

struct PretrainOptions {
  int num_pairs = 1000;  // synthetic (q, q') pairs; the paper uses 20k
  int epochs = 3;
  double learning_rate = 1e-3;
  uint64_t seed = 0x9e7;
  friend bool operator==(const PretrainOptions&,
                         const PretrainOptions&) = default;
};

// Builds a synthetic corpus Q = {(q, q')} by randomly perturbing pool
// queries through the reference tree, then maximizes the likelihood of
// generating q' from q under the legitimate-vocabulary masking. Returns the
// mean negative log-likelihood per epoch (decreasing when learning works).
std::vector<double> Pretrain(TrapAgent& agent,
                             const std::vector<sql::Query>& pool,
                             PerturbationConstraint constraint, int epsilon,
                             const PretrainOptions& options);

// ---------------------------------------------------------------------------
// Phase 2: reinforced perturbation policy learning (Section IV-B, Eq. 6).
// ---------------------------------------------------------------------------

struct RlOptions {
  int epochs = 20;  // the paper trains 100 RL epochs; scaled by benches
  int workloads_per_epoch = 6;
  double learning_rate = 1e-3;
  double theta = 0.1;              // utility threshold for usable workloads
  bool use_learned_utility = true; // false = raw what-if reward (Fig. 8a)
  uint64_t seed = 0x9e8;
};

struct RlTrace {
  // Mean (estimated) IUDR of sampled perturbations per epoch; none for an
  // epoch in which no drawn workload passed u(W) > theta with both rewards
  // estimated.
  std::vector<std::optional<double>> mean_reward_per_epoch;
};

// Trains the agent to generate workloads that degrade one victim advisor
// (opaque-box: only Recommend() is called). The reward is the IUDR computed
// with the learned index utility model, or with raw what-if estimates when
// ablated.
class RlTrainer {
 public:
  RlTrainer(TrapAgent* agent, advisor::IndexAdvisor* victim,
            advisor::IndexAdvisor* victim_baseline,
            const engine::WhatIfOptimizer* optimizer,
            const gbdt::LearnedUtilityModel* utility,
            PerturbationConstraint constraint, int epsilon,
            advisor::TuningConstraint tuning, RlOptions options);

  RlTrace Train(const std::vector<workload::Workload>& training);

  // Greedy adversarial perturbation of a workload with the trained policy.
  // Decode steps are charged to ctx's step budget; episodes past the
  // deadline complete with first-legal tokens (see TrapAgent::RunEpisode).
  // `encodings`, when given, is read and filled as RunEpisode does: pass one
  // record to every perturbation of `w` made under the same weights.
  workload::Workload Perturb(const workload::Workload& w,
                             const common::EvalContext& ctx = {},
                             TrapAgent::Encodings* encodings = nullptr) const;

  // Stochastic perturbation (policy sampling) — used for best-of-k
  // generation at assessment time.
  workload::Workload PerturbSampled(
      const workload::Workload& w, common::Rng& rng,
      const common::EvalContext& ctx = {},
      TrapAgent::Encodings* encodings = nullptr) const;

  // Estimated IUDR of perturbing `w` into `perturbed` from the victim's
  // perspective (used as the reward signal). Empty when a what-if probe
  // behind it failed, which only the raw what-if reward can do: the
  // candidate then has no score.
  std::optional<double> EstimatedIudr(
      const workload::Workload& w, const workload::Workload& perturbed) const;

  // u(W) as EstimatedIudr keeps it across calls on one W.
  struct UtilityMemo {
    bool asked = false;           // false until u(W) is first asked
    std::optional<double> value;  // empty when asking it failed
  };

  // The same, with u(W) kept in `*u` across calls on one `w`: the first
  // call fills it and later ones reuse it, so scoring k perturbations of W
  // asks the victim for u(W) once, not k times. When the victim or the
  // baseline is not pure (IndexAdvisor::RecommendIsPure) u(W) is asked
  // again on every call, as the overload above does, so the advisor's
  // random stream sees the same calls.
  std::optional<double> EstimatedIudr(const workload::Workload& w,
                                      const workload::Workload& perturbed,
                                      UtilityMemo* u) const;

 private:
  // Decodes every query of `w` in `mode` on its own inference tape.
  workload::Workload Decode(const workload::Workload& w, TrapAgent::Mode mode,
                            common::Rng* rng, const common::EvalContext& ctx,
                            TrapAgent::Encodings* encodings) const;
  // u(W) = 1 - cost(selected) / cost(baseline); empty when a raw what-if
  // probe fails.
  std::optional<double> EstimatedUtility(const workload::Workload& w) const;
  std::optional<double> CostOf(const workload::Workload& w,
                               const engine::IndexConfig& config) const;

  TrapAgent* agent_;
  advisor::IndexAdvisor* victim_;
  advisor::IndexAdvisor* baseline_;
  const engine::WhatIfOptimizer* optimizer_;
  const gbdt::LearnedUtilityModel* utility_;
  PerturbationConstraint constraint_;
  int epsilon_;
  advisor::TuningConstraint tuning_;
  RlOptions options_;
  bool pure_recommend_;
};

}  // namespace trap::trap

#endif  // TRAP_TRAP_TRAINING_H_
