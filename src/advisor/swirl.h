#ifndef TRAP_ADVISOR_SWIRL_H_
#define TRAP_ADVISOR_SWIRL_H_

#include <memory>

#include "advisor/rl_common.h"

namespace trap::advisor {

// SWIRL [Kossmann et al., EDBT'22]: workload-aware index selection with
// policy-gradient RL (the original uses PPO; this implementation trains an
// actor-critic with advantage normalization and a clipped-style single-epoch
// update). Distinguishing design choices the paper's analysis isolates:
// the fine-grained workload state representation (Fig. 12) and invalid
// action masking over the candidate action space (Fig. 13).
struct SwirlOptions {
  StateGranularity state = StateGranularity::kFine;
  bool action_masking = true;     // invalid action masking (Fig. 13 switch)
  bool multi_column = true;
  bool prune_candidates = true;   // syntactic candidate pruning
  int max_actions = 48;
  int hidden = 64;
  double learning_rate = 1e-3;
  int episodes = 400;
  uint64_t seed = 0x50a1;
};

class SwirlAdvisor : public LearningAdvisor {
 public:
  SwirlAdvisor(const engine::WhatIfOptimizer& optimizer, SwirlOptions options);
  ~SwirlAdvisor() override;

  std::string name() const override { return "SWIRL"; }

  void Train(const std::vector<workload::Workload>& training,
             const TuningConstraint& constraint) override;
  const nn::ParameterStore& weights() const override;

  common::StatusOr<engine::IndexConfig> TryRecommend(
      const workload::Workload& w, const TuningConstraint& constraint,
      const common::EvalContext& ctx) override;

  const ActionSpace& action_space() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace trap::advisor

#endif  // TRAP_ADVISOR_SWIRL_H_
