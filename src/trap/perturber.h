#ifndef TRAP_TRAP_PERTURBER_H_
#define TRAP_TRAP_PERTURBER_H_

#include <memory>
#include <string>

#include "trap/training.h"

namespace trap::trap {

// The four workload generation methods compared in Section V-B, plus the
// transformer variants of Fig. 7 / Table IV.
enum class GenerationMethod {
  kRandom,       // random tree-legal perturbations (5x attempts allowed)
  kGru,          // decoder-only GRU, RL only
  kSeq2Seq,      // Bi-GRU encoder + GRU decoder, no attention, RL only
  kTrap,         // full TRAP: attention + pretraining + learned utility
  kTransformer,  // transformer-encoder variant (PLM stand-in), RL only
};

const char* MethodName(GenerationMethod m);

// Transformer configurations standing in for the pre-trained language models
// of Table IV ("Bert", "Bart", "CodeBert", "StarEncoder"); sizes scale with
// the original models' relative parameter counts. An unknown model name is
// a caller error reported as kInvalidArgument, not an abort.
common::StatusOr<AgentOptions> PlmAgentOptions(const std::string& plm_name,
                                               uint64_t seed);

struct GeneratorConfig {
  GenerationMethod method = GenerationMethod::kTrap;
  PerturbationConstraint constraint = PerturbationConstraint::kSharedTable;
  int epsilon = 5;
  AgentOptions agent;        // dims/encoder filled in by the method unless
                             // method == kTransformer (caller supplies)
  PretrainOptions pretrain;  // used by kTrap
  bool pretrain_enabled = true;  // Fig. 8(b): kTrap without phase 1
  RlOptions rl;
  int random_attempts = 5;   // Random generates 5x more queries (Sec. V-B)
  int model_attempts = 3;    // trained methods: greedy + (k-1) sampled
                             // candidates, scored by estimated IUDR
  uint64_t seed = 0xace;
};

// End-to-end adversarial workload generator: construct, Fit against a victim
// index advisor, then Generate perturbed workloads. All methods share the
// Constraint-Aware Reference Tree, so every produced query is valid and
// within the edit budget.
class AdversarialWorkloadGenerator {
 public:
  AdversarialWorkloadGenerator(const sql::Vocabulary& vocab,
                               GeneratorConfig config);
  ~AdversarialWorkloadGenerator();

  // Trains the generator against `victim` (no-op policy training for
  // kRandom, which still uses the utility model to pick its best attempt).
  // `pretrain_pool` feeds phase-1; `training` feeds the RL phase. Phase 1
  // does not depend on the victim: a first Fit reuses the pretrained
  // encoder of an earlier generator on the same Vocabulary instance with
  // equal agent options, PretrainOptions, constraint, epsilon and pool,
  // bit-identically to pretraining again (counted by trap.pretrain.runs /
  // trap.pretrain.reused). Do not modify agent() before the first Fit.
  void Fit(advisor::IndexAdvisor* victim, advisor::IndexAdvisor* victim_baseline,
           const engine::WhatIfOptimizer* optimizer,
           const gbdt::LearnedUtilityModel* utility,
           const std::vector<sql::Query>& pretrain_pool,
           const std::vector<workload::Workload>& training,
           advisor::TuningConstraint tuning);

  // Produces the perturbation-based adversarial workload W' for W.
  // Degrades any error to returning `w` unperturbed (never a crash, never
  // an invalid workload); use TryGenerate to observe failures.
  workload::Workload Generate(const workload::Workload& w);

  // Fallible generation under `ctx`. Queries for which the
  // perturber.invalid_tree fault fires degrade individually to their
  // unperturbed originals (counted by num_degraded_queries()); calling
  // before Fit is kInvalidArgument.
  common::StatusOr<workload::Workload> TryGenerate(
      const workload::Workload& w, const common::EvalContext& ctx = {});

  // Queries degraded to their originals because the perturbed tree was
  // rejected (perturber.invalid_tree), since construction.
  int64_t num_degraded_queries() const { return num_degraded_queries_; }

  // Introspection for the benches.
  int64_t NumParameters() const;
  const RlTrace& rl_trace() const { return rl_trace_; }
  const std::vector<double>& pretrain_trace() const { return pretrain_trace_; }
  TrapAgent* agent();  // nullptr for kRandom

  const GeneratorConfig& config() const { return config_; }

 private:
  common::StatusOr<workload::Workload> TryRandomPerturb(
      const workload::Workload& w, const common::EvalContext& ctx);

  const sql::Vocabulary* vocab_;
  GeneratorConfig config_;
  common::Rng rng_;
  std::unique_ptr<TrapAgent> agent_;
  std::unique_ptr<RlTrainer> trainer_;
  RlTrace rl_trace_;
  std::vector<double> pretrain_trace_;
  int64_t num_degraded_queries_ = 0;
};

}  // namespace trap::trap

#endif  // TRAP_TRAP_PERTURBER_H_
