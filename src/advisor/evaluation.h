#ifndef TRAP_ADVISOR_EVALUATION_H_
#define TRAP_ADVISOR_EVALUATION_H_

#include <cstdint>
#include <string>
#include <vector>

#include "advisor/advisor.h"
#include "engine/true_cost.h"

namespace trap::advisor {

// A structured record of one advisor failure survived by the evaluation
// runtime: which advisor failed, the fault site (when the Status originated
// from an injected fault), the final Status, how many attempts were made,
// and whether the evaluation degraded to the no-index baseline. Serialized
// into BenchReport JSON by the bench harness.
struct FailureRecord {
  std::string advisor;
  std::string site;     // fault-site name, or "" when not fault-originated
  common::StatusCode code = common::StatusCode::kInternal;
  std::string message;
  int attempts = 0;
  bool degraded = false;
};

// Deterministic retry-with-backoff policy. Backoff consumes steps from the
// caller's CancelToken budget (never wall clock); the per-attempt jitter is
// a pure function of (seed, attempt), so the whole retry trajectory is
// reproducible bit-for-bit.
struct RetryPolicy {
  int max_attempts = 3;               // total tries, including the first
  std::uint64_t backoff_base_steps = 16;
  std::uint64_t seed = 0x5ba0;        // jitter stream

  // Steps charged before retry attempt `attempt` (1-based): exponential
  // base plus seeded jitter in [0, base): base * 2^(attempt-1) + jitter.
  std::uint64_t BackoffSteps(int attempt) const;
};

// Outcome of RecommendWithRetry: `config` is the recommendation on success
// or the empty no-index fallback after degradation; `status` is OK exactly
// when a (possibly retried) attempt succeeded.
struct RecommendOutcome {
  engine::IndexConfig config;
  common::Status status;
  int attempts = 0;
  bool degraded = false;
};

// Runs advisor.TryRecommend under `ctx`, retrying retryable failures
// (kFaultInjected, kInternal) with deterministic backoff. kDeadlineExceeded,
// kCancelled, and kInvalidArgument are never retried: the budget is spent
// or the call can never succeed. When every attempt fails, the outcome
// carries kResourceExhausted (retry budget spent; the last attempt's status
// is appended to the message), degraded = true, and the empty config --
// the caller keeps running against the no-index baseline instead of
// crashing. Each attempt re-salts the EvalContext so probabilistic faults
// redraw (a p<1 fault can be retried through; a p=1 fault degrades).
RecommendOutcome RecommendWithRetry(IndexAdvisor& advisor,
                                    const workload::Workload& w,
                                    const TuningConstraint& constraint,
                                    const common::EvalContext& ctx,
                                    const RetryPolicy& policy = {});

// Builds the structured record for a failed outcome (status not OK),
// extracting the fault-site name from injected-fault messages.
FailureRecord MakeFailureRecord(const std::string& advisor_name,
                                const RecommendOutcome& outcome);

// Index utility and IUDR (Definitions 3.2 / 3.3). Costs are measured with
// the true-cost oracle (the "actual runtime" of this reproduction), while
// advisors internally rely on what-if estimates — exactly the paper's
// asymmetry.
class RobustnessEvaluator {
 public:
  RobustnessEvaluator(const engine::WhatIfOptimizer& optimizer,
                      const engine::TrueCostModel& truth);

  // u(W, d, f) = 1 - c(W, d, f(W)) / c(W, d, Ib(W)); `baseline` == nullptr
  // means Ib is the empty configuration (heuristic advisors). Advisor and
  // baseline recommendations run through RecommendWithRetry under `ctx`; a
  // degraded advisor scores against its fallback config (utility 0 against
  // an empty baseline) rather than aborting, and a non-OK Status is
  // returned only when the evaluation itself (not the advisor) cannot
  // proceed.
  common::StatusOr<double> TryIndexUtility(
      IndexAdvisor& advisor, IndexAdvisor* baseline,
      const workload::Workload& w, const TuningConstraint& constraint,
      const common::EvalContext& ctx, const RetryPolicy& policy = {},
      std::vector<FailureRecord>* failures = nullptr) const;

  // IUDR = 1 - u(W') / u(W); higher means a larger performance drop.
  static double Iudr(double utility_original, double utility_perturbed) {
    if (utility_original == 0.0) return 0.0;
    return 1.0 - utility_perturbed / utility_original;
  }

  const engine::WhatIfOptimizer& optimizer() const { return *optimizer_; }
  const engine::TrueCostModel& truth() const { return *truth_; }

 private:
  const engine::WhatIfOptimizer* optimizer_;
  const engine::TrueCostModel* truth_;
};

}  // namespace trap::advisor

#endif  // TRAP_ADVISOR_EVALUATION_H_
