#include "advisor/evaluation.h"

#include "common/rng.h"
#include "obs/obs.h"

namespace trap::advisor {

std::uint64_t RetryPolicy::BackoffSteps(int attempt) const {
  std::uint64_t base = backoff_base_steps;
  for (int i = 1; i < attempt; ++i) base *= 2;  // exponential
  // Seeded jitter in [0, backoff_base_steps): a pure function of
  // (seed, attempt), so retry trajectories replay identically.
  std::uint64_t jitter =
      backoff_base_steps > 0
          ? common::HashCombine(seed, static_cast<std::uint64_t>(attempt)) %
                backoff_base_steps
          : 0;
  return base + jitter;
}

namespace {

bool IsRetryable(common::StatusCode code) {
  return code == common::StatusCode::kFaultInjected ||
         code == common::StatusCode::kInternal;
}

// Extracts the fault-site name from "injected fault: <site> ..." messages.
std::string SiteFromMessage(const std::string& message) {
  constexpr const char kPrefix[] = "injected fault: ";
  size_t pos = message.find(kPrefix);
  if (pos == std::string::npos) return "";
  size_t start = pos + sizeof(kPrefix) - 1;
  size_t end = start;
  while (end < message.size() && message[end] != ' ' &&
         message[end] != '(' && message[end] != '\n') {
    ++end;
  }
  return message.substr(start, end - start);
}

}  // namespace

namespace {

// Retry-loop observability. RecommendWithRetry runs serially under its
// caller, so every count is deterministic for a given call schedule.
struct RetryMetrics {
  obs::Counter* attempts;
  obs::Counter* backoff_steps;
  obs::Counter* successes;
  obs::Counter* degradations;
};

RetryMetrics& Metrics() {
  static RetryMetrics* m = [] {
    obs::MetricRegistry& reg = obs::MetricRegistry::Global();
    return new RetryMetrics{reg.counter("trap.retry.attempts"),
                            reg.counter("trap.retry.backoff_steps"),
                            reg.counter("trap.retry.successes"),
                            reg.counter("trap.retry.degradations")};
  }();
  return *m;
}

}  // namespace

RecommendOutcome RecommendWithRetry(IndexAdvisor& advisor,
                                    const workload::Workload& w,
                                    const TuningConstraint& constraint,
                                    const common::EvalContext& ctx,
                                    const RetryPolicy& policy) {
  RecommendOutcome outcome;
  obs::TraceSpan retry_span(ctx, "advisor.recommend_with_retry",
                            WorkloadFingerprint(w));
  common::Status last = common::Status::Internal("no attempts made");
  for (int attempt = 1; attempt <= policy.max_attempts; ++attempt) {
    if (attempt > 1) {
      // Deterministic backoff, charged to the same step budget as the
      // evaluation itself; an expired budget ends the retry loop.
      const std::uint64_t backoff = policy.BackoffSteps(attempt - 1);
      Metrics().backoff_steps->Add(static_cast<int64_t>(backoff));
      if (ctx.cancel != nullptr && !ctx.cancel->Charge(backoff)) {
        last = ctx.cancel->status();
        break;
      }
    }
    ++outcome.attempts;
    Metrics().attempts->Add();
    obs::TraceSpan attempt_span(retry_span.ctx(), "advisor.attempt",
                                static_cast<std::uint64_t>(attempt));
    common::StatusOr<engine::IndexConfig> result =
        advisor.TryRecommend(w, constraint,
                             attempt_span.ctx().WithAttempt(
                                 static_cast<std::uint64_t>(attempt)));
    if (result.ok()) {
      Metrics().successes->Add();
      outcome.config = *std::move(result);
      outcome.status = common::Status::Ok();
      return outcome;
    }
    last = result.status();
    if (!IsRetryable(last.code())) break;
  }
  // Degradation: fall back to the no-index baseline configuration. The
  // empty config is always constraint-feasible and never a silent wrong
  // answer -- the caller sees the failure in `status` and the FailureRecord.
  outcome.degraded = true;
  Metrics().degradations->Add();
  outcome.config = engine::IndexConfig{};
  if (IsRetryable(last.code()) && outcome.attempts >= policy.max_attempts) {
    outcome.status = common::Status::ResourceExhausted(
        "retry budget exhausted after " + std::to_string(outcome.attempts) +
        " attempt(s); last error: " + last.ToString());
  } else {
    outcome.status = last;
  }
  return outcome;
}

FailureRecord MakeFailureRecord(const std::string& advisor_name,
                                const RecommendOutcome& outcome) {
  FailureRecord record;
  record.advisor = advisor_name;
  record.site = SiteFromMessage(outcome.status.message());
  record.code = outcome.status.code();
  record.message = outcome.status.message();
  record.attempts = outcome.attempts;
  record.degraded = outcome.degraded;
  return record;
}

RobustnessEvaluator::RobustnessEvaluator(
    const engine::WhatIfOptimizer& optimizer,
    const engine::TrueCostModel& truth)
    : optimizer_(&optimizer), truth_(&truth) {}

common::StatusOr<double> RobustnessEvaluator::TryIndexUtility(
    IndexAdvisor& advisor, IndexAdvisor* baseline, const workload::Workload& w,
    const TuningConstraint& constraint, const common::EvalContext& ctx,
    const RetryPolicy& policy, std::vector<FailureRecord>* failures) const {
  RecommendOutcome selected =
      RecommendWithRetry(advisor, w, constraint, ctx, policy);
  if (!selected.status.ok() && failures != nullptr) {
    failures->push_back(MakeFailureRecord(advisor.name(), selected));
  }
  RecommendOutcome base;
  if (baseline != nullptr) {
    base = RecommendWithRetry(*baseline, w, constraint, ctx, policy);
    if (!base.status.ok() && failures != nullptr) {
      failures->push_back(MakeFailureRecord(baseline->name(), base));
    }
  }
  // A cancelled/expired evaluation cannot produce a meaningful utility at
  // all; advisor-level failures, by contrast, degrade to the no-index
  // fallback configs already held in the outcomes.
  for (const RecommendOutcome* o : {&selected, &base}) {
    if (o->status.code() == common::StatusCode::kCancelled ||
        o->status.code() == common::StatusCode::kDeadlineExceeded) {
      return o->status;
    }
  }
  double with_cost = engine::ActualCost(w, *truth_, selected.config);
  double base_cost = engine::ActualCost(w, *truth_, base.config);
  if (base_cost <= 0.0) return 0.0;
  return 1.0 - with_cost / base_cost;
}

}  // namespace trap::advisor
