#include "advisor/advisor.h"

#include "common/fault.h"
#include "common/rng.h"
#include "obs/obs.h"
#include "sql/query.h"

namespace trap::advisor {

engine::IndexConfig IndexAdvisor::Recommend(const workload::Workload& w,
                                            const TuningConstraint& constraint) {
  return TryRecommend(w, constraint, {}).value_or(engine::IndexConfig{});
}

uint64_t WorkloadFingerprint(const workload::Workload& w) {
  uint64_t fp = 0x7261700000000000ull;  // "rap\0..." tag, any fixed non-zero
  for (const auto& wq : w.queries) {
    fp = common::HashCombine(fp, sql::Fingerprint(wq.query));
    fp = common::HashCombine(fp, static_cast<uint64_t>(wq.weight * 1024.0));
  }
  return fp;
}

common::Status EnterRecommend(const std::string& advisor_name,
                              const workload::Workload& w,
                              const common::EvalContext& ctx) {
  TRAP_RETURN_IF_ERROR(ctx.CheckContinue());
  obs::MetricRegistry::Global()
      .counter("trap.advisor." + obs::MetricSegment(advisor_name) +
               ".recommends")
      ->Add();
  uint64_t name_hash = 0;
  for (char c : advisor_name) {
    name_hash = common::HashCombine(name_hash, static_cast<uint64_t>(
                                                   static_cast<unsigned char>(c)));
  }
  const uint64_t key = common::HashCombine(
      name_hash, common::HashCombine(WorkloadFingerprint(w), ctx.fault_salt));
  if (common::FaultShouldFire(common::FaultSite::kAdvisorRecommendFail, key)) {
    obs::CountFaultFire(
        common::FaultSiteName(common::FaultSite::kAdvisorRecommendFail));
    return common::Status::FaultInjected(
        "injected fault: advisor.recommend.fail (" + advisor_name + ")");
  }
  if (common::FaultShouldFire(common::FaultSite::kAdvisorRecommendHang, key)) {
    obs::CountFaultFire(
        common::FaultSiteName(common::FaultSite::kAdvisorRecommendHang));
    // A simulated hang: deterministically burn the caller's whole step
    // budget so the failure surfaces as kDeadlineExceeded, exactly like a
    // real non-terminating advisor under a deadline would.
    if (ctx.cancel != nullptr) {
      while (ctx.cancel->Charge()) {
      }
      return ctx.cancel->status();
    }
    // Unbounded context: an actual hang would never return, so surface the
    // injected fault directly instead of spinning forever.
    return common::Status::DeadlineExceeded(
        "injected fault: advisor.recommend.hang (" + advisor_name +
        ") with no step budget");
  }
  return common::Status::Ok();
}

}  // namespace trap::advisor
