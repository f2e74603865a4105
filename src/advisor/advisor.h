#ifndef TRAP_ADVISOR_ADVISOR_H_
#define TRAP_ADVISOR_ADVISOR_H_

#include <memory>
#include <string>
#include <vector>

#include "common/deadline.h"
#include "common/status.h"
#include "engine/index.h"
#include "engine/what_if.h"
#include "workload/workload.h"

namespace trap::advisor {

// Tuning constraint (Table III): advisors are either storage-budgeted or
// index-count-budgeted. Count-budgeted advisors additionally may not exceed
// the storage budget, matching the paper's evaluation protocol ("they are
// allowed to build indexes that don't exceed the same storage budget given").
struct TuningConstraint {
  int64_t storage_budget_bytes = 0;  // always enforced
  int max_indexes = 0;               // 0 = unconstrained count

  static TuningConstraint Storage(int64_t bytes) {
    TuningConstraint c;
    c.storage_budget_bytes = bytes;
    return c;
  }
  static TuningConstraint IndexCount(int n, int64_t storage_bytes) {
    TuningConstraint c;
    c.storage_budget_bytes = storage_bytes;
    c.max_indexes = n;
    return c;
  }
};

// Interface implemented by all ten advisors (Definition 3.1): given a
// workload and a tuning constraint, return a set of indexes. Advisors
// interact with the engine exclusively through what-if calls.
//
// Error handling: TryRecommend is the fallible, deadline-aware entry point
// every advisor implements, and the one callers use; each caller states
// what a failure means for it. Recommend, an infallible shim that degrades
// an error to the empty configuration, exists only because the benchmark
// (perfbench/) calls it and its counting proxy overrides it; the
// restricted-api lint rule keeps every other caller off it.
class IndexAdvisor {
 public:
  virtual ~IndexAdvisor() = default;

  virtual std::string name() const = 0;

  virtual engine::IndexConfig Recommend(const workload::Workload& w,
                                        const TuningConstraint& constraint);

  // Recommends under `ctx`: honors the step budget / cancellation, surfaces
  // injected faults and internal failures as Statuses instead of aborting.
  virtual common::StatusOr<engine::IndexConfig> TryRecommend(
      const workload::Workload& w, const TuningConstraint& constraint,
      const common::EvalContext& ctx) = 0;

  // True when both entry points are pure functions of (workload,
  // constraint, ctx), fault draws included, so a caller may reuse an
  // answer instead of asking again. An advisor that draws from its own
  // random stream while recommending (MCTS) returns false.
  virtual bool RecommendIsPure() const { return true; }
};

// A stable 64-bit fingerprint of the workload (query fingerprints +
// weights, order-sensitive) — the fault-draw key for advisor-level sites.
uint64_t WorkloadFingerprint(const workload::Workload& w);

// Shared entry bracket for TryRecommend implementations: charges one step
// and consults the advisor.recommend.fail / advisor.recommend.hang fault
// sites, keyed on (advisor name, workload fingerprint, ctx.fault_salt).
// The hang site deterministically consumes the caller's remaining step
// budget — a simulated non-terminating advisor surfacing as
// kDeadlineExceeded rather than a real hang.
common::Status EnterRecommend(const std::string& advisor_name,
                              const workload::Workload& w,
                              const common::EvalContext& ctx);

// True if adding `index` to `config` stays within the constraint.
bool FitsConstraint(const engine::IndexConfig& config,
                    const engine::Index& index,
                    const TuningConstraint& constraint,
                    const catalog::Schema& schema);

}  // namespace trap::advisor

#endif  // TRAP_ADVISOR_ADVISOR_H_
