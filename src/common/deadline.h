#ifndef TRAP_COMMON_DEADLINE_H_
#define TRAP_COMMON_DEADLINE_H_

#include <atomic>
#include <cstdint>

#include "common/status.h"

namespace trap::obs {
struct ObsSink;
}  // namespace trap::obs

namespace trap::catalog {
class Snapshot;
}  // namespace trap::catalog

namespace trap::common {

// Cooperative cancellation + deadline for bounded evaluation.
//
// Deadlines are expressed as a *step budget*, not wall-clock time: every
// unit of evaluation work (a what-if cost computation, an advisor search
// round, an agent decode step) charges one or more steps against the token.
// The same inputs therefore expire at exactly the same point on every run
// and on every thread count, keeping results bit-identical -- and the
// module stays compatible with the no-wall-clock lint rule.
//
// A CancelToken may be shared by concurrent callers; all members are
// thread-safe. The zero-argument constructor means "unbounded".
class CancelToken {
 public:
  CancelToken() = default;
  explicit CancelToken(std::uint64_t step_budget) : budget_(step_budget) {}

  // Cooperative cancellation, e.g. from a supervising thread.
  void Cancel() { cancelled_.store(true, std::memory_order_relaxed); }
  bool cancelled() const { return cancelled_.load(std::memory_order_relaxed); }

  // Charges `n` steps. Returns false once the budget is spent or the token
  // is cancelled; work loops should stop and return a Status at that point.
  bool Charge(std::uint64_t n = 1) {
    if (cancelled()) return false;
    if (budget_ == kUnbounded) return true;
    // fetch_add keeps the total deterministic: the *content* of the work
    // that expires the budget may depend on scheduling, but callers only
    // branch on expired(), which is a pure function of the charge total.
    std::uint64_t before = spent_.fetch_add(n, std::memory_order_relaxed);
    return before + n <= budget_;
  }

  bool expired() const {
    return budget_ != kUnbounded &&
           spent_.load(std::memory_order_relaxed) > budget_;
  }

  std::uint64_t step_budget() const { return budget_; }

  // OK while the token is live; kCancelled / kDeadlineExceeded afterwards.
  // Does not charge steps -- pair with Charge() in work loops.
  Status status() const;

  static constexpr std::uint64_t kUnbounded = ~std::uint64_t{0};

 private:
  std::uint64_t budget_ = kUnbounded;
  std::atomic<std::uint64_t> spent_{0};
  std::atomic<bool> cancelled_{false};
};

// Per-call evaluation context threaded through the what-if engine, advisor
// recommend loops and the TRAP agent's perturbation search -- the single
// carrier for cancellation and observability. Evaluation runs serially on
// the calling thread, so the context carries no pool. Copyable; the
// default-constructed context is unbounded, fault-transparent and records
// no trace.
struct EvalContext {
  // Not owned; nullptr means unbounded and non-cancellable.
  CancelToken* cancel = nullptr;

  // Optional observability sink (see obs/obs.h). Not owned; nullptr
  // disables tracing. Metrics always flow to the global MetricRegistry.
  ::trap::obs::ObsSink* obs = nullptr;

  // Id of the enclosing trace span; obs::TraceSpan nests new spans under
  // it. 0 = root.
  std::uint64_t span = 0;

  // Mixed into fault-draw keys so that retry attempts of the same logical
  // operation redraw their probabilistic faults (see common/fault.h).
  std::uint64_t fault_salt = 0;

  // Immutable catalog snapshot (schema + stats overlay + epoch) this
  // evaluation reads from; see catalog/snapshot.h. Not owned; nullptr means
  // the base epoch (the engine's constructor-time schema, unshifted). The
  // snapshot must stay alive for the duration of the call -- long-running
  // hosts pin it via SnapshotManager::Current(). Forward-declared only:
  // common sits below catalog in the layering DAG, and this field is a
  // pure carrier the common layer never dereferences.
  const ::trap::catalog::Snapshot* snapshot = nullptr;

  // Charges one step and reports why evaluation must stop, if it must.
  Status CheckContinue(std::uint64_t steps = 1) const;

  // Re-keys the context for retry attempt `attempt` of an operation.
  EvalContext WithAttempt(std::uint64_t attempt) const {
    EvalContext out = *this;
    out.fault_salt = fault_salt * 0x9e3779b97f4a7c15ull + attempt + 1;
    return out;
  }
};

}  // namespace trap::common

#endif  // TRAP_COMMON_DEADLINE_H_
