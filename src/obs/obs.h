#ifndef TRAP_OBS_OBS_H_
#define TRAP_OBS_OBS_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "common/deadline.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace trap::obs {

// The observability half of common::EvalContext: an optional trace sink.
// Metrics always flow into MetricRegistry::Global(); tracing is opt-in per
// evaluation by pointing `ctx.obs` at a sink (benches, trap_trace, tests).
struct ObsSink {
  TraceSink* trace = nullptr;  // not owned; nullptr disables tracing
};

// RAII scoped span. Opens a child of ctx's current span when ctx carries a
// trace sink, and exposes a derived context (`ctx()`) whose `span` is this
// span's id -- pass that to callees so their spans nest under this one.
// With no sink attached the span is free: no allocation, no locking.
class TraceSpan {
 public:
  TraceSpan(const common::EvalContext& ctx, std::string_view name,
            uint64_t key)
      : ctx_(ctx) {
    if (ctx.obs != nullptr && ctx.obs->trace != nullptr) {
      sink_ = ctx.obs->trace;
      id_ = sink_->OpenSpan(name, key, ctx.span);
      ctx_.span = id_;
    }
  }
  ~TraceSpan() {
    if (sink_ != nullptr) sink_->CloseSpan(id_);
  }
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  const common::EvalContext& ctx() const { return ctx_; }
  void AddArg(std::string_view name, int64_t value) {
    if (sink_ != nullptr) sink_->AddArg(id_, name, value);
  }

 private:
  common::EvalContext ctx_;
  TraceSink* sink_ = nullptr;
  uint64_t id_ = 0;
};

// Counts a fault-site fire under `trap.fault.<site name>`. Site names
// already use dotted lower-case segments (see common::FaultSiteName), so
// they embed directly into the metric name. Draws key on the logical work
// item, so every fire count is deterministic.
inline void CountFaultFire(std::string_view site_name) {
  MetricRegistry::Global()
      .counter("trap.fault." + std::string(site_name))
      ->Add();
}

// The per-advisor counter bundle cached by advisor implementations;
// `label` is the advisor's display name (canonicalized via MetricSegment).
struct AdvisorCounters {
  Counter* recommends = nullptr;    // TryRecommend entries
  Counter* rounds = nullptr;        // greedy / search loop iterations
  Counter* whatif_items = nullptr;  // what-if items submitted by the search
  static AdvisorCounters For(std::string_view label) {
    const std::string prefix = "trap.advisor." + MetricSegment(label);
    MetricRegistry& registry = MetricRegistry::Global();
    AdvisorCounters c;
    c.recommends = registry.counter(prefix + ".recommends");
    c.rounds = registry.counter(prefix + ".rounds");
    c.whatif_items = registry.counter(prefix + ".whatif_items");
    return c;
  }
};

}  // namespace trap::obs

#endif  // TRAP_OBS_OBS_H_
