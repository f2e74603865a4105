#ifndef TRAP_PERFBENCH_VICTIM_PROXY_H_
#define TRAP_PERFBENCH_VICTIM_PROXY_H_

#include <cstdint>
#include <string>

#include "advisor/advisor.h"
#include "trace.h"

namespace trap::perfbench {

// Forwarding IndexAdvisor that counts, and in a traced run times, every
// Recommend / TryRecommend made on the victim it wraps. It reports the
// inner advisor's name, so fault keys and failure records are unchanged,
// and adds no state of its own to the call: the assessment digest is the
// same with and without it (checked by selftest.py).
class VictimProxy final : public advisor::IndexAdvisor {
 public:
  VictimProxy(advisor::IndexAdvisor* inner, Tracer* tracer)
      : inner_(inner), tracer_(tracer) {}

  std::string name() const override { return inner_->name(); }

  engine::IndexConfig Recommend(
      const workload::Workload& w,
      const advisor::TuningConstraint& constraint) override {
    ScopedSpan span(tracer_, SpanName(), calls());
    Count();
    return inner_->Recommend(w, constraint);
  }

  common::StatusOr<engine::IndexConfig> TryRecommend(
      const workload::Workload& w, const advisor::TuningConstraint& constraint,
      const common::EvalContext& ctx) override {
    ScopedSpan span(tracer_, SpanName(), calls());
    Count();
    return inner_->TryRecommend(w, constraint, ctx);
  }

  // Calls made while the generator is being fitted go to the "fit" bucket;
  // all others (generation and scoring) to "assess".
  void set_in_fit(bool in_fit) { in_fit_ = in_fit; }

  int64_t calls_fit() const { return calls_fit_; }
  int64_t calls_assess() const { return calls_assess_; }

  static constexpr const char* kFitSpan = "advisor.victim_recommend.fit";
  static constexpr const char* kAssessSpan = "advisor.victim_recommend.assess";

 private:
  const char* SpanName() const { return in_fit_ ? kFitSpan : kAssessSpan; }
  uint64_t calls() const {
    return static_cast<uint64_t>(calls_fit_ + calls_assess_);
  }
  void Count() { ++(in_fit_ ? calls_fit_ : calls_assess_); }

  advisor::IndexAdvisor* inner_;
  Tracer* tracer_;
  bool in_fit_ = false;
  int64_t calls_fit_ = 0;
  int64_t calls_assess_ = 0;
};

}  // namespace trap::perfbench

#endif  // TRAP_PERFBENCH_VICTIM_PROXY_H_
