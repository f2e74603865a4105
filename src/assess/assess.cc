#include "assess/assess.h"

#include <memory>

#include "advisor/registry.h"
#include "common/stats.h"

namespace trap::assess {

namespace tc = ::trap::trap;

double ClampedIudr(double u, double u_prime) {
  return common::Clamp(advisor::RobustnessEvaluator::Iudr(u, u_prime),
                       kMinIudr, kMaxIudr);
}

int AssessmentRecord::eligible() const {
  return static_cast<int>(workloads.size()) - filtered();
}

int AssessmentRecord::filtered() const {
  int n = 0;
  for (const AssessedWorkload& w : workloads) n += w.filtered ? 1 : 0;
  return n;
}

std::optional<double> AssessmentRecord::mean_iudr() const {
  double sum = 0.0;
  int n = 0;
  for (const AssessedWorkload& w : workloads) {
    if (w.filtered) continue;
    sum += w.iudr;
    ++n;
  }
  if (n == 0) return std::nullopt;
  return sum / n;
}

common::StatusOr<bool> IsNonSargable(
    const Substrate& substrate, const workload::Workload& w,
    const advisor::TuningConstraint& constraint, double theta) {
  const advisor::RobustnessEvaluator evaluator(substrate.optimizer,
                                               substrate.truth);
  for (const char* reference : {"Extend", "AutoAdmin"}) {
    TRAP_ASSIGN_OR_RETURN(std::unique_ptr<advisor::IndexAdvisor> ref,
                          advisor::MakeAdvisor(reference, substrate.optimizer));
    TRAP_ASSIGN_OR_RETURN(
        double u, evaluator.TryIndexUtility(*ref, nullptr, w, constraint, {}));
    if (u >= theta) return false;
  }
  return true;
}

common::StatusOr<AssessmentRecord> Assess(const Substrate& substrate,
                                          const AssessmentSpec& spec) {
  if (spec.victim == nullptr) {
    return common::Status::InvalidArgument("Assess: no victim advisor");
  }
  const advisor::RobustnessEvaluator evaluator(substrate.optimizer,
                                               substrate.truth);
  tc::AdversarialWorkloadGenerator generator(substrate.vocab, spec.generator);
  generator.Fit(spec.victim, spec.baseline, &substrate.optimizer,
                &substrate.utility, substrate.pool, substrate.training,
                spec.constraint);
  AssessmentRecord record;
  auto utility = [&](const workload::Workload& w) {
    return evaluator.TryIndexUtility(*spec.victim, spec.baseline, w,
                                     spec.constraint, {}, {},
                                     &record.failures);
  };
  const int attempts = spec.generator.method == tc::GenerationMethod::kRandom
                           ? spec.generator.random_attempts
                           : 1;
  for (size_t t = 0; t < spec.tests.size(); ++t) {
    const workload::Workload& w = spec.tests[t];
    TRAP_ASSIGN_OR_RETURN(double u, utility(w));
    if (u <= spec.theta) continue;  // Definition 3.3 requires u(W) > theta
    for (int attempt = 0; attempt < attempts; ++attempt) {
      AssessedWorkload entry;
      entry.test = static_cast<int>(t);
      entry.u = u;
      TRAP_ASSIGN_OR_RETURN(entry.perturbed, generator.TryGenerate(w));
      TRAP_ASSIGN_OR_RETURN(entry.filtered,
                            IsNonSargable(substrate, entry.perturbed,
                                          spec.constraint, spec.theta));
      if (!entry.filtered) {
        TRAP_ASSIGN_OR_RETURN(entry.u_prime, utility(entry.perturbed));
        entry.iudr = ClampedIudr(u, entry.u_prime);
      }
      record.workloads.push_back(std::move(entry));
    }
  }
  return record;
}

}  // namespace trap::assess
