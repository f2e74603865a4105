#ifndef TRAP_ASSESS_ASSESS_H_
#define TRAP_ASSESS_ASSESS_H_

#include <optional>
#include <vector>

#include "advisor/evaluation.h"
#include "trap/perturber.h"

namespace trap::assess {

// Per-workload IUDR values are clamped into [kMinIudr, kMaxIudr]: IUDR =
// 1 - u'/u explodes when u is small, and one ratio blow-up would otherwise
// dominate a miniature-sample mean.
inline constexpr double kMinIudr = -1.0;
inline constexpr double kMaxIudr = 2.0;

// Iudr(u, u') clamped into [kMinIudr, kMaxIudr].
double ClampedIudr(double u, double u_prime);

// The engine state an assessment reads and never owns: the vocabulary the
// generator decodes over, the what-if optimizer the advisors cost with, the
// true-cost oracle utilities are measured with, the learned utility model
// that rewards the generator, the pretraining pool and the RL training
// workloads. Passed in, so separate assessments can run on separate state.
struct Substrate {
  const sql::Vocabulary& vocab;
  const engine::WhatIfOptimizer& optimizer;
  const engine::TrueCostModel& truth;
  const gbdt::LearnedUtilityModel& utility;
  const std::vector<sql::Query>& pool;
  const std::vector<workload::Workload>& training;
};

// One (victim, generator) pair assessed over `tests` (Definition 3.3).
struct AssessmentSpec {
  advisor::IndexAdvisor* victim = nullptr;
  advisor::IndexAdvisor* baseline = nullptr;  // nullptr: no-index baseline
  ::trap::trap::GeneratorConfig generator;
  advisor::TuningConstraint constraint;
  double theta = 0.1;  // a test enters only when u(W) > theta
  std::vector<workload::Workload> tests;
};

// One perturbed workload W' of an eligible test W.
struct AssessedWorkload {
  int test = 0;       // index into AssessmentSpec::tests
  double u = 0.0;     // u(W), > theta
  workload::Workload perturbed;
  bool filtered = false;  // non-sargable W': out of the assessment region
  double u_prime = 0.0;   // u(W'); 0 when filtered
  double iudr = 0.0;      // ClampedIudr(u, u'); 0 when filtered
};

struct AssessmentRecord {
  std::vector<AssessedWorkload> workloads;  // in test order
  // Advisor failures the evaluation survived (injected fault, deadline,
  // degradation to the no-index fallback), in the order they happened.
  std::vector<advisor::FailureRecord> failures;

  int eligible() const;  // unfiltered workloads: the ones the mean covers
  int filtered() const;
  // Mean IUDR over the unfiltered workloads; nullopt when there are none,
  // which is no data, not zero degradation.
  std::optional<double> mean_iudr() const;
};

// Runs the assessment protocol:
//   1. Fits a generator configured by spec.generator against the victim.
//   2. Measures u(W) per test and skips the test unless u(W) > theta.
//   3. Generates random_attempts W' per test for kRandom (its 5x budget),
//      one for the trained methods.
//   4. Marks W' filtered when IsNonSargable; otherwise measures u(W') and
//      the clamped IUDR.
// A utility or generation error is returned as the Status; it never
// scores as zero.
common::StatusOr<AssessmentRecord> Assess(const Substrate& substrate,
                                          const AssessmentSpec& spec);

// True when neither reference advisor (Extend, then AutoAdmin) reaches
// `theta` utility on `w`: no index serves the workload, so it falls outside
// the assessment region (Section V-A). The references run one after the
// other, and AutoAdmin only when Extend stays below theta.
common::StatusOr<bool> IsNonSargable(
    const Substrate& substrate, const workload::Workload& w,
    const advisor::TuningConstraint& constraint, double theta);

}  // namespace trap::assess

#endif  // TRAP_ASSESS_ASSESS_H_
