// Fig. 11: relation between IUDR and the storage budget. Shared Table
// perturbation against Extend on TPC-H; the budget sweeps from scarce to
// abundant (fractions of the data size).

#include <cstdio>

#include "advisor/registry.h"
#include "harness.h"

namespace tc = ::trap::trap;
using namespace trap;

int main() {
  bench::BenchEnv env(catalog::MakeTpcH(0.15), 0xfb1);
  std::unique_ptr<advisor::IndexAdvisor> extend =
      *advisor::MakeAdvisor("Extend", env.optimizer);

  bench::PrintHeader("Fig. 11 — IUDR vs. storage budget (vs. Extend, TPC-H)");
  std::printf("%-12s %10s %10s %12s\n", "budget", "Random", "TRAP",
              "mean u(W)");
  for (double fraction : {0.1, 0.25, 0.5, 0.75}) {
    advisor::TuningConstraint constraint = env.StorageConstraint(fraction);
    // Mean utility across eligible tests (context for the sweep).
    double mean_u = 0.0;
    int n = 0;
    for (const workload::Workload& w : env.tests) {
      double u = env.evaluator
                     .TryIndexUtility(*extend, nullptr, w, constraint, {})
                     .value_or(0.0);
      if (u > 0.1) {
        mean_u += u;
        ++n;
      }
    }
    std::printf("%9.0f%%  ", fraction * 100.0);
    for (tc::GenerationMethod m :
         {tc::GenerationMethod::kRandom, tc::GenerationMethod::kTrap}) {
      tc::GeneratorConfig config = bench::BenchGeneratorConfig(
          m, tc::PerturbationConstraint::kSharedTable, 5,
          0xfb1 ^ static_cast<uint64_t>(m) ^
              static_cast<uint64_t>(fraction * 100));
      bench::AssessmentResult r = bench::AssessRobustness(
          env, extend.get(), nullptr, config, constraint, 0.1);
      std::printf(" %10.4f", r.mean_iudr);
    }
    std::printf(" %12.4f\n", n > 0 ? mean_u / n : 0.0);
  }
  std::printf("\nShape: utility stabilizes once the budget is ample, and "
              "TRAP's IUDR stays comparable even at large budgets — more "
              "storage does not prevent the selection of sub-optimal "
              "indexes.\n");
  return 0;
}
