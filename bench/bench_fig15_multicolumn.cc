// Fig. 15: IUDR vs. the usage of multi-column indexes. Heuristic advisors
// run with single-column-only candidates vs. with multi-column candidates;
// TRAP generates the adversarial workloads.

#include <cstdio>

#include "advisor/registry.h"
#include "harness.h"

namespace tc = ::trap::trap;
using namespace trap;

int main() {
  bench::BenchEnv env(catalog::MakeTpcH(0.15), 0xff1);
  advisor::TuningConstraint constraint = env.StorageConstraint();

  const char* specs[] = {"Extend", "AutoAdmin", "Drop", "DTA"};

  bench::PrintHeader("Fig. 15 — IUDR vs. multi-column index usage (TRAP workloads)");
  std::printf("%-12s %16s %16s\n", "advisor", "single-column",
              "w/ multi-column");
  for (const char* name : specs) {
    std::printf("%-12s", name);
    for (bool multi : {false, true}) {
      advisor::RegistryOptions options;
      options.heuristic.multi_column = multi;
      options.drop_single_column = false;  // the swept axis applies to Drop
      std::unique_ptr<advisor::IndexAdvisor> victim =
          *advisor::MakeAdvisor(name, env.optimizer, options);
      tc::GeneratorConfig config = bench::BenchGeneratorConfig(
          tc::GenerationMethod::kTrap,
          tc::PerturbationConstraint::kSharedTable, 5,
          0xff1 ^ std::hash<std::string>{}(name) ^ (multi ? 1 : 2));
      const assess::AssessmentRecord r = *assess::Assess(
          env.substrate(), {.victim = victim.get(),
                            .generator = config,
                            .constraint = constraint,
                            .theta = 0.1,
                            .tests = env.tests});
      bench::PrintCell(r.mean_iudr(), 16);
    }
    std::printf("\n");
  }
  std::printf("\nShape: advisors restricted to single-column candidates show "
              "a larger IUDR — multi-column (covering, multi-predicate) "
              "indexes absorb more of the perturbations.\n");
  return 0;
}
