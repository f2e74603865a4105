// Fig. 14: IUDR vs. consideration of index interaction. Each heuristic
// advisor is run in two modes: candidate benefits re-evaluated under the
// currently selected configuration (w/ interaction) vs. computed once with
// each index built alone (w/o interaction). TRAP generates the workloads.

#include <cstdio>

#include "advisor/registry.h"
#include "harness.h"

namespace tc = ::trap::trap;
using namespace trap;

int main() {
  bench::BenchEnv env(catalog::MakeTpcH(0.15), 0xfe1);
  advisor::TuningConstraint constraint = env.StorageConstraint();

  const char* specs[] = {"Extend", "AutoAdmin", "Relaxation", "DTA"};

  bench::PrintHeader("Fig. 14 — IUDR vs. index interaction (TRAP workloads)");
  std::printf("%-12s %18s %18s\n", "advisor", "w/ interaction",
              "w/o interaction");
  for (const char* name : specs) {
    std::printf("%-12s", name);
    for (bool interaction : {true, false}) {
      advisor::RegistryOptions options;
      options.heuristic.consider_interaction = interaction;
      std::unique_ptr<advisor::IndexAdvisor> victim =
          *advisor::MakeAdvisor(name, env.optimizer, options);
      tc::GeneratorConfig config = bench::BenchGeneratorConfig(
          tc::GenerationMethod::kTrap,
          tc::PerturbationConstraint::kColumnConsistent, 5,
          0xfe1 ^ std::hash<std::string>{}(name) ^ (interaction ? 1 : 2));
      const assess::AssessmentRecord r = *assess::Assess(
          env.substrate(), {.victim = victim.get(),
                            .generator = config,
                            .constraint = constraint,
                            .theta = 0.1,
                            .tests = env.tests});
      bench::PrintCell(r.mean_iudr(), 18);
    }
    std::printf("\n");
  }
  std::printf("\nShape: ignoring index interaction (benefits computed per "
              "index in isolation) makes every heuristic less robust.\n");
  return 0;
}
