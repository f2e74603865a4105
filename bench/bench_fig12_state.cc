// Fig. 12: IUDR vs. the adopted state representation. Three RL backbones
// (SWIRL's policy gradient and the two DQN advisors) are each run with the
// fine-grained state (plan operators + costs + relevance) and the
// coarse-grained state (column occurrence counts only); TRAP generates the
// adversarial workloads.

#include <cstdio>

#include "advisor/registry.h"
#include "harness.h"

namespace tc = ::trap::trap;
using namespace trap;

int main() {
  bench::BenchEnv env(catalog::MakeTpcH(0.15), 0xfc1);
  advisor::TuningConstraint storage = env.StorageConstraint();
  advisor::TuningConstraint count = env.CountConstraint(4);

  struct Variant {
    std::string label;
    std::unique_ptr<advisor::LearningAdvisor> advisor;
    advisor::TuningConstraint constraint;
  };
  std::vector<Variant> variants;
  for (advisor::StateGranularity g :
       {advisor::StateGranularity::kFine, advisor::StateGranularity::kCoarse}) {
    const char* gname =
        g == advisor::StateGranularity::kFine ? "fine" : "coarse";
    advisor::RegistryOptions options;
    options.rl_episodes = 400;
    options.max_actions = 64;
    options.swirl.state = g;
    options.swirl.seed = 0xc1 ^ static_cast<uint64_t>(g);
    options.drlindex.state = g;
    options.drlindex.seed = 0xc2 ^ static_cast<uint64_t>(g);
    options.dqn.state = g;
    options.dqn.seed = 0xc3 ^ static_cast<uint64_t>(g);
    variants.push_back(Variant{
        std::string("SWIRL/") + gname,
        *advisor::MakeLearningAdvisor("SWIRL", env.optimizer, options),
        storage});
    variants.push_back(Variant{
        std::string("DRLindex/") + gname,
        *advisor::MakeLearningAdvisor("DRLindex", env.optimizer, options),
        count});
    variants.push_back(Variant{
        std::string("DQN/") + gname,
        *advisor::MakeLearningAdvisor("DQN", env.optimizer, options),
        count});
  }

  bench::PrintHeader("Fig. 12 — IUDR vs. state representation (TRAP workloads)");
  std::printf("%-18s %16s %16s\n", "backbone/state", "ColumnConsistent",
              "SharedTable");
  for (Variant& v : variants) {
    v.advisor->Train(env.training, v.constraint);
    std::printf("%-18s", v.label.c_str());
    for (tc::PerturbationConstraint pc :
         {tc::PerturbationConstraint::kColumnConsistent,
          tc::PerturbationConstraint::kSharedTable}) {
      tc::GeneratorConfig config = bench::BenchGeneratorConfig(
          tc::GenerationMethod::kTrap, pc, 5,
          0xfc1 ^ std::hash<std::string>{}(v.label) ^
              (static_cast<uint64_t>(pc) << 8));
      const assess::AssessmentRecord r = *assess::Assess(
          env.substrate(), {.victim = v.advisor.get(),
                            .generator = config,
                            .constraint = v.constraint,
                            .theta = 0.05,
                            .tests = env.tests});
      bench::PrintCell(r.mean_iudr(), 16);
    }
    std::printf("\n");
  }
  std::printf("\nShape: the coarse-grained state is more vulnerable — it "
              "cannot see the operator/cost changes a perturbation causes.\n");
  return 0;
}
