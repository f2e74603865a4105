// Fig. 13: IUDR vs. candidate pruning in the action space. SWIRL's invalid
// action masking and the DQN advisor's rule-based candidate pruning are
// each toggled off; TRAP generates the adversarial workloads.

#include <cstdio>

#include "advisor/registry.h"
#include "harness.h"

namespace tc = ::trap::trap;
using namespace trap;

int main() {
  bench::BenchEnv env(catalog::MakeTpcH(0.15), 0xfd1);
  advisor::TuningConstraint storage = env.StorageConstraint();
  advisor::TuningConstraint count = env.CountConstraint(4);

  struct Variant {
    std::string label;
    std::unique_ptr<advisor::LearningAdvisor> advisor;
    advisor::TuningConstraint constraint;
  };
  std::vector<Variant> variants;
  for (bool prune : {true, false}) {
    const char* pname = prune ? "w/ pruning" : "w/o pruning";
    advisor::RegistryOptions options;
    options.rl_episodes = 400;
    options.max_actions = 64;
    options.swirl.action_masking = prune;
    options.swirl.prune_candidates = prune;
    options.swirl.seed = 0xd1 ^ (prune ? 0 : 1);
    options.dqn.prune_candidates = prune;
    options.dqn.seed = 0xd2 ^ (prune ? 0 : 1);
    variants.push_back(Variant{
        std::string("SWIRL ") + pname,
        *advisor::MakeLearningAdvisor("SWIRL", env.optimizer, options),
        storage});
    variants.push_back(Variant{
        std::string("DQN ") + pname,
        *advisor::MakeLearningAdvisor("DQN", env.optimizer, options),
        count});
  }

  bench::PrintHeader("Fig. 13 — IUDR vs. candidate pruning (TRAP workloads)");
  std::printf("%-18s %16s %16s\n", "victim", "ColumnConsistent",
              "SharedTable");
  for (Variant& v : variants) {
    v.advisor->Train(env.training, v.constraint);
    std::printf("%-18s", v.label.c_str());
    for (tc::PerturbationConstraint pc :
         {tc::PerturbationConstraint::kColumnConsistent,
          tc::PerturbationConstraint::kSharedTable}) {
      tc::GeneratorConfig config = bench::BenchGeneratorConfig(
          tc::GenerationMethod::kTrap, pc, 5,
          0xfd1 ^ std::hash<std::string>{}(v.label) ^
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
  std::printf("\nShape: without pruning/masking the action space fills with "
              "irrelevant candidates and both advisors become easier to "
              "degrade.\n");
  return 0;
}
