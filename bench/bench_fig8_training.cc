// Fig. 8: ablation on the training paradigm.
//   (a) w/o Cost Model — RL rewards from raw what-if estimates instead of
//       the learned index utility model;
//   (b) w/o Pretrain — RL from scratch; compared by the reward trace and the
//       epochs needed to reach a target IUDR level.

#include <cstdio>
#include <optional>

#include "advisor/registry.h"
#include "harness.h"

namespace tc = ::trap::trap;
using namespace trap;

int main() {
  bench::BenchEnv env(catalog::MakeTpcH(0.15), 0xf81);
  std::unique_ptr<advisor::IndexAdvisor> extend =
      *advisor::MakeAdvisor("Extend", env.optimizer);
  advisor::TuningConstraint constraint = env.StorageConstraint();

  bench::PrintHeader("Fig. 8(a) — measured IUDR with/without the learned cost model");
  std::printf("%-26s %10s\n", "reward source", "IUDR (3-seed mean)");
  for (bool learned : {true, false}) {
    // Averaged over the seeds whose assessment has data.
    double sum = 0.0;
    int n = 0;
    for (uint64_t seed : {0xf81ULL, 0xf83ULL, 0xf85ULL}) {
      tc::GeneratorConfig config = bench::BenchGeneratorConfig(
          tc::GenerationMethod::kTrap,
          tc::PerturbationConstraint::kSharedTable, 5,
          seed ^ (learned ? 1 : 2));
      config.rl.use_learned_utility = learned;
      const std::optional<double> mean =
          assess::Assess(env.substrate(), {.victim = extend.get(),
                                           .generator = config,
                                           .constraint = constraint,
                                           .tests = env.tests})
              ->mean_iudr();
      if (mean.has_value()) {
        sum += *mean;
        ++n;
      }
    }
    std::printf("%-26s",
                learned ? "learned utility" : "w/o cost model (what-if)");
    bench::PrintCell(n > 0 ? std::optional<double>(sum / n) : std::nullopt,
                     10);
    std::printf("\n");
  }

  bench::PrintHeader("Fig. 8(b) — training efficiency with/without pretraining");
  std::printf("%-16s  reward trace (mean estimated IUDR per epoch)\n", "variant");
  for (bool pretrain : {true, false}) {
    tc::GeneratorConfig config = bench::BenchGeneratorConfig(
        tc::GenerationMethod::kTrap, tc::PerturbationConstraint::kSharedTable,
        5, 0xf82);
    config.rl.epochs = 12;
    config.pretrain_enabled = pretrain;
    tc::AdversarialWorkloadGenerator generator(env.vocab, config);
    generator.Fit(extend.get(), nullptr, &env.optimizer, &env.utility,
                  env.pool, env.training, constraint);
    std::printf("%-16s ", pretrain ? "w/ pretrain" : "w/o pretrain");
    double target = 0.10;
    int reached = -1;
    // An epoch with no usable workload has no mean reward: "n/a".
    const std::vector<std::optional<double>>& trace =
        generator.rl_trace().mean_reward_per_epoch;
    for (size_t e = 0; e < trace.size(); ++e) {
      if (!trace[e].has_value()) {
        std::printf(" %6s", "n/a");
        continue;
      }
      std::printf(" %6.3f", *trace[e]);
      if (reached < 0 && *trace[e] >= target) {
        reached = static_cast<int>(e) + 1;
      }
    }
    if (reached > 0) {
      std::printf("   [reached %.2f at epoch %d]", target, reached);
    } else {
      std::printf("   [did not reach %.2f]", target);
    }
    std::printf("\n");
  }
  std::printf("\nShapes to observe: the learned utility reward finds larger "
              "true IUDR than raw what-if estimates, and pretraining reaches "
              "a given reward level in fewer RL epochs.\n");
  return 0;
}
