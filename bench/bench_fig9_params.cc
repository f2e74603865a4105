// Fig. 9: impact of the assessment hyper-parameters on IUDR —
// (a) the initial utility threshold theta, (b) the edit-distance budget
// epsilon, (c) the workload size |W|. Shared Table perturbation against
// Extend on TPC-H throughout, comparing Random and TRAP.

#include <cstdio>

#include "advisor/registry.h"
#include "harness.h"

namespace tc = ::trap::trap;
using namespace trap;

int main() {
  bench::BenchEnv env(catalog::MakeTpcH(0.15), 0xf91);
  std::unique_ptr<advisor::IndexAdvisor> extend =
      *advisor::MakeAdvisor("Extend", env.optimizer);
  advisor::TuningConstraint constraint = env.StorageConstraint();

  bench::PrintHeader("Fig. 9(a) — IUDR vs. initial utility threshold theta");
  std::printf("%-8s %10s %10s\n", "theta", "Random", "TRAP");
  for (double theta : {0.0, 0.1, 0.2, 0.3, 0.4, 0.5}) {
    std::printf("%-8.1f", theta);
    for (tc::GenerationMethod m :
         {tc::GenerationMethod::kRandom, tc::GenerationMethod::kTrap}) {
      tc::GeneratorConfig config = bench::BenchGeneratorConfig(
          m, tc::PerturbationConstraint::kSharedTable, 5,
          0xf91 ^ static_cast<uint64_t>(m));
      const assess::AssessmentRecord r = *assess::Assess(
          env.substrate(), {.victim = extend.get(),
                            .generator = config,
                            .constraint = constraint,
                            .theta = theta,
                            .tests = env.tests});
      bench::PrintCell(r.mean_iudr(), 10);
    }
    std::printf("\n");
  }

  bench::PrintHeader("Fig. 9(b) — IUDR vs. edit-distance budget epsilon");
  std::printf("%-8s %10s %10s\n", "epsilon", "Random", "TRAP");
  for (int epsilon : {1, 3, 5, 7, 9}) {
    std::printf("%-8d", epsilon);
    for (tc::GenerationMethod m :
         {tc::GenerationMethod::kRandom, tc::GenerationMethod::kTrap}) {
      tc::GeneratorConfig config = bench::BenchGeneratorConfig(
          m, tc::PerturbationConstraint::kSharedTable, epsilon,
          0xf92 ^ static_cast<uint64_t>(m) ^ (static_cast<uint64_t>(epsilon) << 4));
      const assess::AssessmentRecord r = *assess::Assess(
          env.substrate(), {.victim = extend.get(),
                            .generator = config,
                            .constraint = constraint,
                            .theta = 0.1,
                            .tests = env.tests});
      bench::PrintCell(r.mean_iudr(), 10);
    }
    std::printf("\n");
  }

  bench::PrintHeader("Fig. 9(c) — IUDR vs. workload size |W|");
  std::printf("%-8s %10s %10s\n", "|W|", "Random", "TRAP");
  common::Rng rng(0xf93);
  for (int size : {1, 5, 15, 30, 50}) {
    // Fixed-size test workloads sampled from the same pool.
    std::vector<workload::Workload> tests;
    for (int i = 0; i < 5; ++i) {
      tests.push_back(workload::SampleWorkload(env.pool, size, rng));
    }
    std::printf("%-8d", size);
    for (tc::GenerationMethod m :
         {tc::GenerationMethod::kRandom, tc::GenerationMethod::kTrap}) {
      tc::GeneratorConfig config = bench::BenchGeneratorConfig(
          m, tc::PerturbationConstraint::kSharedTable, 5,
          0xf93 ^ static_cast<uint64_t>(m) ^ (static_cast<uint64_t>(size) << 4));
      config.rl.epochs = 6;  // larger workloads cost more per epoch
      const assess::AssessmentRecord r = *assess::Assess(
          env.substrate(), {.victim = extend.get(),
                            .generator = config,
                            .constraint = constraint,
                            .theta = 0.1,
                            .tests = tests});
      bench::PrintCell(r.mean_iudr(), 10);
    }
    std::printf("\n");
  }
  std::printf("\nShapes: IUDR grows with theta (well-performing advisors have "
              "more to lose) and with epsilon (larger perturbations), and "
              "TRAP sustains its advantage across workload sizes.\n");
  return 0;
}
