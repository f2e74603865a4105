// Fig. 10: scalability over large, complex real-world-sized schemas
// (809 - 1265 columns). The Constraint-Aware Reference Tree masks the
// vocabulary down to the legitimate tokens per step, so generation stays
// tractable as the schema (and hence the global vocabulary) grows.

#include <chrono>
#include <cstdio>
#include <optional>

#include "advisor/registry.h"
#include "common/string_util.h"
#include "harness.h"

namespace tc = ::trap::trap;
using namespace trap;

int main(int argc, char** argv) {
  bench::BenchOptions opt = bench::ParseBenchOptions(&argc, argv);
  bench::PrintHeader("Fig. 10 — scalability on large schemas (vs. Extend)");
  bench::BenchReport report("fig10_scalability");
  std::printf("%-10s %8s %10s %10s %10s %14s\n", "columns", "vocab",
              "Random", "Seq2Seq", "TRAP", "gen time(s)");
  for (int columns : {809, 1024, 1265}) {
    bench::BenchEnv env(catalog::MakeLargeSynthetic(columns, 0xa10), 0xfa0,
                        /*pool_size=*/40, /*num_training=*/6,
                        /*num_tests=*/4, /*workload_size=*/4);
    std::unique_ptr<advisor::IndexAdvisor> extend =
        *advisor::MakeAdvisor("Extend", env.optimizer);
    advisor::TuningConstraint constraint = env.StorageConstraint();
    std::printf("%-10d %8d", columns, env.vocab.size());
    double gen_seconds = 0.0;
    for (tc::GenerationMethod m :
         {tc::GenerationMethod::kRandom, tc::GenerationMethod::kSeq2Seq,
          tc::GenerationMethod::kTrap}) {
      tc::GeneratorConfig config = bench::BenchGeneratorConfig(
          m, tc::PerturbationConstraint::kSharedTable, 5,
          0xfa0 ^ static_cast<uint64_t>(m) ^ static_cast<uint64_t>(columns));
      config.rl.epochs = 6;
      config.pretrain.num_pairs = 80;
      auto start = std::chrono::steady_clock::now();
      const assess::AssessmentRecord r = *assess::Assess(
          env.substrate(), {.victim = extend.get(),
                            .generator = config,
                            .constraint = constraint,
                            .theta = 0.05,
                            .tests = env.tests});
      double sec = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - start)
                       .count();
      if (m == tc::GenerationMethod::kTrap) gen_seconds = sec;
      report.RecordPhase(
          common::StrFormat("assess/%d_columns/method_%d", columns,
                            static_cast<int>(m)),
          sec);
      const std::optional<double> mean = r.mean_iudr();
      if (mean.has_value()) {
        report.RecordMetric(
            common::StrFormat("iudr/%d_columns/method_%d", columns,
                              static_cast<int>(m)),
            *mean);
      }
      bench::PrintCell(mean, 10);
    }
    std::printf(" %14.1f\n", gen_seconds);
  }
  bench::RecordWhatIfThroughput(&report, opt);
  report.Write();
  std::printf("\nTRAP keeps finding loopholes as the column count grows; the "
              "tree masking keeps the per-step candidate set small even "
              "though the global vocabulary scales with the schema.\n");
  return 0;
}
