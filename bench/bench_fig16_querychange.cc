// Fig. 16: effect of the six query-change types (Section VI-C).
// (a) causal scores of each change type against IUDR, under three causal
//     models; (b) the distribution of change types among non-sargable
//     perturbed workloads.

#include <cstdio>

#include "analysis/causal.h"
#include "analysis/query_change.h"
#include "advisor/registry.h"
#include "harness.h"

namespace tc = ::trap::trap;
using namespace trap;

int main() {
  bench::BenchEnv env(catalog::MakeTpcH(0.15), 0xf16);
  std::unique_ptr<advisor::IndexAdvisor> extend =
      *advisor::MakeAdvisor("Extend", env.optimizer);
  advisor::TuningConstraint constraint = env.StorageConstraint();
  engine::CostModel model(env.schema);
  common::Rng rng(0x16f);

  // Collect (change occurrence, IUDR) pairs from random Shared-Table
  // perturbations of eligible workloads; track non-sargable ones separately.
  std::vector<std::vector<double>> x(analysis::kNumQueryChangeTypes);
  std::vector<double> y;
  std::vector<int> nonsarg_counts(analysis::kNumQueryChangeTypes, 0);
  int nonsarg_total = 0;

  for (const workload::Workload& w : env.tests) {
    const double u =
        *env.evaluator.TryIndexUtility(*extend, nullptr, w, constraint, {});
    if (u <= 0.1) continue;
    for (int attempt = 0; attempt < 60; ++attempt) {
      workload::Workload perturbed;
      std::array<bool, analysis::kNumQueryChangeTypes> flags{};
      for (const workload::WorkloadQuery& wq : w.queries) {
        tc::ReferenceTree tree(wq.query, env.vocab,
                               tc::PerturbationConstraint::kSharedTable, 5);
        while (!tree.Done()) tree.Advance(rng.Choice(tree.LegalTokens()));
        sql::Query pq = tree.Materialize();
        auto qflags = analysis::ClassifyQueryChanges(wq.query, pq, model);
        for (int t = 0; t < analysis::kNumQueryChangeTypes; ++t) {
          flags[static_cast<size_t>(t)] =
              flags[static_cast<size_t>(t)] || qflags[static_cast<size_t>(t)];
        }
        perturbed.queries.push_back(workload::WorkloadQuery{pq, wq.weight});
      }
      if (*assess::IsNonSargable(env.substrate(), perturbed, constraint, 0.1)) {
        ++nonsarg_total;
        for (int t = 0; t < analysis::kNumQueryChangeTypes; ++t) {
          if (flags[static_cast<size_t>(t)]) ++nonsarg_counts[static_cast<size_t>(t)];
        }
        continue;
      }
      const double u_prime = *env.evaluator.TryIndexUtility(
          *extend, nullptr, perturbed, constraint, {});
      y.push_back(assess::ClampedIudr(u, u_prime));
      for (int t = 0; t < analysis::kNumQueryChangeTypes; ++t) {
        x[static_cast<size_t>(t)].push_back(
            flags[static_cast<size_t>(t)] ? 1.0 : 0.0);
      }
    }
  }

  bench::PrintHeader("Fig. 16(a) — causation scores: change type -> IUDR");
  std::printf("%-20s %12s %12s %12s\n", "change type", "Regression", "ANM",
              "CDS");
  for (int t = 0; t < analysis::kNumQueryChangeTypes; ++t) {
    std::printf("%-20s",
                analysis::QueryChangeName(
                    static_cast<analysis::QueryChangeType>(t)));
    for (analysis::CausalModel m :
         {analysis::CausalModel::kRegression, analysis::CausalModel::kAnm,
          analysis::CausalModel::kCds}) {
      std::printf(" %12.4f",
                  analysis::CausationScore(m, x[static_cast<size_t>(t)], y));
    }
    std::printf("\n");
  }
  std::printf("(samples: %zu sargable perturbations)\n", y.size());

  bench::PrintHeader("Fig. 16(b) — change types among non-sargable workloads");
  std::printf("%-20s %10s\n", "change type", "share");
  for (int t = 0; t < analysis::kNumQueryChangeTypes; ++t) {
    double share = nonsarg_total > 0
                       ? static_cast<double>(nonsarg_counts[static_cast<size_t>(t)]) /
                             nonsarg_total
                       : 0.0;
    std::printf("%-20s %9.1f%%\n",
                analysis::QueryChangeName(
                    static_cast<analysis::QueryChangeType>(t)),
                100.0 * share);
  }
  std::printf("(non-sargable workloads: %d)\n", nonsarg_total);
  std::printf("\nShapes: the causal models agree the change types push IUDR "
              "up, and OR-conjunction / result-set blow-ups dominate the "
              "non-sargable population.\n");
  return 0;
}
