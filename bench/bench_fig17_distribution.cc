// Fig. 17: are TRAP's effective perturbations out-of-distribution?
// (a) t-SNE of the encoder representations of original vs. perturbed
//     queries (summary statistics of the embedding);
// (b) fraction of perturbed queries flagged as outliers by three anomaly
//     detectors, split by effective (IUDR > 0) vs. ineffective.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>

#include "analysis/outliers.h"
#include "analysis/tsne.h"
#include "common/string_util.h"
#include "advisor/registry.h"
#include "harness.h"

namespace tc = ::trap::trap;
using namespace trap;

int main() {
  bench::BenchEnv env(catalog::MakeTpcH(0.15), 0xf17);
  std::unique_ptr<advisor::IndexAdvisor> extend =
      *advisor::MakeAdvisor("Extend", env.optimizer);
  advisor::TuningConstraint constraint = env.StorageConstraint();

  tc::GeneratorConfig config = bench::BenchGeneratorConfig(
      tc::GenerationMethod::kTrap, tc::PerturbationConstraint::kSharedTable, 5,
      0xf17);
  tc::AdversarialWorkloadGenerator generator(env.vocab, config);
  generator.Fit(extend.get(), nullptr, &env.optimizer, &env.utility, env.pool,
                env.training, constraint);
  tc::TrapAgent* agent = generator.agent();

  // Encode originals and perturbations; record per-query effectiveness from
  // the owning workload's IUDR.
  std::vector<std::vector<double>> originals, perturbed;
  std::vector<bool> effective;
  for (const workload::Workload& w : env.tests) {
    double u =
        *env.evaluator.TryIndexUtility(*extend, nullptr, w, constraint, {});
    if (u <= 0.1) continue;
    workload::Workload wp = *generator.TryGenerate(w);
    double u_prime =
        *env.evaluator.TryIndexUtility(*extend, nullptr, wp, constraint, {});
    bool eff = advisor::RobustnessEvaluator::Iudr(u, u_prime) > 0.0;
    for (int i = 0; i < w.size(); ++i) {
      originals.push_back(agent->EncodeQueryVector(
          sql::ToTokenIds(w.queries[static_cast<size_t>(i)].query, env.vocab)));
      perturbed.push_back(agent->EncodeQueryVector(
          sql::ToTokenIds(wp.queries[static_cast<size_t>(i)].query, env.vocab)));
      effective.push_back(eff);
    }
  }
  TRAP_CHECK(!originals.empty());

  // (a) t-SNE: embed the union and compare the two clouds.
  std::vector<std::vector<double>> all = originals;
  all.insert(all.end(), perturbed.begin(), perturbed.end());
  std::vector<std::pair<double, double>> embedding = analysis::TsneEmbed(all);
  size_t n = originals.size();
  double ox = 0, oy = 0, px = 0, py = 0;
  for (size_t i = 0; i < n; ++i) {
    ox += embedding[i].first;
    oy += embedding[i].second;
    px += embedding[n + i].first;
    py += embedding[n + i].second;
  }
  ox /= n; oy /= n; px /= n; py /= n;
  double spread = 0.0;
  for (size_t i = 0; i < 2 * n; ++i) {
    double dx = embedding[i].first - 0.5 * (ox + px);
    double dy = embedding[i].second - 0.5 * (oy + py);
    spread += std::sqrt(dx * dx + dy * dy);
  }
  spread /= static_cast<double>(2 * n);
  double centroid_gap = std::sqrt((ox - px) * (ox - px) + (oy - py) * (oy - py));

  bench::PrintHeader("Fig. 17(a) — t-SNE of original vs. perturbed queries");
  std::printf("queries embedded: %zu original + %zu perturbed\n", n, n);
  std::printf("centroid gap / cloud spread = %.3f / %.3f = %.3f\n",
              centroid_gap, spread, centroid_gap / spread);
  std::printf("(a ratio << 1 means the clouds are indistinguishable — the "
              "perturbed queries follow the original distribution)\n");

  // (b) outlier fractions among effective vs. ineffective perturbations.
  // An empty group has no fraction, so it prints n/a.
  auto percent = [](int flagged, int total) {
    return total > 0 ? common::StrFormat("%.1f%%", 100.0 * flagged / total)
                     : std::string("n/a");
  };
  const int eff_n = static_cast<int>(
      std::count(effective.begin(), effective.end(), true));
  const int ineff_n = static_cast<int>(n) - eff_n;
  bench::PrintHeader("Fig. 17(b) — outlier fraction of perturbed queries");
  std::printf("%-18s %12s %12s\n", "detector", "effective", "ineffective");
  std::printf("%-18s %12d %12d\n", "(queries)", eff_n, ineff_n);
  for (analysis::OutlierDetector d :
       {analysis::OutlierDetector::kIsolationForest,
        analysis::OutlierDetector::kLof, analysis::OutlierDetector::kOneClass}) {
    std::vector<bool> flags = analysis::DetectOutliers(d, all, 0.05);
    int eff_out = 0, ineff_out = 0;
    for (size_t i = 0; i < n; ++i) {
      if (flags[n + i]) ++(effective[i] ? eff_out : ineff_out);
    }
    std::printf("%-18s %12s %12s\n", analysis::OutlierDetectorName(d),
                percent(eff_out, eff_n).c_str(),
                percent(ineff_out, ineff_n).c_str());
  }
  std::printf("\nShape: the bulk of effective perturbations are \"normal\" "
              "(~97-99%% inliers in the paper) — TRAP's damage does not come "
              "from out-of-distribution queries.\n");
  return 0;
}
