// trap_drift: replays a deterministic workload-drift & data-shift scenario
// through an advisor and reports the per-episode regret series. The same
// options produce a bit-identical regret series and metric/trace digests
// for every TRAP_THREADS value; check.sh's drift_digest stage runs this
// binary under several thread counts and compares the digest lines, and
// diffs the --format=json report against tests/golden/drift_scenario.json.
//
//   trap_drift --schema tpch --advisor greedy --episodes 8 --seed 1
//   trap_drift --format=json --out drift.json   # machine-readable report
//   trap_drift --digest                         # digest lines only
//   trap_drift --golden tests/golden/drift_scenario.json
//   trap_drift --report drift                   # write BENCH_drift.json
//
// "greedy" is accepted as an alias for the Extend advisor (the greedy
// heuristic of the registry).

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "advisor/advisor.h"
#include "advisor/registry.h"
#include "bench/harness.h"
#include "common/string_util.h"
#include "drift/episode.h"
#include "drift/replay.h"
#include "drift/stats_perturber.h"
#include "engine/what_if.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "obs/trace.h"
#include "sql/vocabulary.h"
#include "testing/harness.h"
#include "tools/common/cli.h"
#include "workload/generator.h"

namespace {

struct DriftToolOptions {
  std::string schema = "tpch";
  std::string advisor = "greedy";
  int episodes = 8;
  uint64_t seed = 1;
  uint64_t step_budget = 0;       // per-episode re-advisement budget; 0 = off
  double stats_budget = 0.5;      // L1 budget for the StatsPerturber pass
  int pool_size = 12;             // generator pool behind the base workload
  int workload_size = 6;
};

struct ScenarioOutput {
  std::string advisor_name;  // resolved registry name
  trap::drift::ReplayResult replay;
  trap::drift::StatsPerturbation stats;
};

int Usage(std::FILE* out) {
  std::fprintf(
      out,
      "usage: trap_drift [options]\n"
      "  --schema NAME      tpch | tpcds | transaction (default tpch)\n"
      "  --advisor NAME     registry advisor, or 'greedy' = Extend\n"
      "  --episodes N       drift episodes to replay (default 8)\n"
      "  --seed S           scenario seed (default 1)\n"
      "  --step-budget N    per-episode re-advisement step budget (0 = off)\n"
      "  --format F         text | json (default text)\n"
      "  --out PATH         write the report to PATH instead of stdout\n"
      "  --golden PATH      compare the json report against PATH\n"
      "  --digest           print only the digest lines\n"
      "  --report NAME      write a BENCH_NAME.json run report\n");
  return out == stdout ? 0 : 2;
}

trap::common::StatusOr<ScenarioOutput> RunScenario(
    const DriftToolOptions& options, trap::obs::TraceSink* sink) {
  namespace drift = trap::drift;
  std::optional<trap::catalog::Schema> schema =
      trap::proptest::MakeSchemaByName(options.schema);
  if (!schema.has_value()) {
    return trap::common::Status::InvalidArgument("unknown schema: " +
                                                 options.schema);
  }
  ScenarioOutput output;
  output.advisor_name =
      options.advisor == "greedy" ? "Extend" : options.advisor;

  trap::obs::MetricRegistry::Global().Reset();
  sink->Reset();

  trap::sql::Vocabulary vocab(*schema, 8);
  trap::engine::WhatIfOptimizer optimizer(*schema);
  trap::workload::GeneratorOptions gopt;
  gopt.max_tables = 3;
  gopt.max_filters = 3;
  trap::workload::QueryGenerator gen(vocab, gopt, options.seed);
  std::vector<trap::sql::Query> pool = gen.GeneratePool(options.pool_size);
  trap::workload::Workload base;
  for (int i = 0;
       i < options.workload_size && i < static_cast<int>(pool.size()); ++i) {
    base.queries.push_back(
        trap::workload::WorkloadQuery{pool[static_cast<size_t>(i)], 1.0});
  }

  TRAP_ASSIGN_OR_RETURN(
      std::unique_ptr<trap::advisor::IndexAdvisor> adv,
      trap::advisor::MakeAdvisor(output.advisor_name, optimizer));
  trap::advisor::TuningConstraint constraint =
      trap::advisor::TuningConstraint::Storage(schema->DataSizeBytes() / 2);

  trap::obs::ObsSink obs_sink;
  obs_sink.trace = sink;
  trap::common::EvalContext ctx;
  ctx.obs = &obs_sink;

  // Initial deployment: one recommendation over the base workload under
  // base statistics. A failed initial recommendation degrades to the empty
  // configuration (the loop then measures pure re-advisement value).
  trap::engine::IndexConfig initial =
      adv->TryRecommend(base, constraint, ctx)
          .value_or(trap::engine::IndexConfig{});

  drift::EpisodeStream stream(vocab, base, drift::DriftSpec{}, options.seed);
  drift::ReplayOptions ropt;
  ropt.episodes = options.episodes;
  ropt.episode_step_budget = options.step_budget;
  drift::ReplayLoop loop(&optimizer, ropt);
  drift::ReadviseFn readvise =
      [&adv, &constraint](const trap::workload::Workload& w,
                          const trap::common::EvalContext& rctx) {
        return adv->TryRecommend(w, constraint, rctx);
      };
  TRAP_ASSIGN_OR_RETURN(output.replay,
                        loop.TryRun(stream, std::move(initial), readvise, ctx));

  // Adversarial data-shift pass: how hard can bounded statistics drift
  // regress the configuration the loop ended up deploying? (Runs over the
  // base workload: the perturber's schema view predates schema growth.)
  drift::StatsPerturberOptions popt;
  popt.l1_budget = options.stats_budget;
  drift::StatsPerturber perturber(*schema, popt);
  TRAP_ASSIGN_OR_RETURN(
      output.stats,
      perturber.TryPerturb(base, output.replay.final_config, ctx));
  return output;
}

std::string JsonReport(const DriftToolOptions& options,
                       const ScenarioOutput& output) {
  std::ostringstream out;
  out << "{\n";
  out << trap::common::StrFormat("  \"schema\": \"%s\",\n",
                                 options.schema.c_str());
  out << trap::common::StrFormat("  \"advisor\": \"%s\",\n",
                                 output.advisor_name.c_str());
  out << trap::common::StrFormat("  \"seed\": %llu,\n",
                                 static_cast<unsigned long long>(options.seed));
  out << "  \"episodes\": [\n";
  const std::vector<trap::drift::EpisodeResult>& eps = output.replay.episodes;
  for (size_t i = 0; i < eps.size(); ++i) {
    const trap::drift::EpisodeResult& er = eps[i];
    out << trap::common::StrFormat(
        "    {\"step\": %d, \"kind\": \"%s\", \"fingerprint\": \"0x%016llx\", "
        "\"stale_cost\": %.17g, \"fresh_cost\": %.17g, \"regret\": %.17g, "
        "\"adopted\": %s, \"degraded\": %s}%s\n",
        er.step, trap::drift::EpisodeKindName(er.kind),
        static_cast<unsigned long long>(er.episode_fp), er.stale_cost,
        er.fresh_cost, er.regret, er.adopted ? "true" : "false",
        er.degraded ? "true" : "false", i + 1 < eps.size() ? "," : "");
  }
  out << "  ],\n";
  out << trap::common::StrFormat("  \"total_regret\": %.17g,\n",
                                 output.replay.total_regret);
  out << trap::common::StrFormat(
      "  \"regret_digest\": \"0x%016llx\",\n",
      static_cast<unsigned long long>(output.replay.series_fp));
  out << trap::common::StrFormat(
      "  \"stats_perturbation\": {\"l1_budget\": %.17g, \"l1_spent\": %.17g, "
      "\"moves\": %d, \"base_cost\": %.17g, \"shifted_cost\": %.17g}\n",
      options.stats_budget, output.stats.l1_spent, output.stats.moves,
      output.stats.base_cost, output.stats.shifted_cost);
  out << "}\n";
  return out.str();
}

std::string TextReport(const ScenarioOutput& output) {
  std::ostringstream out;
  for (const trap::drift::EpisodeResult& er : output.replay.episodes) {
    out << trap::common::StrFormat(
        "episode %d kind=%s stale=%.17g fresh=%.17g regret=%.17g "
        "adopted=%d degraded=%d\n",
        er.step, trap::drift::EpisodeKindName(er.kind), er.stale_cost,
        er.fresh_cost, er.regret, er.adopted ? 1 : 0, er.degraded ? 1 : 0);
  }
  out << trap::common::StrFormat("total regret: %.17g\n",
                                 output.replay.total_regret);
  out << trap::common::StrFormat(
      "stats perturbation: spent=%.17g moves=%d base=%.17g shifted=%.17g\n",
      output.stats.l1_spent, output.stats.moves, output.stats.base_cost,
      output.stats.shifted_cost);
  return out.str();
}

}  // namespace

int main(int argc, char** argv) {
  DriftToolOptions options;
  std::string format = "text";
  std::string out_path;
  std::string golden_path;
  std::string report_name;
  bool digest_only = false;

  long long episodes = options.episodes;
  unsigned long long seed = options.seed;
  unsigned long long step_budget = options.step_budget;
  trap::cli::FlagParser flags(argc, argv, "trap_drift");
  while (flags.Next()) {
    if (flags.Switch("--help") || flags.Switch("-h")) return Usage(stdout);
    if (flags.Switch("--digest")) {
      digest_only = true;
      continue;
    }
    if (flags.StringFlag("--schema", &options.schema)) continue;
    if (flags.StringFlag("--advisor", &options.advisor)) continue;
    if (flags.IntFlag("--episodes", &episodes)) continue;
    if (flags.Uint64Flag("--seed", &seed)) continue;
    if (flags.Uint64Flag("--step-budget", &step_budget)) continue;
    if (flags.StringFlag("--format", &format)) continue;
    if (flags.StringFlag("--out", &out_path)) continue;
    if (flags.StringFlag("--golden", &golden_path)) continue;
    if (flags.StringFlag("--report", &report_name)) continue;
    flags.Unknown();
    return Usage(stderr);
  }
  if (flags.failed()) return Usage(stderr);
  options.episodes = static_cast<int>(episodes);
  options.seed = seed;
  options.step_budget = step_budget;
  if (format != "text" && format != "json") {
    std::fprintf(stderr, "trap_drift: unknown format '%s'\n", format.c_str());
    return Usage(stderr);
  }
  if (options.episodes < 1) {
    std::fprintf(stderr, "trap_drift: --episodes must be >= 1\n");
    return 2;
  }

  trap::obs::TraceSink sink;
  trap::common::StatusOr<ScenarioOutput> result(
      trap::common::Status::Internal("scenario never ran"));
  std::optional<trap::bench::BenchReport> report;
  if (!report_name.empty()) report.emplace(report_name);
  const auto run = [&] { result = RunScenario(options, &sink); };
  if (report.has_value()) {
    report->TimePhase("replay", run);
  } else {
    run();
  }
  if (!result.ok()) {
    std::fprintf(stderr, "trap_drift: %s\n",
                 result.status().ToString().c_str());
    return 1;
  }
  ScenarioOutput output = *std::move(result);

  if (report.has_value()) {
    report->RecordMetric("episodes",
                         static_cast<double>(output.replay.episodes.size()));
    report->RecordMetric("total_regret", output.replay.total_regret);
    double adoptions = 0.0;
    double degradations = 0.0;
    for (const trap::drift::EpisodeResult& er : output.replay.episodes) {
      adoptions += er.adopted ? 1.0 : 0.0;
      degradations += er.degraded ? 1.0 : 0.0;
    }
    report->RecordMetric("adoptions", adoptions);
    report->RecordMetric("degradations", degradations);
    report->RecordMetric("stats_regression", output.stats.regression());
    std::fprintf(stdout, "report: %s\n", report->Write().c_str());
  }

  if (!golden_path.empty()) {
    std::ifstream golden(golden_path);
    if (!golden) {
      std::fprintf(stderr, "trap_drift: cannot read golden %s\n",
                   golden_path.c_str());
      return 1;
    }
    std::ostringstream want;
    want << golden.rdbuf();
    const std::string got = JsonReport(options, output);
    if (got != want.str()) {
      std::fprintf(stderr,
                   "trap_drift: report diverged from golden %s\n"
                   "---- golden ----\n%s---- got ----\n%s",
                   golden_path.c_str(), want.str().c_str(), got.c_str());
      return 1;
    }
    std::printf("golden match: %s\n", golden_path.c_str());
  } else if (!digest_only) {
    const std::string report_text =
        format == "json" ? JsonReport(options, output) : TextReport(output);
    if (out_path.empty()) {
      std::fputs(report_text.c_str(), stdout);
    } else {
      std::ofstream out(out_path, std::ios::trunc);
      if (!out) {
        std::fprintf(stderr, "trap_drift: cannot write %s\n",
                     out_path.c_str());
        return 1;
      }
      out << report_text;
      if (!out.flush()) {
        std::fprintf(stderr, "trap_drift: short write to %s\n",
                     out_path.c_str());
        return 1;
      }
      std::fprintf(stderr, "trap_drift: wrote %s\n", out_path.c_str());
    }
  }

  // The digest lines check.sh compares across TRAP_THREADS values.
  std::printf("regret digest:  0x%016llx\n",
              static_cast<unsigned long long>(output.replay.series_fp));
  std::printf("metrics digest: 0x%016llx\n",
              static_cast<unsigned long long>(
                  trap::obs::MetricRegistry::Digest(
                      trap::obs::MetricRegistry::Global().Snapshot())));
  std::printf("trace digest:   0x%016llx\n",
              static_cast<unsigned long long>(sink.Digest()));
  return 0;
}
