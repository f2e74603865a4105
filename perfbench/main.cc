// trap_perfbench: runs one workload of the end-to-end assessment
// benchmark and prints its metrics. Usually started by run.py, which builds
// it first:
//
//   trap_perfbench --workload NAME --seed N --seconds S --trace 0|1
//
// The last line of standard output is the result object
// {"correct", "attempted", "failed", "metrics"}, with each metric a bare
// value; run.py gives it its unit from BENCHMARK.json. See README.md for
// the workloads and every metric.

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "common.h"
#include "common/json.h"
#include "common/thread_pool.h"
#include "victim_proxy.h"
#include "workloads.h"

namespace trap::perfbench {

double Median(std::vector<double> v) { return Percentile(std::move(v), 50.0); }

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
  const size_t index = static_cast<size_t>(std::max(1.0, rank)) - 1;
  return v[std::min(index, v.size() - 1)];
}

double WallSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double CpuSeconds() {
  timespec ts{};
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

double PeakRssMb() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void FillCommonLayers(const Tracer& tracer,
                      const std::vector<obs::MetricSample>& before,
                      const std::vector<obs::MetricSample>& after,
                      Repetition* rep) {
  const std::map<std::string, Tracer::Rollup> spans = tracer.RollupByName();
  auto span = [&](const std::string& name) {
    auto it = spans.find(name);
    return it == spans.end() ? Tracer::Rollup{} : it->second;
  };
  auto delta = [&](const std::string& name) {
    return static_cast<double>(SampleDelta(before, after, name));
  };
  std::map<std::string, double>& l = rep->layers;
  l["workload.pool_s"] = span("workload.pool").total_s;
  l["gbdt.fit_s"] = span("gbdt.fit").total_s;
  l["advisor.learner_train_s"] = span("advisor.learner_train").total_s;
  l["trap.fit_s"] = span("trap.fit").total_s;
  l["trap.fit_self_s"] = span("trap.fit").self_s;
  l["trap.fit_calls"] = static_cast<double>(span("trap.fit").count);
  l["trap.generate_s"] = span("trap.generate").total_s;
  l["trap.generate_calls"] = static_cast<double>(span("trap.generate").count);
  l["advisor.victim_recommend_s_fit"] = span(VictimProxy::kFitSpan).total_s;
  l["advisor.victim_recommend_s_assess"] =
      span(VictimProxy::kAssessSpan).total_s;
  l["advisor.utility_s"] = span("advisor.utility").total_s;
  l["advisor.utility_calls"] =
      static_cast<double>(span("advisor.utility").count);
  l["advisor.reference_filter_s"] = span("advisor.reference_filter").total_s;
  l["trap.agent.episodes"] = delta("trap.agent.episodes");
  l["trap.agent.decode_steps"] = delta("trap.agent.decode_steps");
  l["advisor.retry_attempts"] = delta("trap.retry.attempts");
  l["advisor.retry_successes"] = delta("trap.retry.successes");
  l["advisor.degradations"] = delta("trap.retry.degradations");
  const double calls = delta("trap.whatif.calls");
  l["engine.whatif_calls"] = calls;
  l["engine.whatif_misses"] = delta("trap.whatif.cache.misses");
  l["engine.whatif_hits"] = delta("trap.whatif.cache.hits");
  l["engine.whatif_hit_ratio"] =
      calls > 0.0 ? l["engine.whatif_hits"] / calls : 0.0;
  l["engine.whatif_batches"] = delta("trap.whatif.batch.count");
  l["engine.whatif_batch_items"] = delta("trap.whatif.batch.items.sum");
  l["engine.whatif_dup_pairs"] = delta("trap.whatif.batch.dup_pairs");
  l["engine.shape_misses"] = delta("trap.whatif.shape.misses");
  l["trace.spans"] = static_cast<double>(tracer.size());
}

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: trap_perfbench --workload "
               "assess_trap_tpch|assess_random_tpcds|serve_mixed_tpch\n"
               "         --seed N --seconds S --trace 0|1 [--small] "
               "[--no-proxy] [--out-dir DIR]\n");
  return 2;
}

bool ParseArgs(int argc, char** argv, RunOptions* options) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    char* end = nullptr;
    if (arg == "--small") {
      options->small = true;
    } else if (arg == "--no-proxy") {
      options->no_proxy = true;
    } else if (arg == "--workload" && has_value) {
      options->workload = argv[++i];
    } else if (arg == "--out-dir" && has_value) {
      options->out_dir = argv[++i];
    } else if (arg == "--seed" && has_value) {
      options->seed = std::strtoull(argv[++i], &end, 10);
      if (*end != '\0') return false;
    } else if (arg == "--seconds" && has_value) {
      options->seconds = std::strtod(argv[++i], &end);
      if (*end != '\0' || !(options->seconds > 0.0)) return false;
    } else if (arg == "--trace" && has_value) {
      const std::string v = argv[++i];
      if (v != "0" && v != "1") return false;
      options->trace = v == "1";
    } else {
      return false;
    }
  }
  return !options->workload.empty();
}

int Main(int argc, char** argv) {
  RunOptions options;
  if (!ParseArgs(argc, argv, &options)) return Usage();
  RepetitionFn run_rep;
  if (options.workload == "assess_trap_tpch") {
    run_rep = RunAssessTrapTpch;
  } else if (options.workload == "assess_random_tpcds") {
    run_rep = RunAssessRandomTpcds;
  } else if (options.workload == "serve_mixed_tpch") {
    run_rep = RunServeMixedTpch;
  } else {
    return Usage();
  }
  std::error_code ec;
  std::filesystem::create_directories(options.out_dir, ec);
  const std::string trace_path =
      (std::filesystem::path(options.out_dir) /
       ("trace-" + options.workload + "-seed" + std::to_string(options.seed) +
        ".json"))
          .string();
  if (options.trace) std::filesystem::remove(trace_path, ec);

  const int threads = common::GlobalPool().num_threads();
  RunResult result;
  std::vector<Repetition> reps;
  // Repetitions run until the time is used up: at least three untraced
  // ones (two in a traced run, alternating untraced and traced, so the
  // tracing overhead is measured in the same process). Every repetition
  // builds its environment afresh, so each starts from cold caches.
  const double begin = WallSeconds();
  const int min_reps = options.trace ? 2 : 3;
  while (true) {
    const int index = static_cast<int>(reps.size());
    Tracer tracer(options.trace && index % 2 == 1);
    const double rep_start = WallSeconds();
    reps.push_back(run_rep(options, &tracer, index, &result));
    if (tracer.enabled()) {
      if (!tracer.AppendChromeEvents(trace_path, index)) {
        result.Fail("cannot write " + trace_path);
      }
      for (const auto& [name, r] : tracer.RollupByName()) {
        std::printf("repetition %d span %-36s count %8lld total_s %10.6f "
                    "self_s %10.6f\n",
                    index, name.c_str(), static_cast<long long>(r.count),
                    r.total_s, r.self_s);
      }
    }
    const double rep_s = WallSeconds() - rep_start;
    const double elapsed = WallSeconds() - begin;
    if (index + 1 >= min_reps && elapsed + rep_s > options.seconds) break;
    if (index + 1 >= 200) break;
  }

  for (const Repetition& r : reps) {
    result.attempted += r.attempted;
    result.failed += r.failed;
    if (r.digest != reps[0].digest) {
      result.Fail("output digest differs between repetitions");
    }
  }

  std::vector<double> setup, unit, whatif, cpu_util;
  for (const Repetition& r : reps) {
    if (r.traced) continue;
    setup.push_back(r.setup_s);
    unit.push_back(r.unit_s);
    whatif.push_back(static_cast<double>(r.whatif_calls));
    cpu_util.push_back(r.unit_s > 0.0 ? r.cpu_s / (r.unit_s * threads) : 0.0);
  }
  // Metric values only: run.py attaches the units from BENCHMARK.json.
  std::map<std::string, double>& m = result.metrics;
  if (!options.trace) {
    m["setup_s"] = Median(setup);
    m["assess_s"] = Median(unit);
    m["whatif_calls"] = Median(whatif);
    m["peak_rss_mb"] = PeakRssMb();
  } else {
    std::map<std::string, std::vector<double>> layers;
    std::vector<double> traced_unit;
    for (const Repetition& r : reps) {
      if (!r.traced) continue;
      traced_unit.push_back(r.unit_s);
      for (const auto& [name, value] : r.layers) layers[name].push_back(value);
    }
    for (const auto& [name, values] : layers) m[name] = Median(values);
    m["common.threads"] = threads;
    m["common.cpu_util"] = Median(cpu_util);
    std::vector<double> cpu_s;
    for (const Repetition& r : reps) {
      if (!r.traced) cpu_s.push_back(r.cpu_s);
    }
    m["common.cpu_s"] = Median(cpu_s);
    m["common.wall_s"] = Median(unit);
    const double untraced = Median(unit);
    m["trace.overhead_frac"] =
        untraced > 0.0 ? Median(traced_unit) / untraced - 1.0 : 0.0;
  }

  // Human-readable summary, then the result object as the last line.
  std::printf("workload %s seed %llu threads %d repetitions %zu\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), threads,
              reps.size());
  std::printf("digest 0x%016llx\n",
              static_cast<unsigned long long>(reps[0].digest));
  std::printf("failed_frac = %lld / %lld\n",
              static_cast<long long>(result.failed),
              static_cast<long long>(result.attempted));
  for (size_t i = 0; i < reps.size(); ++i) {
    std::printf("repetition %zu%s: setup_s %.6f assess_s %.6f cpu_s %.6f "
                "whatif_calls %lld\n",
                i, reps[i].traced ? " (traced)" : "", reps[i].setup_s,
                reps[i].unit_s, reps[i].cpu_s,
                static_cast<long long>(reps[i].whatif_calls));
  }
  if (options.trace) std::printf("spans written to %s\n", trace_path.c_str());
  for (const std::string& e : result.errors) {
    std::printf("CHECK FAILED: %s\n", e.c_str());
  }
  common::JsonValue metrics = common::JsonValue::Object();
  for (auto& [name, value] : m) {
    if (!std::isfinite(value)) {
      result.Fail("metric " + name + " is not finite");
      value = 0.0;
    }
    std::printf("%-40s %.6g\n", name.c_str(), value);
    metrics.Set(name, common::JsonValue::Number(value));
  }
  common::JsonValue out = common::JsonValue::Object();
  out.Set("correct", common::JsonValue::Bool(result.correct));
  out.Set("attempted",
          common::JsonValue::Number(static_cast<double>(result.attempted)));
  out.Set("failed",
          common::JsonValue::Number(static_cast<double>(result.failed)));
  out.Set("metrics", std::move(metrics));
  std::printf("%s\n", common::WriteJson(out).c_str());
  return 0;
}

}  // namespace
}  // namespace trap::perfbench

int main(int argc, char** argv) { return trap::perfbench::Main(argc, argv); }
