#include "harness.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>

#include "advisor/registry.h"
#include "common/file_util.h"
#include "common/json.h"
#include "common/thread_pool.h"
#include "obs/metrics.h"

namespace trap::bench {

namespace tc = ::trap::trap;

BenchEnv::BenchEnv(catalog::Schema schema_in, uint64_t seed, int pool_size,
                   int num_training, int num_tests, int workload_size)
    : schema(std::move(schema_in)),
      vocab(schema, 8),
      optimizer(schema),
      truth(schema),
      utility(optimizer, truth),
      evaluator(optimizer, truth) {
  workload::GeneratorOptions gopt;
  gopt.max_tables = 3;
  gopt.max_filters = 3;
  workload::QueryGenerator gen(vocab, gopt, seed);
  pool = gen.GeneratePool(pool_size);
  common::Rng rng(seed ^ 0x77);
  for (int i = 0; i < num_training; ++i) {
    training.push_back(workload::SampleWorkload(pool, workload_size, rng));
  }
  for (int i = 0; i < num_tests; ++i) {
    tests.push_back(workload::SampleWorkload(pool, workload_size, rng));
  }
  // Train the learned utility model on the pool under a few configurations.
  std::vector<engine::IndexConfig> configs;
  configs.emplace_back();
  for (int c = 0; c < 2; ++c) {
    engine::IndexConfig cfg;
    for (int i = 0; i < 5; ++i) {
      int g = static_cast<int>(rng.UniformInt(0, schema.num_columns() - 1));
      cfg.Add(engine::Index{{schema.ColumnFromGlobalIndex(g)}});
    }
    configs.push_back(cfg);
  }
  utility.Train(pool, configs);
}

assess::Substrate BenchEnv::substrate() const {
  return assess::Substrate{vocab, optimizer, truth, utility, pool, training};
}

advisor::TuningConstraint BenchEnv::StorageConstraint(double fraction) const {
  return advisor::TuningConstraint::Storage(
      static_cast<int64_t>(fraction * static_cast<double>(schema.DataSizeBytes())));
}

advisor::TuningConstraint BenchEnv::CountConstraint(int n) const {
  return advisor::TuningConstraint::IndexCount(n, schema.DataSizeBytes() / 2);
}

advisor::TuningConstraint BenchEnv::ConstraintFor(
    advisor::ConstraintKind kind) const {
  return kind == advisor::ConstraintKind::kStorage ? StorageConstraint()
                                                   : CountConstraint(4);
}

std::unique_ptr<advisor::IndexAdvisor> MakeVictim(
    BenchEnv& env, const advisor::AdvisorSpec& row,
    const advisor::RegistryOptions& options) {
  if (!row.trainable) {
    return *advisor::MakeAdvisor(row.name, env.optimizer, options);
  }
  std::unique_ptr<advisor::LearningAdvisor> learner =
      *advisor::MakeLearningAdvisor(row.name, env.optimizer, options);
  learner->Train(env.training, env.ConstraintFor(row.constraint));
  return learner;
}

tc::GeneratorConfig BenchGeneratorConfig(tc::GenerationMethod method,
                                         tc::PerturbationConstraint constraint,
                                         int epsilon, uint64_t seed) {
  tc::GeneratorConfig config;
  config.method = method;
  config.constraint = constraint;
  config.epsilon = epsilon;
  config.seed = seed;
  config.agent.embed_dim = 32;
  config.agent.hidden_dim = 32;
  config.agent.transformer = nn::TransformerConfig{32, 2, 64, 1};
  config.pretrain.num_pairs = 120;
  config.pretrain.epochs = 2;
  config.pretrain.seed = seed ^ 0x1;
  config.rl.epochs = 10;
  config.rl.workloads_per_epoch = 4;
  config.rl.theta = 0.05;
  config.rl.seed = seed ^ 0x2;
  config.random_attempts = 5;
  return config;
}

void PrintHeader(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
}

void PrintCell(std::optional<double> value, int width) {
  if (value.has_value()) {
    std::printf(" %*.4f", width, *value);
  } else {
    std::printf(" %*s", width, "n/a");
  }
}

BenchOptions ParseBenchOptions(int* argc, char** argv) {
  BenchOptions opt;
  int out = 1;
  for (int i = 1; i < *argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--repeat=", 0) == 0) {
      opt.repeat = static_cast<int>(std::strtol(arg.c_str() + 9, nullptr, 10));
    } else if (arg.rfind("--min-iters=", 0) == 0) {
      opt.min_iters =
          static_cast<int>(std::strtol(arg.c_str() + 12, nullptr, 10));
    } else {
      argv[out++] = argv[i];
    }
  }
  *argc = out;
  opt.repeat = std::max(1, opt.repeat);
  opt.min_iters = std::max(1, opt.min_iters);
  return opt;
}

double MedianSeconds(const BenchOptions& opt, const std::function<void()>& fn) {
  std::vector<double> times;
  times.reserve(static_cast<size_t>(opt.repeat));
  for (int r = 0; r < opt.repeat; ++r) {
    auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < opt.min_iters; ++i) fn();
    double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    times.push_back(seconds / opt.min_iters);
  }
  std::sort(times.begin(), times.end());
  const size_t n = times.size();
  return n % 2 == 1 ? times[n / 2]
                    : 0.5 * (times[n / 2 - 1] + times[n / 2]);
}

void RecordWhatIfThroughput(BenchReport* report, const BenchOptions& opt) {
  // Fixed probe, independent of the calling bench: TPC-H, 64 generated
  // queries, one single-column candidate per schema column — the shape of
  // an advisor's first greedy round. Costs are never cached, so every
  // repeat runs the full kernel sweep.
  const catalog::Schema schema = catalog::MakeTpcH();
  sql::Vocabulary vocab(schema, 8);
  workload::QueryGenerator gen(vocab, workload::GeneratorOptions{}, /*seed=*/3);
  const std::vector<sql::Query> queries = gen.GeneratePool(64);
  engine::WhatIfOptimizer optimizer(schema);
  workload::Workload w;
  for (const sql::Query& q : queries) {
    w.queries.push_back(workload::WorkloadQuery{q, 1.0});
  }
  std::vector<engine::IndexConfig> configs;
  for (int g = 0; g < schema.num_columns(); ++g) {
    engine::IndexConfig cfg;
    cfg.Add(engine::Index{{schema.ColumnFromGlobalIndex(g)}});
    configs.push_back(cfg);
  }
  const double pairs =
      static_cast<double>(w.queries.size() * configs.size());
  double sink = 0.0;
  const double t1 = MedianSeconds(
      opt, [&] { sink += optimizer.TryWorkloadCosts(w, configs).value()[0]; });
  // Report-only: the same sweep as four disjoint quarter-sweeps issued by
  // concurrent callers on the shared optimizer, 4 lanes over 1.
  std::vector<std::vector<engine::IndexConfig>> quarters(4);
  for (size_t c = 0; c < configs.size(); ++c) {
    quarters[c % quarters.size()].push_back(configs[c]);
  }
  std::vector<double> quarter_sinks(quarters.size(), 0.0);
  auto quarter_sweeps = [&](common::ThreadPool& pool) {
    pool.ParallelFor(quarters.size(), [&](size_t q) {
      quarter_sinks[q] += optimizer.TryWorkloadCosts(w, quarters[q]).value()[0];
    });
  };
  common::ThreadPool one_lane(1);
  common::ThreadPool four_lanes(4);
  const double c1 = MedianSeconds(opt, [&] { quarter_sweeps(one_lane); });
  const double c4 = MedianSeconds(opt, [&] { quarter_sweeps(four_lanes); });
  for (double q : quarter_sinks) sink += q;
  if (sink < 0.0) std::printf("impossible\n");  // keep the sweeps observable
  report->RecordMetric("whatif_pairs_per_sec", t1 > 0.0 ? pairs / t1 : 0.0);
  report->RecordMetric("concurrent_callers_4_vs_1", c4 > 0.0 ? c1 / c4 : 0.0);
}

BenchReport::BenchReport(std::string bench_name)
    : name_(std::move(bench_name)),
      threads_(common::GlobalPool().num_threads()) {}

double BenchReport::TimePhase(const std::string& phase,
                              const std::function<void()>& fn) {
  auto start = std::chrono::steady_clock::now();
  fn();
  double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  RecordPhase(phase, seconds);
  return seconds;
}

void BenchReport::RecordPhase(const std::string& phase, double seconds) {
  phases_.push_back(Phase{phase, seconds});
}

void BenchReport::RecordMetric(const std::string& key, double value) {
  metrics_.emplace_back(key, value);
}

void BenchReport::RecordFailure(const advisor::FailureRecord& failure) {
  failures_.push_back(failure);
}

std::string BenchReport::Write() const {
  using common::JsonValue;
  const std::string path = "BENCH_" + name_ + ".json";
  JsonValue phases = JsonValue::Array();
  for (const Phase& phase : phases_) {
    phases.Push(JsonValue::Object()
                    .Set("name", JsonValue::Str(phase.name))
                    .Set("seconds", JsonValue::Number(phase.seconds)));
  }
  JsonValue metrics = JsonValue::Object();
  for (const auto& [key, value] : metrics_) {
    metrics.Set(key, JsonValue::Number(value));
  }
  // Observability block: every sample in the global registry at write time,
  // plus the digest over the deterministic subset. Bit-identical schedules
  // must produce bit-identical digests, whatever TRAP_THREADS is.
  const std::vector<obs::MetricSample> samples =
      obs::MetricRegistry::Global().Snapshot();
  JsonValue obs_metrics = JsonValue::Object();
  for (const obs::MetricSample& sample : samples) {
    obs_metrics.Set(
        sample.name,
        JsonValue::Object()
            .Set("value", JsonValue::Number(static_cast<double>(sample.value)))
            .Set("deterministic", JsonValue::Bool(sample.deterministic)));
  }
  JsonValue failures = JsonValue::Array();
  for (const advisor::FailureRecord& f : failures_) {
    failures.Push(
        JsonValue::Object()
            .Set("advisor", JsonValue::Str(f.advisor))
            .Set("site", JsonValue::Str(f.site))
            .Set("code", JsonValue::Str(common::StatusCodeName(f.code)))
            .Set("attempts", JsonValue::Number(f.attempts))
            .Set("degraded", JsonValue::Bool(f.degraded))
            .Set("message", JsonValue::Str(f.message)));
  }
  JsonValue doc = JsonValue::Object();
  doc.Set("bench", JsonValue::Str(name_))
      .Set("threads", JsonValue::Number(threads_))
      .Set("phases", std::move(phases))
      .Set("metrics", std::move(metrics))
      .Set("obs_metrics", std::move(obs_metrics))
      .Set("metrics_digest",
           JsonValue::Hex(obs::MetricRegistry::Digest(samples)))
      .Set("failures", std::move(failures));
  // Atomic publish (write .tmp, rename): a crash mid-write leaves only the
  // .tmp file, never a torn BENCH_*.json.
  if (!common::AtomicWriteFile(path, common::WriteJson(doc) + "\n").ok()) {
    return "";
  }
  std::printf("[bench json] wrote %s (threads=%d)\n", path.c_str(), threads_);
  return path;
}

}  // namespace trap::bench
