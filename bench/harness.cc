#include "harness.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "advisor/registry.h"
#include "common/file_util.h"
#include "common/json.h"
#include "common/stats.h"
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

bool IsNonSargable(BenchEnv& env, const workload::Workload& w,
                   const advisor::TuningConstraint& constraint, double theta) {
  // Reference advisors: if neither can reach theta utility, no index serves
  // this workload and it falls outside the assessment region (Sec. V-A).
  // The two references are independent (heuristics are stateless across
  // Recommend calls and the what-if optimizer is thread-safe), so both
  // utilities are evaluated in parallel.
  std::unique_ptr<advisor::IndexAdvisor> refs[] = {
      *advisor::MakeAdvisor("Extend", env.optimizer),
      *advisor::MakeAdvisor("AutoAdmin", env.optimizer)};
  double utilities[2] = {0.0, 0.0};
  common::ParallelFor(2, [&](size_t i) {
    utilities[i] = env.evaluator.TryIndexUtility(*refs[i], nullptr, w,
                                                 constraint, {})
                       .value_or(0.0);
  });
  return utilities[0] < theta && utilities[1] < theta;
}

namespace {

// A utility the evaluation could not produce at all (deadline/cancellation)
// scores 0; with a report, the failure records carry the why.
double ReportedUtility(BenchEnv& env, advisor::IndexAdvisor& advisor,
                       advisor::IndexAdvisor* baseline,
                       const workload::Workload& w,
                       const advisor::TuningConstraint& constraint,
                       BenchReport* report) {
  std::vector<advisor::FailureRecord> failures;
  common::StatusOr<double> u = env.evaluator.TryIndexUtility(
      advisor, baseline, w, constraint, {}, {},
      report != nullptr ? &failures : nullptr);
  for (const advisor::FailureRecord& f : failures) {
    report->RecordFailure(f);
  }
  return std::move(u).value_or(0.0);
}

}  // namespace

AssessmentResult AssessRobustness(BenchEnv& env, advisor::IndexAdvisor* victim,
                                  advisor::IndexAdvisor* baseline,
                                  tc::GeneratorConfig config,
                                  const advisor::TuningConstraint& constraint,
                                  double theta, BenchReport* report) {
  tc::AdversarialWorkloadGenerator generator(env.vocab, config);
  generator.Fit(victim, baseline, &env.optimizer, &env.utility, env.pool,
                env.training, constraint);
  AssessmentResult result;
  double sum = 0.0;
  // Random's 5x generation budget means 5x more perturbed workloads enter
  // the assessment; trained methods emit one workload per test.
  int attempts = config.method == ::trap::trap::GenerationMethod::kRandom
                     ? config.random_attempts
                     : 1;
  for (const workload::Workload& w : env.tests) {
    double u = ReportedUtility(env, *victim, baseline, w, constraint, report);
    if (u <= theta) continue;  // Definition 3.3 requires u(W) > theta
    for (int attempt = 0; attempt < attempts; ++attempt) {
      workload::Workload perturbed = generator.Generate(w);
      if (IsNonSargable(env, perturbed, constraint, theta)) {
        ++result.filtered;
        continue;
      }
      double u_prime = ReportedUtility(env, *victim, baseline, perturbed,
                                       constraint, report);
      // IUDR = 1 - u'/u explodes when u is small; clamp per-workload values
      // so miniature-sample means are not dominated by one ratio blow-up.
      sum += common::Clamp(advisor::RobustnessEvaluator::Iudr(u, u_prime),
                           -1.0, 2.0);
      ++result.eligible;
    }
  }
  result.mean_iudr = result.eligible > 0 ? sum / result.eligible : 0.0;
  return result;
}

void PrintHeader(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
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
      opt, [&] { sink += optimizer.WorkloadCosts(w, configs)[0]; });
  // Report-only: the same sweep as four disjoint quarter-sweeps issued by
  // concurrent callers on the shared optimizer, 4 lanes over 1.
  std::vector<std::vector<engine::IndexConfig>> quarters(4);
  for (size_t c = 0; c < configs.size(); ++c) {
    quarters[c % quarters.size()].push_back(configs[c]);
  }
  std::vector<double> quarter_sinks(quarters.size(), 0.0);
  auto quarter_sweeps = [&](common::ThreadPool& pool) {
    pool.ParallelFor(quarters.size(), [&](size_t q) {
      quarter_sinks[q] += optimizer.WorkloadCosts(w, quarters[q])[0];
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
  const std::string path = "BENCH_" + name_ + ".json";
  std::ostringstream out;
  out << "{\n  \"bench\": \"" << name_ << "\",\n";
  out << "  \"threads\": " << threads_ << ",\n";
  out << "  \"phases\": [";
  for (size_t i = 0; i < phases_.size(); ++i) {
    out << (i == 0 ? "\n" : ",\n");
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.6f", phases_[i].seconds);
    out << "    {\"name\": \"" << phases_[i].name
        << "\", \"seconds\": " << buf << "}";
  }
  out << "\n  ],\n  \"metrics\": {";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    out << (i == 0 ? "\n" : ",\n");
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.6f", metrics_[i].second);
    out << "    \"" << metrics_[i].first << "\": " << buf;
  }
  // Observability block: every sample in the global registry at write time,
  // plus the digest over the deterministic subset. The digest is what
  // check.sh compares across TRAP_THREADS values — bit-identical schedules
  // must produce bit-identical digests.
  const std::vector<obs::MetricSample> samples =
      obs::MetricRegistry::Global().Snapshot();
  out << "\n  },\n  \"obs_metrics\": {";
  for (size_t i = 0; i < samples.size(); ++i) {
    out << (i == 0 ? "\n" : ",\n");
    out << "    " << common::JsonQuote(samples[i].name)
        << ": {\"value\": " << samples[i].value << ", \"deterministic\": "
        << (samples[i].deterministic ? "true" : "false") << "}";
  }
  char digest_buf[32];
  std::snprintf(digest_buf, sizeof digest_buf, "0x%016llx",
                static_cast<unsigned long long>(
                    obs::MetricRegistry::Digest(samples)));
  out << "\n  },\n  \"metrics_digest\": \"" << digest_buf << "\",\n";
  out << "  \"failures\": [";
  for (size_t i = 0; i < failures_.size(); ++i) {
    const advisor::FailureRecord& f = failures_[i];
    out << (i == 0 ? "\n" : ",\n");
    out << "    {\"advisor\": " << common::JsonQuote(f.advisor)
        << ", \"site\": " << common::JsonQuote(f.site) << ", \"code\": \""
        << common::StatusCodeName(f.code) << "\", \"attempts\": " << f.attempts
        << ", \"degraded\": " << (f.degraded ? "true" : "false")
        << ", \"message\": " << common::JsonQuote(f.message) << "}";
  }
  out << (failures_.empty() ? "]\n}\n" : "\n  ]\n}\n");
  // Atomic publish (write .tmp, rename): a crash mid-write leaves only the
  // .tmp file, never a torn BENCH_*.json.
  if (!common::AtomicWriteFile(path, out.str()).ok()) return "";
  std::printf("[bench json] wrote %s (threads=%d)\n", path.c_str(), threads_);
  return path;
}

}  // namespace trap::bench
