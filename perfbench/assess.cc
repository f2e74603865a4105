// The two assessment workloads: fit an adversarial workload generator
// against each victim advisor, generate perturbed test workloads, filter the
// non-sargable ones with the reference advisors and score IUDR with the
// true-cost oracle -- the paper's assessment protocol (Section V-A), run
// through the library's public API with spans around every call.

#include <bit>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "advisor/evaluation.h"
#include "advisor/registry.h"
#include "catalog/datasets.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/thread_pool.h"
#include "gbdt/utility_model.h"
#include "sql/query.h"
#include "sql/tokenizer.h"
#include "trap/perturber.h"
#include "victim_proxy.h"
#include "workload/generator.h"
#include "workloads.h"

namespace trap::perfbench {
namespace {

namespace tc = ::trap::trap;

constexpr double kTheta = 0.1;
// Share of the assessment the traced run's module spans must cover.
constexpr double kMinCoverage = 0.95;
// Generator seed of the fixed query corpus (see BuildEnv).
constexpr uint64_t kCorpusSeed = 0xc0de5eed;
constexpr int kEpsilon = 5;
constexpr tc::PerturbationConstraint kPerturbation =
    tc::PerturbationConstraint::kColumnConsistent;

enum class Budget { kStorage, kCount };

struct VictimSpec {
  const char* name;
  Budget budget;
  bool learned;
};

struct AssessSpec {
  bool tpcds = false;
  int pool_size = 60;
  int num_training = 10;
  int num_tests = 6;
  int workload_size = 5;
  int dqn_episodes = 0;
  // Generator fitting effort (the TRAP method only).
  int pretrain_pairs = 120;
  int pretrain_epochs = 2;
  int rl_epochs = 10;
  int rl_workloads = 4;
  // Perturbed workloads the Random method generates per test workload.
  int random_attempts = 5;
  std::vector<VictimSpec> victims;
  std::vector<tc::GenerationMethod> methods;
};

AssessSpec TrapSpec(bool small) {
  AssessSpec s;
  s.pool_size = 200;
  s.num_training = 40;
  s.num_tests = small ? 3 : 12;
  s.workload_size = 5;
  s.dqn_episodes = small ? 20 : 150;
  s.pretrain_pairs = small ? 30 : 60;
  s.pretrain_epochs = small ? 1 : 2;
  s.rl_epochs = small ? 2 : 5;
  s.rl_workloads = small ? 2 : 4;
  s.victims = {{"Extend", Budget::kStorage, false},
               {"AutoAdmin", Budget::kCount, false},
               {"DB2Advis", Budget::kStorage, false},
               {"DQN", Budget::kCount, true}};
  s.methods = {tc::GenerationMethod::kTrap, tc::GenerationMethod::kRandom};
  return s;
}

AssessSpec RandomSpec(bool small) {
  AssessSpec s;
  s.tpcds = true;
  s.pool_size = 200;
  s.num_training = 4;
  s.num_tests = small ? 4 : 45;
  s.workload_size = 10;
  // No method is compared here, so Random needs no matched generation
  // budget: one perturbation per test spends the time on more distinct
  // test workloads instead.
  s.random_attempts = 1;
  s.victims = {{"Extend", Budget::kStorage, false},
               {"DB2Advis", Budget::kStorage, false},
               {"AutoAdmin", Budget::kCount, false},
               {"Drop", Budget::kCount, false},
               {"DTA", Budget::kStorage, false},
               {"Relaxation", Budget::kStorage, false}};
  s.methods = {tc::GenerationMethod::kRandom};
  return s;
}

struct Victim {
  std::string name;
  std::unique_ptr<advisor::IndexAdvisor> advisor;
  std::unique_ptr<VictimProxy> proxy;
  advisor::TuningConstraint constraint;

  advisor::IndexAdvisor* target() {
    return proxy != nullptr ? proxy.get() : advisor.get();
  }
};

// The assessment environment, built fresh for every repetition: schema,
// query pool, training and test workloads, the learned utility model, the
// reference advisors of the sargability filter and the victims.
struct AssessEnv {
  explicit AssessEnv(catalog::Schema schema_in)
      : schema(std::move(schema_in)),
        vocab(schema, 8),
        optimizer(schema),
        truth(schema),
        utility(optimizer, truth),
        evaluator(optimizer, truth) {}

  catalog::Schema schema;
  sql::Vocabulary vocab;
  engine::WhatIfOptimizer optimizer;
  engine::TrueCostModel truth;
  gbdt::LearnedUtilityModel utility;
  advisor::RobustnessEvaluator evaluator;
  std::vector<sql::Query> pool;
  std::vector<workload::Workload> training;
  std::vector<workload::Workload> tests;
  std::unique_ptr<advisor::IndexAdvisor> references[2];
  std::vector<Victim> victims;
};

advisor::TuningConstraint ConstraintFor(const catalog::Schema& schema,
                                        Budget budget) {
  const int64_t bytes = schema.DataSizeBytes();
  return budget == Budget::kStorage
             ? advisor::TuningConstraint::Storage(bytes / 2)
             : advisor::TuningConstraint::IndexCount(4, bytes / 2);
}

std::unique_ptr<AssessEnv> BuildEnv(const AssessSpec& spec, uint64_t seed,
                                    bool use_proxy, Tracer* tracer,
                                    RunResult* result) {
  CountedSpan setup(tracer, "setup");
  std::unique_ptr<AssessEnv> env;
  {
    ScopedSpan span(tracer, "catalog.schema");
    env = std::make_unique<AssessEnv>(spec.tpcds ? catalog::MakeTpcDs()
                                                 : catalog::MakeTpcH());
  }
  {
    ScopedSpan span(tracer, "advisor.make");
    env->references[0] = *advisor::MakeAdvisor("Extend", env->optimizer);
    env->references[1] = *advisor::MakeAdvisor("AutoAdmin", env->optimizer);
  }
  common::Rng rng(seed ^ 0x77);
  {
    ScopedSpan span(tracer, "workload.pool");
    workload::GeneratorOptions gopt;
    gopt.max_tables = 3;
    gopt.max_filters = 3;
    // The pool is the benchmark's fixed query corpus, as a TPC benchmark's
    // query templates are: every seed draws its own training and test
    // workloads from the same pool, so the work per seed varies only with
    // the draw, not with a freshly generated pool.
    workload::QueryGenerator gen(env->vocab, gopt, kCorpusSeed);
    env->pool = gen.GeneratePool(spec.pool_size);
    // Training and test workloads are drawn from the properly-operating
    // ones (Definition 3.3: the Extend reference reaches theta utility), so
    // the amount of RL and scoring work depends little on the seed.
    const advisor::TuningConstraint storage =
        ConstraintFor(env->schema, Budget::kStorage);
    auto sample = [&](int count, std::vector<workload::Workload>* out) {
      for (int drawn = 0; static_cast<int>(out->size()) < count; ++drawn) {
        if (drawn == 50 * count) {
          result->Fail("too few properly-operating workloads in the pool");
          return;
        }
        workload::Workload w =
            workload::SampleWorkload(env->pool, spec.workload_size, rng);
        const double u =
            env->evaluator
                .TryIndexUtility(*env->references[0], nullptr, w, storage, {})
                .value_or(0.0);
        if (u > kTheta) out->push_back(std::move(w));
      }
    };
    sample(spec.num_training, &env->training);
    sample(spec.num_tests, &env->tests);
  }
  {
    // The utility model learns from the pool planned under the empty
    // configuration and two random five-index configurations.
    ScopedSpan span(tracer, "gbdt.fit");
    std::vector<engine::IndexConfig> configs(1);
    for (int c = 0; c < 2; ++c) {
      engine::IndexConfig cfg;
      for (int i = 0; i < 5; ++i) {
        const int g = static_cast<int>(
            rng.UniformInt(0, env->schema.num_columns() - 1));
        cfg.Add(engine::Index{{env->schema.ColumnFromGlobalIndex(g)}});
      }
      configs.push_back(cfg);
    }
    env->utility.Train(env->pool, configs);
  }
  for (const VictimSpec& v : spec.victims) {
    Victim victim;
    victim.name = v.name;
    victim.constraint = ConstraintFor(env->schema, v.budget);
    if (v.learned) {
      advisor::RegistryOptions ropt;
      ropt.seed = seed;
      ropt.rl_episodes = spec.dqn_episodes;
      ropt.max_actions = 64;
      common::StatusOr<std::unique_ptr<advisor::LearningAdvisor>> learner =
          advisor::MakeLearningAdvisor(v.name, env->optimizer, ropt);
      if (!learner.ok()) {
        result->Fail("cannot build learner " + victim.name);
        continue;
      }
      ScopedSpan span(tracer, "advisor.learner_train");
      (*learner)->Train(env->training, victim.constraint);
      victim.advisor = *std::move(learner);
    } else {
      common::StatusOr<std::unique_ptr<advisor::IndexAdvisor>> made =
          advisor::MakeAdvisor(v.name, env->optimizer);
      if (!made.ok()) {
        result->Fail("cannot build advisor " + victim.name);
        continue;
      }
      victim.advisor = *std::move(made);
    }
    if (use_proxy) {
      victim.proxy =
          std::make_unique<VictimProxy>(victim.advisor.get(), tracer);
    }
    env->victims.push_back(std::move(victim));
  }
  return env;
}

tc::GeneratorConfig GeneratorConfigFor(const AssessSpec& spec,
                                       tc::GenerationMethod method,
                                       uint64_t seed) {
  tc::GeneratorConfig config;
  config.method = method;
  config.constraint = kPerturbation;
  config.epsilon = kEpsilon;
  config.seed = seed;
  config.agent.embed_dim = 32;
  config.agent.hidden_dim = 32;
  config.agent.transformer = nn::TransformerConfig{32, 2, 64, 1};
  config.pretrain.num_pairs = spec.pretrain_pairs;
  config.pretrain.epochs = spec.pretrain_epochs;
  config.pretrain.seed = seed ^ 0x1;
  config.rl.epochs = spec.rl_epochs;
  config.rl.workloads_per_epoch = spec.rl_workloads;
  config.rl.theta = 0.05;
  config.rl.seed = seed ^ 0x2;
  config.random_attempts = spec.random_attempts;
  return config;
}

uint64_t Bits(double v) { return std::bit_cast<uint64_t>(v); }

// Operation accounting of one repetition: every utility evaluation and
// every generation is one operation; one that survived a failure (a
// degraded recommend, a query degraded to its original) counts as failed.
struct Ops {
  int64_t attempted = 0;
  int64_t failed = 0;
};

double Utility(AssessEnv& env, advisor::IndexAdvisor& adv,
               const workload::Workload& w,
               const advisor::TuningConstraint& constraint, Ops* ops) {
  std::vector<advisor::FailureRecord> failures;
  common::StatusOr<double> u = env.evaluator.TryIndexUtility(
      adv, nullptr, w, constraint, {}, {}, &failures);
  ++ops->attempted;
  if (!u.ok() || !failures.empty()) ++ops->failed;
  return std::move(u).value_or(0.0);
}

// True when neither reference advisor reaches theta utility on `w`: no
// index serves the workload, so it falls outside the assessment region
// (Section V-A). The references are independent heuristics and the what-if
// optimizer is thread-safe, so both run in parallel.
bool IsNonSargable(AssessEnv& env, const workload::Workload& w,
                   const advisor::TuningConstraint& constraint, Ops* ops) {
  double utilities[2] = {0.0, 0.0};
  Ops ref_ops[2];
  common::ParallelFor(2, [&](size_t i) {
    utilities[i] =
        Utility(env, *env.references[i], w, constraint, &ref_ops[i]);
  });
  for (const Ops& o : ref_ops) {
    ops->attempted += o.attempted;
    ops->failed += o.failed;
  }
  return utilities[0] < kTheta && utilities[1] < kTheta;
}

struct Generated {
  const workload::Workload* original;
  workload::Workload perturbed;
};

// Every perturbed query must validate against the schema and stay within
// the edit budget of its original.
void CheckGenerated(const AssessEnv& env, const std::vector<Generated>& all,
                    RunResult* result) {
  for (const Generated& g : all) {
    if (g.perturbed.queries.size() != g.original->queries.size()) {
      result->Fail("perturbed workload changed its query count");
      continue;
    }
    for (size_t i = 0; i < g.perturbed.queries.size(); ++i) {
      const sql::Query& q = g.perturbed.queries[i].query;
      std::string error;
      if (!sql::ValidateQuery(q, env.schema, &error)) {
        result->Fail("perturbed query fails validation: " + error);
      }
      const int distance =
          sql::EditDistance(sql::ToTokens(g.original->queries[i].query,
                                          env.vocab),
                            sql::ToTokens(q, env.vocab));
      if (distance > kEpsilon) {
        result->Fail("perturbed query exceeds the edit budget: " +
                     std::to_string(distance));
      }
    }
  }
}

Repetition RunAssess(const AssessSpec& spec, const RunOptions& options,
                     Tracer* tracer, int rep_index, RunResult* result) {
  Repetition rep;
  rep.traced = tracer->enabled();
  const double setup_start = WallSeconds();
  std::unique_ptr<AssessEnv> env =
      BuildEnv(spec, options.seed, !options.no_proxy, tracer, result);
  rep.setup_s = WallSeconds() - setup_start;

  // One generator configuration and seed shared by every victim: one
  // assessment protocol applied to many advisors.
  const uint64_t generator_seed = common::HashCombine(options.seed, 0x7a9);
  std::vector<Generated> generated;
  Ops ops;
  uint64_t digest = 0x7e57ab1e;
  double iudr_sum = 0.0;
  int64_t eligible = 0;
  int64_t filtered = 0;

  const std::vector<obs::MetricSample> before =
      obs::GlobalSnapshotWithDerived();
  const double cpu_start = CpuSeconds();
  const double start = WallSeconds();
  int root = -1;
  {
    CountedSpan assess(tracer, "assess");
    root = assess.index();
    uint64_t cell_id = 0;
    for (Victim& victim : env->victims) {
      for (tc::GenerationMethod method : spec.methods) {
        ++cell_id;
        CountedSpan cell(tracer, "cell", cell_id);
        const tc::GeneratorConfig config =
            GeneratorConfigFor(spec, method, generator_seed);
        tc::AdversarialWorkloadGenerator generator(env->vocab, config);
        {
          CountedSpan fit(tracer, "trap.fit", cell_id);
          if (victim.proxy != nullptr) victim.proxy->set_in_fit(true);
          generator.Fit(victim.target(), nullptr, &env->optimizer,
                        &env->utility, env->pool, env->training,
                        victim.constraint);
          if (victim.proxy != nullptr) victim.proxy->set_in_fit(false);
        }
        // Random's generation budget (5x on the TRAP workload, matching the
        // trained methods' cost) puts that many perturbed workloads into the
        // assessment; trained methods emit one per test.
        const int attempts = method == tc::GenerationMethod::kRandom
                                 ? config.random_attempts
                                 : 1;
        int64_t cell_eligible = 0;
        double cell_sum = 0.0;
        for (const workload::Workload& w : env->tests) {
          double u = 0.0;
          {
            ScopedSpan span(tracer, "advisor.utility", cell_id);
            u = Utility(*env, *victim.target(), w, victim.constraint, &ops);
          }
          digest = common::HashCombine(digest, Bits(u));
          if (u <= kTheta) continue;  // Definition 3.3 requires u(W) > theta
          for (int attempt = 0; attempt < attempts; ++attempt) {
            const int64_t degraded_before = generator.num_degraded_queries();
            Generated g{&w, {}};
            {
              ScopedSpan span(tracer, "trap.generate", cell_id);
              g.perturbed = generator.Generate(w);
            }
            ++ops.attempted;
            if (generator.num_degraded_queries() != degraded_before) {
              ++ops.failed;
            }
            for (const workload::WorkloadQuery& q : g.perturbed.queries) {
              digest = common::HashCombine(digest, sql::Fingerprint(q.query));
            }
            bool non_sargable = false;
            {
              ScopedSpan span(tracer, "advisor.reference_filter", cell_id);
              non_sargable =
                  IsNonSargable(*env, g.perturbed, victim.constraint, &ops);
            }
            if (non_sargable) {
              ++filtered;
              digest = common::HashCombine(digest, 0xf11e);
            } else {
              double u_prime = 0.0;
              {
                ScopedSpan span(tracer, "advisor.utility", cell_id);
                u_prime = Utility(*env, *victim.target(), g.perturbed,
                                  victim.constraint, &ops);
              }
              // IUDR = 1 - u'/u explodes when u is small; clamp per-workload
              // values so one ratio blow-up cannot dominate the mean.
              cell_sum += common::Clamp(
                  advisor::RobustnessEvaluator::Iudr(u, u_prime), -1.0, 2.0);
              ++cell_eligible;
            }
            generated.push_back(std::move(g));
          }
        }
        digest = common::HashCombine(
            digest, common::HashCombine(static_cast<uint64_t>(cell_eligible),
                                        Bits(cell_sum)));
        iudr_sum += cell_sum;
        eligible += cell_eligible;
      }
    }
  }
  rep.unit_s = WallSeconds() - start;
  rep.cpu_s = CpuSeconds() - cpu_start;
  const std::vector<obs::MetricSample> after =
      obs::GlobalSnapshotWithDerived();
  rep.whatif_calls = SampleDelta(before, after, "trap.whatif.calls");
  rep.digest = digest;
  rep.attempted = ops.attempted;
  rep.failed = ops.failed;

  CheckGenerated(*env, generated, result);
  if (rep_index == 0) {
    std::printf("iudr_mean = %.6f over n = %lld eligible perturbed workloads "
                "(%lld filtered as non-sargable)\n",
                eligible > 0 ? iudr_sum / static_cast<double>(eligible) : 0.0,
                static_cast<long long>(eligible),
                static_cast<long long>(filtered));
  }

  if (rep.traced) {
    FillCommonLayers(*tracer, before, after, &rep);
    // The module spans around the public calls must account for the
    // assessment; the "cell" wrappers do not count.
    const double coverage =
        tracer->CoveredFraction(root, [](const std::string& name) {
          return name == "trap.fit" || name == "trap.generate" ||
                 name == "advisor.utility" ||
                 name == "advisor.reference_filter";
        });
    rep.layers["trace.coverage_frac"] = coverage;
    if (coverage < kMinCoverage) {
      result->Fail("module spans cover only " + std::to_string(coverage) +
                   " of the assessment");
    }
    rep.layers["engine.cache_entries"] =
        static_cast<double>(env->optimizer.cache_size());
    int64_t calls_fit = 0;
    int64_t calls_assess = 0;
    for (const Victim& v : env->victims) {
      if (v.proxy == nullptr) continue;
      calls_fit += v.proxy->calls_fit();
      calls_assess += v.proxy->calls_assess();
    }
    rep.layers["advisor.victim_recommend_calls_fit"] =
        static_cast<double>(calls_fit);
    rep.layers["advisor.victim_recommend_calls_assess"] =
        static_cast<double>(calls_assess);
    rep.layers["trap.iudr_mean"] =
        eligible > 0 ? iudr_sum / static_cast<double>(eligible) : 0.0;
    rep.layers["trap.iudr_n"] = static_cast<double>(eligible);
    rep.layers["trap.filtered"] = static_cast<double>(filtered);
  }
  return rep;
}

}  // namespace

Repetition RunAssessTrapTpch(const RunOptions& options, Tracer* tracer,
                             int rep, RunResult* result) {
  return RunAssess(TrapSpec(options.small), options, tracer, rep, result);
}

Repetition RunAssessRandomTpcds(const RunOptions& options, Tracer* tracer,
                                int rep, RunResult* result) {
  return RunAssess(RandomSpec(options.small), options, tracer, rep, result);
}

}  // namespace trap::perfbench
