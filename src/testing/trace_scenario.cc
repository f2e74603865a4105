#include "testing/trace_scenario.h"

#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "advisor/evaluation.h"
#include "advisor/registry.h"
#include "catalog/datasets.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "testing/harness.h"
#include "trap/perturber.h"
#include "workload/generator.h"

namespace trap::proptest {

common::Status RunTraceScenario(const TraceScenarioOptions& options,
                                obs::TraceSink* sink) {
  std::optional<catalog::Schema> schema = MakeSchemaByName(options.schema);
  if (!schema.has_value()) {
    return common::Status::InvalidArgument("unknown schema: " +
                                           options.schema);
  }
  obs::MetricRegistry::Global().Reset();
  sink->Reset();

  sql::Vocabulary vocab(*schema, 8);
  engine::WhatIfOptimizer optimizer(*schema);
  workload::GeneratorOptions gopt;
  gopt.max_tables = 3;
  gopt.max_filters = 3;
  workload::QueryGenerator gen(vocab, gopt, options.seed);
  std::vector<sql::Query> pool = gen.GeneratePool(options.pool_size);

  workload::Workload w;
  for (int i = 0; i < options.workload_size &&
                  i < static_cast<int>(pool.size());
       ++i) {
    w.queries.push_back(
        workload::WorkloadQuery{pool[static_cast<size_t>(i)], 1.0});
  }

  obs::ObsSink obs_sink;
  obs_sink.trace = sink;
  common::EvalContext ctx;
  ctx.obs = &obs_sink;
  obs::TraceSpan scenario(ctx, "scenario", options.seed);
  const common::EvalContext& sctx = scenario.ctx();

  // Phase 1: the batched candidate sweep every advisor round funnels
  // through.
  {
    obs::TraceSpan phase(sctx, "scenario.whatif_sweep", 1);
    std::vector<engine::IndexConfig> configs;
    for (int g = 0; g < options.sweep_columns && g < schema->num_columns();
         ++g) {
      engine::IndexConfig cfg;
      cfg.Add(engine::Index{{schema->ColumnFromGlobalIndex(g)}});
      configs.push_back(cfg);
    }
    if (options.pool == nullptr) {
      TRAP_ASSIGN_OR_RETURN(
          std::vector<double> costs,
          optimizer.TryWorkloadCosts(w, configs, phase.ctx()));
      phase.AddArg("configs", static_cast<int64_t>(costs.size()));
    } else {
      std::vector<common::Status> statuses(configs.size());
      options.pool->ParallelFor(configs.size(), [&](size_t c) {
        statuses[c] =
            optimizer.TryWorkloadCost(w, configs[c], phase.ctx()).status();
      });
      for (const common::Status& status : statuses) {
        TRAP_RETURN_IF_ERROR(status);
      }
      phase.AddArg("configs", static_cast<int64_t>(configs.size()));
    }
  }

  // Phase 2: one recommendation through the fault-tolerant retry runtime.
  {
    obs::TraceSpan phase(sctx, "scenario.recommend", 2);
    TRAP_ASSIGN_OR_RETURN(std::unique_ptr<advisor::IndexAdvisor> adv,
                          advisor::MakeAdvisor(options.advisor, optimizer));
    advisor::TuningConstraint constraint = advisor::TuningConstraint::Storage(
        schema->DataSizeBytes() / 2);
    advisor::RecommendOutcome outcome = advisor::RecommendWithRetry(
        *adv, w, constraint, phase.ctx());
    TRAP_RETURN_IF_ERROR(outcome.status);
    phase.AddArg("indexes", outcome.config.size());
  }

  // Phase 3: one random perturbation pass (no training required).
  {
    obs::TraceSpan phase(sctx, "scenario.perturb", 3);
    ::trap::trap::GeneratorConfig config;
    config.method = ::trap::trap::GenerationMethod::kRandom;
    config.constraint = ::trap::trap::PerturbationConstraint::kSharedTable;
    config.epsilon = 5;
    config.seed = options.seed ^ 0x9e;
    ::trap::trap::AdversarialWorkloadGenerator generator(vocab, config);
    TRAP_ASSIGN_OR_RETURN(workload::Workload perturbed,
                          generator.TryGenerate(w, phase.ctx()));
    phase.AddArg("queries", static_cast<int64_t>(perturbed.queries.size()));
  }
  return common::Status::Ok();
}

}  // namespace trap::proptest
