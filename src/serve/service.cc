#include "serve/service.h"

#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "advisor/evaluation.h"
#include "advisor/registry.h"
#include "catalog/datasets.h"
#include "common/deadline.h"
#include "drift/episode.h"
#include "drift/replay.h"
#include "obs/obs.h"
#include "obs/trace.h"
#include "serve/wire.h"
#include "sql/query.h"
#include "workload/generator.h"

namespace trap::serve {
namespace {

using common::JsonValue;
using common::Status;
using common::StatusOr;

// An integer request param: `fallback` when absent, INVALID_ARGUMENT when
// present but not an integral number in int64 range (1.5, -1e300, "4").
StatusOr<std::int64_t> IntParam(const JsonValue& params, std::string_view key,
                                std::int64_t fallback) {
  if (params.Find(key) == nullptr) return fallback;
  std::optional<std::int64_t> value = params.IntAt(key);
  if (!value.has_value()) {
    return Status::InvalidArgument(std::string(key) + " must be an integer");
  }
  return *value;
}

// The request's step budget (param "step_budget"; absent or <= 0 =
// unbounded), validated before a RequestEnv is built from it.
StatusOr<std::uint64_t> StepBudget(const JsonValue& params) {
  TRAP_ASSIGN_OR_RETURN(std::int64_t budget,
                        IntParam(params, "step_budget", 0));
  return budget > 0 ? static_cast<std::uint64_t>(budget)
                    : common::CancelToken::kUnbounded;
}

// Per-request evaluation environment: a deterministic step-budget deadline
// (see StepBudget), a private TraceSink whose digest rides back in the
// result, and the pinned snapshot. The trace sink is per-request so the
// digest a client sees depends only on its own request, never on what other
// sessions ran first.
struct RequestEnv {
  common::CancelToken cancel;
  obs::TraceSink trace;
  obs::ObsSink obs;
  common::EvalContext ctx;

  RequestEnv(std::uint64_t step_budget, const catalog::Snapshot* snapshot)
      : cancel(step_budget) {
    obs.trace = &trace;
    ctx.cancel = &cancel;
    ctx.obs = &obs;
    ctx.snapshot = snapshot;
  }
};

// Folds the request-invariant trailer into a method result.
JsonValue Finish(JsonValue result, const RequestEnv& env, uint64_t epoch) {
  result.Set("epoch", JsonValue::Hex(epoch));
  result.Set("trace", JsonValue::Hex(env.trace.Digest()));
  return result;
}

// The registry advisor this request runs. Learning advisors need a training
// phase the session API does not expose; they are rejected as unservable
// rather than silently substituted.
StatusOr<std::string> ResolveAdvisorName(const JsonValue& params) {
  std::string name = params.StringAt("advisor").value_or("Extend");
  if (name == "greedy") name = "Extend";  // the trap_drift alias
  const advisor::AdvisorSpec* spec = advisor::FindAdvisorSpec(name);
  if (spec != nullptr && spec->trainable) {
    return Status::InvalidArgument("advisor not servable (needs training): " +
                                   name);
  }
  return name;
}

StatusOr<advisor::TuningConstraint> ResolveConstraint(
    const JsonValue& params, const catalog::Schema& schema) {
  if (const JsonValue* shipped = params.Find("constraint")) {
    return DecodeConstraint(*shipped);
  }
  return advisor::TuningConstraint::Storage(schema.DataSizeBytes() / 2);
}

// A published overlay is applied lazily (the engine materializes the epoch
// on first use), and StatsOverlay::Apply treats an out-of-range override as
// a programming error. The client is not this process's programmer, so
// range-check everything here and refuse the publish instead.
Status ValidateOverlay(const catalog::StatsOverlay& overlay,
                       const catalog::Schema& base) {
  const int total_tables =
      base.num_tables() + static_cast<int>(overlay.added_tables().size());
  auto columns_of = [&](int t) -> int {
    if (t < base.num_tables()) {
      return static_cast<int>(base.table(t).columns.size());
    }
    const catalog::Table& added =
        overlay.added_tables()[static_cast<size_t>(t - base.num_tables())];
    return static_cast<int>(added.columns.size());
  };
  for (const catalog::Table& added : overlay.added_tables()) {
    if (added.columns.empty()) {
      return Status::InvalidArgument("overlay: added table '" + added.name +
                                     "' has no columns");
    }
  }
  for (const auto& [id, stats] : overlay.column_stats()) {
    (void)stats;
    if (id.table < 0 || id.table >= total_tables || id.column < 0 ||
        id.column >= columns_of(id.table)) {
      return Status::InvalidArgument("overlay: column override out of range");
    }
  }
  for (const auto& [table, rows] : overlay.table_rows()) {
    (void)rows;
    if (table < 0 || table >= total_tables) {
      return Status::InvalidArgument(
          "overlay: row-count override out of range");
    }
  }
  return Status::Ok();
}

// DecodeIndexConfig checks a config's shape, not the schema. A column the
// pinned epoch does not have (added tables included) would be costed as if
// its index were absent, so refuse it instead.
Status ValidateConfig(const engine::IndexConfig& config,
                      const catalog::Schema& schema) {
  for (const engine::Index& index : config.indexes()) {
    for (const catalog::ColumnId& c : index.columns) {
      if (c.table < 0 || c.table >= schema.num_tables() || c.column < 0 ||
          c.column >= static_cast<int>(schema.table(c.table).columns.size())) {
        return Status::InvalidArgument("config column out of range");
      }
    }
  }
  return Status::Ok();
}

std::optional<catalog::Schema> MakeServeSchema(const std::string& name) {
  if (name == "tpch") return catalog::MakeTpcH();
  if (name == "tpcds") return catalog::MakeTpcDs();
  if (name == "transaction") return catalog::MakeTransaction();
  return std::nullopt;
}

}  // namespace

StatusOr<std::unique_ptr<ServeService>> ServeService::Create(
    ServiceOptions options) {
  std::optional<catalog::Schema> schema = MakeServeSchema(options.schema);
  if (!schema.has_value()) {
    return Status::InvalidArgument("unknown schema: " + options.schema);
  }
  if (options.workload_size < 1 || options.pool_size < options.workload_size) {
    return Status::InvalidArgument(
        "workload_size must be >= 1 and <= pool_size");
  }
  return std::unique_ptr<ServeService>(
      new ServeService(std::move(options), *std::move(schema)));
}

ServeService::ServeService(ServiceOptions options, catalog::Schema schema)
    : options_(std::move(options)),
      schema_(std::move(schema)),
      vocab_(schema_, 8),
      optimizer_(schema_),
      truth_(schema_),
      snapshots_(schema_) {}

common::rpc::Response ServeService::Handle(
    const common::rpc::Request& req,
    const std::shared_ptr<const catalog::Snapshot>& snapshot) {
  TRAP_CHECK(snapshot != nullptr);
  ++requests_handled_;
  StatusOr<JsonValue> result = Route(req, *snapshot);
  if (!result.ok()) return common::rpc::ErrorResponse(req.id, result.status());
  return common::rpc::OkResponse(req.id, *std::move(result));
}

StatusOr<JsonValue> ServeService::Route(const common::rpc::Request& req,
                                        const catalog::Snapshot& snapshot) {
  if (req.method == "health") return Health(snapshot);
  if (req.method == "snapshot_stats") {
    return SnapshotStats(req.params, snapshot);
  }
  if (req.method == "advise") return Advise(req.params, snapshot);
  if (req.method == "assess") return Assess(req.params, snapshot);
  if (req.method == "whatif_batch") return WhatIfBatch(req.params, snapshot);
  if (req.method == "drift_replay") return DriftReplay(req.params);
  return Status::InvalidArgument("unknown method: " + req.method);
}

StatusOr<JsonValue> ServeService::Health(const catalog::Snapshot& snap) {
  JsonValue result = JsonValue::Object();
  result.Set("schema", JsonValue::Str(schema_.name()));
  result.Set("epoch", JsonValue::Hex(snap.epoch()));
  result.Set("publications",
             JsonValue::Number(static_cast<double>(snapshots_.publications())));
  result.Set("requests_handled",
             JsonValue::Number(static_cast<double>(requests_handled_)));
  return result;
}

StatusOr<JsonValue> ServeService::SnapshotStats(const JsonValue& params,
                                                const catalog::Snapshot& snap) {
  JsonValue result = JsonValue::Object();
  if (const JsonValue* publish = params.Find("publish")) {
    TRAP_ASSIGN_OR_RETURN(catalog::StatsOverlay overlay,
                          DecodeStatsOverlay(*publish));
    TRAP_RETURN_IF_ERROR(ValidateOverlay(overlay, schema_));
    std::shared_ptr<const catalog::Snapshot> published =
        snapshots_.Publish(std::move(overlay));
    result.Set("published_epoch", JsonValue::Hex(published->epoch()));
  } else if (params.BoolAt("reset").value_or(false)) {
    std::shared_ptr<const catalog::Snapshot> published =
        snapshots_.ResetToBase();
    result.Set("published_epoch", JsonValue::Hex(published->epoch()));
  }
  // The *pinned* epoch: a publish above does not retroactively change what
  // this request (or any other already-admitted request) evaluates under.
  result.Set("epoch", JsonValue::Hex(snap.epoch()));
  result.Set("base", JsonValue::Bool(snap.is_base()));
  const catalog::StatsOverlay& overlay = snap.overlay();
  result.Set("column_stats", JsonValue::Number(static_cast<double>(
                                 overlay.column_stats().size())));
  result.Set("table_rows", JsonValue::Number(static_cast<double>(
                               overlay.table_rows().size())));
  result.Set("added_tables", JsonValue::Number(static_cast<double>(
                                 overlay.added_tables().size())));
  result.Set("publications",
             JsonValue::Number(static_cast<double>(snapshots_.publications())));
  return result;
}

StatusOr<workload::Workload> ServeService::ResolveWorkload(
    const JsonValue& params, const catalog::Schema& schema) const {
  workload::Workload w;
  if (const JsonValue* shipped = params.Find("workload")) {
    TRAP_ASSIGN_OR_RETURN(w, DecodeWorkload(*shipped));
  } else {
    TRAP_ASSIGN_OR_RETURN(const std::int64_t seed_param,
                          IntParam(params, "workload_seed", -1));
    const uint64_t seed = seed_param >= 0 ? static_cast<uint64_t>(seed_param)
                                          : options_.seed;
    TRAP_ASSIGN_OR_RETURN(
        const std::int64_t size,
        IntParam(params, "workload_size", options_.workload_size));
    if (size < 1 || size > options_.pool_size) {
      return Status::InvalidArgument("workload_size out of range");
    }
    // Mirrors trap_drift's scenario generator so "seed S" means the same
    // workload to the served session and the offline tool.
    workload::GeneratorOptions gopt;
    gopt.max_tables = 3;
    gopt.max_filters = 3;
    workload::QueryGenerator gen(vocab_, gopt, seed);
    std::vector<sql::Query> pool = gen.GeneratePool(options_.pool_size);
    for (std::int64_t i = 0; i < size; ++i) {
      w.queries.push_back(
          workload::WorkloadQuery{pool[static_cast<size_t>(i)], 1.0});
    }
  }
  if (w.queries.empty()) {
    return Status::InvalidArgument("workload has no queries");
  }
  std::string error;
  for (size_t i = 0; i < w.queries.size(); ++i) {
    if (!sql::ValidateQuery(w.queries[i].query, schema, &error)) {
      return Status::InvalidArgument(
          "workload query " + std::to_string(i) +
          " does not validate under this epoch: " + error);
    }
  }
  return w;
}

StatusOr<JsonValue> ServeService::Advise(const JsonValue& params,
                                         const catalog::Snapshot& snap) {
  TRAP_ASSIGN_OR_RETURN(const std::uint64_t budget, StepBudget(params));
  RequestEnv env(budget, &snap);
  TRAP_ASSIGN_OR_RETURN(std::string name, ResolveAdvisorName(params));
  TRAP_ASSIGN_OR_RETURN(workload::Workload w,
                        ResolveWorkload(params, optimizer_.SchemaFor(env.ctx)));
  TRAP_ASSIGN_OR_RETURN(advisor::TuningConstraint constraint,
                        ResolveConstraint(params, schema_));
  TRAP_ASSIGN_OR_RETURN(std::unique_ptr<advisor::IndexAdvisor> adv,
                        advisor::MakeAdvisor(name, optimizer_));
  TRAP_ASSIGN_OR_RETURN(engine::IndexConfig config,
                        adv->TryRecommend(w, constraint, env.ctx));
  JsonValue result = JsonValue::Object();
  result.Set("advisor", JsonValue::Str(adv->name()));
  result.Set("config", EncodeIndexConfig(config));
  return Finish(std::move(result), env, snap.epoch());
}

StatusOr<JsonValue> ServeService::Assess(const JsonValue& params,
                                         const catalog::Snapshot& snap) {
  TRAP_ASSIGN_OR_RETURN(const std::uint64_t budget, StepBudget(params));
  RequestEnv env(budget, &snap);
  TRAP_ASSIGN_OR_RETURN(std::string name, ResolveAdvisorName(params));
  // The true-cost oracle measures under the construction-time base schema,
  // so assessed workloads must validate against it (the pinned snapshot
  // still governs the advisor's what-if view -- the paper's asymmetry).
  TRAP_ASSIGN_OR_RETURN(workload::Workload w, ResolveWorkload(params, schema_));
  TRAP_ASSIGN_OR_RETURN(advisor::TuningConstraint constraint,
                        ResolveConstraint(params, schema_));
  TRAP_ASSIGN_OR_RETURN(std::unique_ptr<advisor::IndexAdvisor> adv,
                        advisor::MakeAdvisor(name, optimizer_));
  std::unique_ptr<advisor::IndexAdvisor> baseline;
  if (std::optional<std::string> baseline_name = params.StringAt("baseline");
      baseline_name.has_value()) {
    TRAP_ASSIGN_OR_RETURN(baseline,
                          advisor::MakeAdvisor(*baseline_name, optimizer_));
  }
  advisor::RobustnessEvaluator evaluator(optimizer_, truth_);
  TRAP_ASSIGN_OR_RETURN(
      double utility,
      evaluator.TryIndexUtility(*adv, baseline.get(), w, constraint, env.ctx));
  JsonValue result = JsonValue::Object();
  result.Set("advisor", JsonValue::Str(adv->name()));
  result.Set("utility", JsonValue::Number(utility));
  if (const JsonValue* perturbed_doc = params.Find("perturbed")) {
    TRAP_ASSIGN_OR_RETURN(workload::Workload perturbed,
                          DecodeWorkload(*perturbed_doc));
    std::string error;
    for (size_t i = 0; i < perturbed.queries.size(); ++i) {
      if (!sql::ValidateQuery(perturbed.queries[i].query, schema_, &error)) {
        return Status::InvalidArgument("perturbed query " + std::to_string(i) +
                                       " does not validate: " + error);
      }
    }
    TRAP_ASSIGN_OR_RETURN(double utility_perturbed,
                          evaluator.TryIndexUtility(*adv, baseline.get(),
                                                    perturbed, constraint,
                                                    env.ctx));
    result.Set("utility_perturbed", JsonValue::Number(utility_perturbed));
    result.Set("iudr", JsonValue::Number(advisor::RobustnessEvaluator::Iudr(
                           utility, utility_perturbed)));
  }
  return Finish(std::move(result), env, snap.epoch());
}

StatusOr<JsonValue> ServeService::WhatIfBatch(const JsonValue& params,
                                              const catalog::Snapshot& snap) {
  TRAP_ASSIGN_OR_RETURN(const std::uint64_t budget, StepBudget(params));
  RequestEnv env(budget, &snap);
  TRAP_ASSIGN_OR_RETURN(workload::Workload w,
                        ResolveWorkload(params, optimizer_.SchemaFor(env.ctx)));
  const JsonValue* configs_doc = params.Find("configs");
  if (configs_doc == nullptr ||
      configs_doc->kind != JsonValue::Kind::kArray ||
      configs_doc->items.empty()) {
    return Status::InvalidArgument(
        "whatif_batch needs a non-empty \"configs\" array");
  }
  std::vector<engine::IndexConfig> configs;
  configs.reserve(configs_doc->items.size());
  for (const JsonValue& item : configs_doc->items) {
    TRAP_ASSIGN_OR_RETURN(engine::IndexConfig config, DecodeIndexConfig(item));
    TRAP_RETURN_IF_ERROR(
        ValidateConfig(config, optimizer_.SchemaFor(env.ctx)));
    configs.push_back(std::move(config));
  }
  TRAP_ASSIGN_OR_RETURN(std::vector<double> costs,
                        optimizer_.TryWorkloadCosts(w, configs, env.ctx));
  JsonValue result = JsonValue::Object();
  JsonValue costs_doc = JsonValue::Array();
  for (double cost : costs) costs_doc.Push(JsonValue::Number(cost));
  result.Set("costs", std::move(costs_doc));
  return Finish(std::move(result), env, snap.epoch());
}

StatusOr<JsonValue> ServeService::DriftReplay(const JsonValue& params) {
  // Drift replay always starts from the base epoch: the episode stream
  // builds its own cumulative overlays over the base schema, independent of
  // whatever snapshot the session pinned.
  TRAP_ASSIGN_OR_RETURN(const std::uint64_t budget, StepBudget(params));
  RequestEnv env(budget, nullptr);
  TRAP_ASSIGN_OR_RETURN(std::string name, ResolveAdvisorName(params));
  TRAP_ASSIGN_OR_RETURN(workload::Workload base,
                        ResolveWorkload(params, schema_));
  TRAP_ASSIGN_OR_RETURN(advisor::TuningConstraint constraint,
                        ResolveConstraint(params, schema_));
  TRAP_ASSIGN_OR_RETURN(std::unique_ptr<advisor::IndexAdvisor> adv,
                        advisor::MakeAdvisor(name, optimizer_));

  TRAP_ASSIGN_OR_RETURN(const std::int64_t episodes,
                        IntParam(params, "episodes", 4));
  if (episodes < 1 || episodes > 64) {
    return Status::InvalidArgument("episodes must be in [1, 64]");
  }
  TRAP_ASSIGN_OR_RETURN(const std::int64_t seed_param,
                        IntParam(params, "seed", -1));
  const uint64_t seed = seed_param >= 0 ? static_cast<uint64_t>(seed_param)
                                        : options_.seed;
  TRAP_ASSIGN_OR_RETURN(const std::int64_t episode_budget,
                        IntParam(params, "episode_step_budget", 0));
  if (episode_budget < 0) {
    return Status::InvalidArgument("episode_step_budget must be >= 0");
  }

  engine::IndexConfig initial =
      adv->TryRecommend(base, constraint, env.ctx)
          .value_or(engine::IndexConfig{});
  drift::EpisodeStream stream(vocab_, std::move(base), drift::DriftSpec{},
                              seed);
  drift::ReplayOptions ropt;
  ropt.episodes = static_cast<int>(episodes);
  ropt.episode_step_budget = static_cast<uint64_t>(episode_budget);
  drift::ReplayLoop loop(&optimizer_, ropt);
  drift::ReadviseFn readvise =
      [&adv, &constraint](const workload::Workload& w,
                          const common::EvalContext& rctx) {
        return adv->TryRecommend(w, constraint, rctx);
      };
  TRAP_ASSIGN_OR_RETURN(
      drift::ReplayResult replay,
      loop.TryRun(stream, std::move(initial), readvise, env.ctx));

  double adoptions = 0.0;
  double degradations = 0.0;
  for (const drift::EpisodeResult& er : replay.episodes) {
    adoptions += er.adopted ? 1.0 : 0.0;
    degradations += er.degraded ? 1.0 : 0.0;
  }
  JsonValue result = JsonValue::Object();
  result.Set("advisor", JsonValue::Str(adv->name()));
  result.Set("episodes",
             JsonValue::Number(static_cast<double>(replay.episodes.size())));
  result.Set("total_regret", JsonValue::Number(replay.total_regret));
  result.Set("regret_digest", JsonValue::Hex(replay.series_fp));
  result.Set("adoptions", JsonValue::Number(adoptions));
  result.Set("degradations", JsonValue::Number(degradations));
  result.Set("final_config", EncodeIndexConfig(replay.final_config));
  return Finish(std::move(result), env, /*epoch=*/0);
}

}  // namespace trap::serve
