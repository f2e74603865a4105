#include "testing/oracles.h"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <memory>
#include <utility>

#include "advisor/registry.h"
#include "catalog/snapshot.h"
#include "catalog/stats_overlay.h"
#include "common/string_util.h"
#include "testing/gbdt_equivalence.h"
#include "testing/nn_equivalence.h"
#include "drift/episode.h"
#include "drift/replay.h"
#include "drift/stats_perturber.h"
#include "engine/index.h"
#include "sql/tokenizer.h"
#include "trap/reference_tree.h"

namespace trap::proptest {

namespace {

// Relative + absolute slack for cost comparisons. Costs are computed by
// identical double arithmetic on both sides of each oracle, so violations
// beyond this are genuine model bugs, not rounding.
constexpr double kRelTol = 1e-12;
constexpr double kAbsTol = 1e-9;

bool CostIncreased(double before, double after) {
  return after > before * (1.0 + kRelTol) + kAbsTol;
}

// The cost oracles compare answers that must agree however they were
// computed. A probe that fails under an injected fault reads as +infinity
// on every path, so a case with a fault still compares deterministically;
// the fault-sweep tests skip such cases rather than judge them.
constexpr double kFailedCost = engine::WhatIfOptimizer::kInfiniteCost;

engine::IndexConfig WithExtras(const Reproducer& r) {
  engine::IndexConfig super = r.config;
  for (const engine::Index& idx : r.extra) super.Add(idx);
  return super;
}

std::unique_ptr<advisor::IndexAdvisor> MakeAdvisorById(
    int id, const engine::WhatIfOptimizer& optimizer) {
  const std::vector<std::string>& names = advisor::HeuristicAdvisorNames();
  const size_t slot = static_cast<size_t>(
      ((id % kNumAdvisors) + kNumAdvisors) % kNumAdvisors);
  return *advisor::MakeAdvisor(names[slot % names.size()], optimizer);
}

// ---- Oracle implementations ------------------------------------------------

// (a)/(b): cost under config ∪ extras must not exceed cost under config.
std::optional<std::string> CheckMonotone(OracleEnv& env, const Reproducer& r) {
  engine::IndexConfig super = WithExtras(r);
  if (super == r.config) return std::nullopt;  // no-op superset
  for (size_t i = 0; i < r.workload.queries.size(); ++i) {
    const sql::Query& q = r.workload.queries[i].query;
    double sub = env.optimizer.TryQueryCost(q, r.config).value_or(kFailedCost);
    double sup = env.optimizer.TryQueryCost(q, super).value_or(kFailedCost);
    if (CostIncreased(sub, sup)) {
      return common::StrFormat(
          "query %zu: cost rose from %.17g to %.17g when indexes were added "
          "(config %d -> %d indexes)",
          i, sub, sup, r.config.size(), super.size());
    }
  }
  return std::nullopt;
}

// (c): batched costs issued concurrently from every lane of a 1/4/8-thread
// pool, all sharing one fresh optimizer, are bit-identical to a serial
// per-query fold through another fresh optimizer.
std::optional<std::string> CheckParallelDeterminism(OracleEnv& env,
                                                    const Reproducer& r) {
  const catalog::Schema& schema = *env.schema;
  std::vector<engine::IndexConfig> configs;
  configs.emplace_back();
  configs.push_back(r.config);
  configs.push_back(WithExtras(r));

  // Serial reference: fresh optimizer, query-order fold.
  engine::WhatIfOptimizer ref(schema);
  std::vector<double> want;
  for (const engine::IndexConfig& config : configs) {
    double total = 0.0;
    for (const workload::WorkloadQuery& wq : r.workload.queries) {
      total += wq.weight *
               ref.TryQueryCost(wq.query, config).value_or(kFailedCost);
    }
    want.push_back(total);
  }

  common::ThreadPool* pools[] = {&env.pool1, &env.pool4, &env.pool8};
  for (common::ThreadPool* pool : pools) {
    engine::WhatIfOptimizer shared(schema);
    const size_t lanes = static_cast<size_t>(pool->num_threads());
    std::vector<std::vector<double>> got(lanes);
    std::vector<double> scalar(lanes);
    pool->ParallelFor(lanes, [&](size_t lane) {
      got[lane] = shared.TryWorkloadCosts(r.workload, configs)
                      .value_or(std::vector<double>(configs.size(),
                                                    kFailedCost));
      scalar[lane] = shared.TryWorkloadCost(r.workload, configs.back())
                         .value_or(kFailedCost);
    });
    for (size_t lane = 0; lane < lanes; ++lane) {
      for (size_t c = 0; c < configs.size(); ++c) {
        if (got[lane][c] != want[c]) {
          return common::StrFormat(
              "config %zu: TryWorkloadCosts from lane %zu of %zu concurrent "
              "callers returned %.17g, serial fold returned %.17g (must be "
              "bit-identical)",
              c, lane, lanes, got[lane][c], want[c]);
        }
      }
      if (scalar[lane] != want.back()) {
        return common::StrFormat(
            "TryWorkloadCost from lane %zu of %zu concurrent callers returned "
            "%.17g, serial fold returned %.17g",
            lane, lanes, scalar[lane], want.back());
      }
    }
  }
  return std::nullopt;
}

// (d): warm shared optimizer == fresh optimizer == repeated call. Costs are
// not cached, so this checks the shape cache: a shape served for the wrong
// query or epoch would show up as a warm/fresh mismatch.
std::optional<std::string> CheckCacheCoherence(OracleEnv& env,
                                               const Reproducer& r) {
  engine::WhatIfOptimizer fresh(*env.schema);
  engine::IndexConfig super = WithExtras(r);
  const engine::IndexConfig* configs[] = {&r.config, &super};
  for (size_t i = 0; i < r.workload.queries.size(); ++i) {
    const sql::Query& q = r.workload.queries[i].query;
    for (const engine::IndexConfig* config : configs) {
      double warm =
          env.optimizer.TryQueryCost(q, *config).value_or(kFailedCost);
      double cold = fresh.TryQueryCost(q, *config).value_or(kFailedCost);
      double again =
          env.optimizer.TryQueryCost(q, *config).value_or(kFailedCost);
      if (warm != cold) {
        return common::StrFormat(
            "query %zu: cache-warm optimizer returned %.17g but a fresh one "
            "returned %.17g (stale or colliding shape-cache entry)",
            i, warm, cold);
      }
      if (warm != again) {
        return common::StrFormat(
            "query %zu: repeated call returned %.17g after %.17g", i, again,
            warm);
      }
    }
  }
  return std::nullopt;
}

// (e): random Reference-Tree walks stay within the declared constraint.
std::optional<std::string> CheckPerturbationBudget(OracleEnv& env,
                                                   const Reproducer& r) {
  const catalog::Schema& schema = *env.schema;
  for (size_t i = 0; i < r.workload.queries.size(); ++i) {
    const sql::Query& q = r.workload.queries[i].query;
    ::trap::trap::ReferenceTree tree(q, env.vocab, r.constraint, r.epsilon);
    common::Rng walk(common::HashCombine(r.walk_seed, i));
    while (!tree.Done()) tree.Advance(walk.Choice(tree.LegalTokens()));
    if (tree.edit_distance() > r.epsilon) {
      return common::StrFormat(
          "query %zu: tree reports edit distance %d over budget epsilon=%d",
          i, tree.edit_distance(), r.epsilon);
    }
    sql::Query p = tree.Materialize();
    std::string error;
    if (!sql::ValidateQuery(p, schema, &error)) {
      return common::StrFormat("query %zu: perturbed query is invalid: %s", i,
                               error.c_str());
    }
    int dist = sql::EditDistance(sql::ToTokens(q, env.vocab),
                                 sql::ToTokens(p, env.vocab));
    if (dist > r.epsilon) {
      return common::StrFormat(
          "query %zu: token edit distance %d exceeds epsilon=%d", i, dist,
          r.epsilon);
    }
    // Invariants shared by all constraints: the join backbone and GROUP BY
    // are immutable.
    if (p.tables != q.tables || p.joins != q.joins ||
        p.group_by != q.group_by) {
      return common::StrFormat(
          "query %zu: perturbation modified the join graph or GROUP BY "
          "under %s",
          i, ::trap::trap::ConstraintName(r.constraint));
    }
    if (r.constraint == PerturbationConstraint::kValueOnly) {
      bool structural_ok =
          p.select == q.select && p.conjunction == q.conjunction &&
          p.order_by == q.order_by && p.filters.size() == q.filters.size();
      if (structural_ok) {
        for (size_t f = 0; f < p.filters.size(); ++f) {
          if (!(p.filters[f].column == q.filters[f].column) ||
              p.filters[f].op != q.filters[f].op) {
            structural_ok = false;
            break;
          }
        }
      }
      if (!structural_ok) {
        return common::StrFormat(
            "query %zu: ValueOnly perturbation changed more than literals",
            i);
      }
    } else if (r.constraint == PerturbationConstraint::kColumnConsistent) {
      bool shape_ok = p.select.size() == q.select.size() &&
                      p.filters.size() == q.filters.size() &&
                      p.order_by.size() == q.order_by.size() &&
                      p.conjunction == q.conjunction;
      if (shape_ok) {
        for (size_t s = 0; s < p.select.size(); ++s) {
          if (p.select[s].agg != q.select[s].agg) shape_ok = false;
        }
        for (size_t f = 0; f < p.filters.size(); ++f) {
          if (p.filters[f].op != q.filters[f].op) shape_ok = false;
        }
      }
      if (!shape_ok) {
        return common::StrFormat(
            "query %zu: ColumnConsistent perturbation changed operators, "
            "aggregates or clause sizes",
            i);
      }
      std::vector<catalog::ColumnId> allowed = q.ReferencedColumns();
      for (catalog::ColumnId c : p.ReferencedColumns()) {
        if (std::find(allowed.begin(), allowed.end(), c) == allowed.end()) {
          return common::StrFormat(
              "query %zu: ColumnConsistent perturbation used column %s "
              "outside the original query's column set",
              i, schema.QualifiedName(c).c_str());
        }
      }
    } else {  // kSharedTable
      constexpr size_t kMaxExtensionsPerClause = 2;
      if (p.select.size() < q.select.size() ||
          p.select.size() > q.select.size() + kMaxExtensionsPerClause ||
          p.filters.size() < q.filters.size() ||
          p.filters.size() > q.filters.size() + kMaxExtensionsPerClause) {
        return common::StrFormat(
            "query %zu: SharedTable perturbation shrank a clause or grew it "
            "past the extension cap",
            i);
      }
    }
  }
  return std::nullopt;
}

// (f): advisor outputs respect budgets and are well-formed candidates.
std::optional<std::string> CheckAdvisorContract(OracleEnv& env,
                                                const Reproducer& r) {
  const catalog::Schema& schema = *env.schema;
  std::unique_ptr<advisor::IndexAdvisor> adv =
      MakeAdvisorById(r.advisor, env.optimizer);
  advisor::TuningConstraint constraint;
  constraint.storage_budget_bytes = r.storage_budget;
  constraint.max_indexes = r.max_indexes;
  // A failed recommendation is judged as the empty configuration, which
  // meets every budget.
  engine::IndexConfig config = adv->TryRecommend(r.workload, constraint, {})
                                   .value_or(engine::IndexConfig{});

  int64_t total = config.TotalSizeBytes(schema);
  if (total > r.storage_budget) {
    return common::StrFormat(
        "%s exceeded the storage budget: %lld > %lld bytes",
        adv->name().c_str(), static_cast<long long>(total),
        static_cast<long long>(r.storage_budget));
  }
  if (r.max_indexes > 0 && config.size() > r.max_indexes) {
    return common::StrFormat("%s built %d indexes over the count budget %d",
                             adv->name().c_str(), config.size(),
                             r.max_indexes);
  }

  std::vector<catalog::ColumnId> referenced;
  for (const workload::WorkloadQuery& wq : r.workload.queries) {
    for (catalog::ColumnId c : wq.query.ReferencedColumns()) {
      referenced.push_back(c);
    }
  }
  constexpr int kMaxWidth = 3;  // HeuristicOptions{}.max_index_width
  for (const engine::Index& index : config.indexes()) {
    if (index.columns.empty()) {
      return common::StrFormat("%s produced an empty index",
                               adv->name().c_str());
    }
    if (index.NumColumns() > kMaxWidth) {
      return common::StrFormat("%s produced a %d-wide index (cap %d)",
                               adv->name().c_str(), index.NumColumns(),
                               kMaxWidth);
    }
    for (size_t k = 0; k < index.columns.size(); ++k) {
      catalog::ColumnId c = index.columns[k];
      if (c.table != index.columns[0].table) {
        return common::StrFormat("%s produced a cross-table index",
                                 adv->name().c_str());
      }
      if (c.table < 0 || c.table >= schema.num_tables() || c.column < 0 ||
          c.column >=
              static_cast<int>(schema.table(c.table).columns.size())) {
        return common::StrFormat("%s produced an out-of-schema column id",
                                 adv->name().c_str());
      }
      if (std::find(index.columns.begin(), index.columns.begin() +
                        static_cast<std::ptrdiff_t>(k), c) !=
          index.columns.begin() + static_cast<std::ptrdiff_t>(k)) {
        return common::StrFormat("%s repeated a column within one index",
                                 adv->name().c_str());
      }
      if (std::find(referenced.begin(), referenced.end(), c) ==
          referenced.end()) {
        return common::StrFormat(
            "%s indexed %s, which no workload query references",
            adv->name().c_str(), schema.QualifiedName(c).c_str());
      }
    }
  }
  return std::nullopt;
}

// ---- Drift oracles ---------------------------------------------------------

// Episode count for the drift replay oracles; kept tiny so the round-robin
// fuzzing sweep stays fast (each episode runs an advisor re-advisement).
int DriftEpisodes(const Reproducer& r) { return std::clamp(r.epsilon, 1, 4); }

// Runs one drift replay over the reproducer's workload: a heuristic advisor
// re-advising through `optimizer`, which the loop costs under each
// episode's statistics snapshot.
common::StatusOr<drift::ReplayResult> RunDriftLoop(
    OracleEnv& env, const Reproducer& r, engine::WhatIfOptimizer& optimizer) {
  std::unique_ptr<advisor::IndexAdvisor> adv =
      MakeAdvisorById(r.advisor, optimizer);
  advisor::TuningConstraint constraint;
  constraint.storage_budget_bytes = r.storage_budget;
  constraint.max_indexes = r.max_indexes;
  common::EvalContext ctx;
  engine::IndexConfig initial = adv->TryRecommend(r.workload, constraint, ctx)
                                    .value_or(engine::IndexConfig{});
  drift::EpisodeStream stream(env.vocab, r.workload, drift::DriftSpec{},
                              r.walk_seed);
  drift::ReplayOptions ropt;
  ropt.episodes = DriftEpisodes(r);
  drift::ReplayLoop loop(&optimizer, ropt);
  drift::ReadviseFn readvise = [&adv, &constraint](
                                   const workload::Workload& w,
                                   const common::EvalContext& rctx) {
    return adv->TryRecommend(w, constraint, rctx);
  };
  return loop.TryRun(stream, std::move(initial), readvise, ctx);
}

// (g): the drift replay is bit-identical when 1, 4 or 8 lanes of a pool run
// it concurrently, each pool's lanes sharing one fresh optimizer — same
// episode fingerprints, same stale/fresh costs, same regret series.
std::optional<std::string> CheckEpisodeDeterminism(OracleEnv& env,
                                                   const Reproducer& r) {
  common::ThreadPool* pools[] = {&env.pool1, &env.pool4, &env.pool8};
  std::optional<drift::ReplayResult> want;
  for (common::ThreadPool* pool : pools) {
    engine::WhatIfOptimizer shared(*env.schema);
    const size_t lanes = static_cast<size_t>(pool->num_threads());
    std::vector<std::optional<common::StatusOr<drift::ReplayResult>>> runs(
        lanes);
    pool->ParallelFor(lanes, [&](size_t lane) {
      runs[lane].emplace(RunDriftLoop(env, r, shared));
    });
    for (size_t lane = 0; lane < lanes; ++lane) {
      const common::StatusOr<drift::ReplayResult>& got = *runs[lane];
      if (!got.ok()) {
        return common::StrFormat(
            "drift replay failed in lane %zu of %zu concurrent callers: %s",
            lane, lanes, got.status().ToString().c_str());
      }
      if (!want.has_value()) {
        want = *got;
        continue;
      }
      if (got->series_fp != want->series_fp) {
        return common::StrFormat(
            "regret series digest 0x%016llx in lane %zu of %zu concurrent "
            "callers, 0x%016llx serially (must be bit-identical)",
            static_cast<unsigned long long>(got->series_fp), lane, lanes,
            static_cast<unsigned long long>(want->series_fp));
      }
      for (size_t e = 0; e < want->episodes.size(); ++e) {
        const drift::EpisodeResult& a = want->episodes[e];
        const drift::EpisodeResult& b = got->episodes[e];
        if (a.episode_fp != b.episode_fp || a.stale_cost != b.stale_cost ||
            a.fresh_cost != b.fresh_cost || a.regret != b.regret) {
          return common::StrFormat(
              "episode %zu diverged between the serial run and lane %zu of "
              "%zu concurrent callers: stale %.17g vs %.17g, fresh %.17g vs "
              "%.17g, regret %.17g vs %.17g",
              e, lane, lanes, a.stale_cost, b.stale_cost, a.fresh_cost,
              b.fresh_cost, a.regret, b.regret);
        }
      }
    }
  }
  return std::nullopt;
}

// (h): regret is finite and >= 0, and the loop's reported costs match an
// independent recomputation through a fresh optimizer with the episode's
// overlay installed — a stale epoch cache entry fails this bit-exactly.
std::optional<std::string> CheckRegretSanity(OracleEnv& env,
                                             const Reproducer& r) {
  engine::WhatIfOptimizer fresh(*env.schema);
  common::StatusOr<drift::ReplayResult> got =
      RunDriftLoop(env, r, fresh);
  if (!got.ok()) {
    return common::StrFormat("drift replay failed: %s",
                             got.status().ToString().c_str());
  }
  drift::EpisodeStream stream(env.vocab, r.workload, drift::DriftSpec{},
                              r.walk_seed);
  engine::WhatIfOptimizer audit(*env.schema);
  common::EvalContext ctx;
  for (const drift::EpisodeResult& er : got->episodes) {
    if (!std::isfinite(er.stale_cost) || !std::isfinite(er.fresh_cost) ||
        !std::isfinite(er.regret)) {
      return common::StrFormat(
          "episode %d: non-finite costs (stale %.17g fresh %.17g regret "
          "%.17g)",
          er.step, er.stale_cost, er.fresh_cost, er.regret);
    }
    if (er.regret < 0.0) {
      return common::StrFormat("episode %d: negative regret %.17g", er.step,
                               er.regret);
    }
    if (er.degraded && er.regret != 0.0) {
      return common::StrFormat(
          "episode %d: degraded episode reported regret %.17g, want 0",
          er.step, er.regret);
    }
    const drift::Episode ep = stream.At(er.step);
    if (ep.fingerprint != er.episode_fp) {
      return common::StrFormat(
          "episode %d: reported fingerprint 0x%016llx but the stream "
          "regenerates 0x%016llx",
          er.step, static_cast<unsigned long long>(er.episode_fp),
          static_cast<unsigned long long>(ep.fingerprint));
    }
    const catalog::Snapshot episode_snapshot(*env.schema, ep.overlay);
    ctx.snapshot = &episode_snapshot;
    common::StatusOr<double> stale =
        audit.TryWorkloadCost(ep.workload, er.stale_config, ctx);
    if (!stale.ok()) {
      return common::StrFormat("episode %d: stale-cost recomputation: %s",
                               er.step, stale.status().ToString().c_str());
    }
    if (*stale != er.stale_cost) {
      return common::StrFormat(
          "episode %d: loop reported stale cost %.17g, fresh recomputation "
          "%.17g (stale epoch cache entry?)",
          er.step, er.stale_cost, *stale);
    }
    if (!er.degraded) {
      common::StatusOr<double> fresh_cost =
          audit.TryWorkloadCost(ep.workload, er.fresh_config, ctx);
      if (!fresh_cost.ok()) {
        return common::StrFormat("episode %d: fresh-cost recomputation: %s",
                                 er.step,
                                 fresh_cost.status().ToString().c_str());
      }
      if (*fresh_cost != er.fresh_cost) {
        return common::StrFormat(
            "episode %d: loop reported fresh cost %.17g, fresh recomputation "
            "%.17g (stale epoch cache entry?)",
            er.step, er.fresh_cost, *fresh_cost);
      }
    }
  }
  return std::nullopt;
}

// (i): StatsPerturber output honors its L1 budget and the stats domain, and
// a zero budget is a bit-exact identity.
std::optional<std::string> CheckStatsBudget(OracleEnv& env,
                                            const Reproducer& r) {
  const catalog::Schema& schema = *env.schema;
  const double budget = 0.25 * r.epsilon;
  drift::StatsPerturberOptions popt;
  popt.l1_budget = budget;
  drift::StatsPerturber perturber(schema, popt);
  common::StatusOr<drift::StatsPerturbation> out =
      perturber.TryPerturb(r.workload, r.config, common::EvalContext{});
  if (!out.ok()) {
    return common::StrFormat("stats perturbation failed: %s",
                             out.status().ToString().c_str());
  }
  if (!std::isfinite(out->base_cost) || !std::isfinite(out->shifted_cost)) {
    return common::StrFormat("non-finite costs: base %.17g shifted %.17g",
                             out->base_cost, out->shifted_cost);
  }
  if (out->l1_spent > budget + 1e-9) {
    return common::StrFormat("spent %.17g of an L1 budget of %.17g",
                             out->l1_spent, budget);
  }
  if (out->shifted_cost < out->base_cost) {
    return common::StrFormat(
        "adversarial shift lowered the cost: base %.17g shifted %.17g",
        out->base_cost, out->shifted_cost);
  }
  if (!out->overlay.table_rows().empty() ||
      !out->overlay.added_tables().empty()) {
    return "perturbation touched row counts or added tables";
  }
  for (const auto& [id, stats] : out->overlay.column_stats()) {
    if (id.table < 0 || id.table >= schema.num_tables()) {
      return common::StrFormat("overlay names out-of-schema table %d",
                               id.table);
    }
    const catalog::ColumnStats base = catalog::StatsOf(schema.column(id));
    const int64_t rows = std::max<int64_t>(1, schema.table(id.table).num_rows);
    if (stats.num_distinct < 1 || stats.num_distinct > rows) {
      return common::StrFormat(
          "%s: NDV %lld outside [1, %lld]", schema.QualifiedName(id).c_str(),
          static_cast<long long>(stats.num_distinct),
          static_cast<long long>(rows));
    }
    if (stats.min_value != base.min_value ||
        stats.max_value != base.max_value) {
      return common::StrFormat("%s: perturbation moved the value domain",
                               schema.QualifiedName(id).c_str());
    }
    if (stats.skew < 0.0 || stats.skew > 2.0) {
      return common::StrFormat("%s: skew %.17g outside [0, 2]",
                               schema.QualifiedName(id).c_str(), stats.skew);
    }
  }
  if (r.epsilon == 0) {
    if (!out->overlay.empty() || out->moves != 0 || out->l1_spent != 0.0) {
      return "zero-budget perturbation was not the identity";
    }
    if (out->shifted_cost != out->base_cost) {
      return common::StrFormat(
          "zero-budget perturbation changed the cost: base %.17g shifted "
          "%.17g",
          out->base_cost, out->shifted_cost);
    }
  }
  return std::nullopt;
}

// The configurations a greedy search costs around its current one, `base`,
// built from `extra`: each extra added; each base index removed, swapped for
// each extra, and extended by the leading column of each same-table extra;
// then the extras alone, no index, and the base itself.
std::vector<engine::IndexConfig> BaseNeighbours(
    const engine::IndexConfig& base, const std::vector<engine::Index>& extra) {
  std::vector<engine::IndexConfig> out;
  auto with = [&](const engine::Index* drop, const engine::Index* add) {
    engine::IndexConfig next = base;
    if (drop != nullptr) next.Remove(*drop);
    if (add != nullptr) next.Add(*add);
    out.push_back(std::move(next));
  };
  for (const engine::Index& e : extra) with(nullptr, &e);
  for (const engine::Index& i : base.indexes()) {
    with(&i, nullptr);
    for (const engine::Index& e : extra) {
      with(&i, &e);
      if (e.table() == i.table() &&
          std::find(i.columns.begin(), i.columns.end(), e.columns[0]) ==
              i.columns.end()) {
        engine::Index extended = i;
        extended.columns.push_back(e.columns[0]);
        with(&i, &extended);
      }
    }
  }
  out.emplace_back(extra);
  out.emplace_back();
  out.push_back(base);
  return out;
}

// (m): costing base neighbours relative to the base is exact -- the totals
// equal the plain batch's bit for bit -- and costs at most nq calls (the
// base items) more than the plain batch does.
std::optional<std::string> CheckWhatIfBaseEquivalence(OracleEnv& env,
                                                      const Reproducer& r) {
  const std::vector<engine::IndexConfig> configs =
      BaseNeighbours(r.config, r.extra);
  engine::WhatIfOptimizer& opt = env.optimizer;
  const int64_t start = opt.num_calls();
  const common::StatusOr<std::vector<double>> plain =
      opt.TryWorkloadCosts(r.workload, configs);
  const int64_t plain_calls = opt.num_calls() - start;
  const common::StatusOr<std::vector<double>> based =
      opt.TryWorkloadCosts(r.workload, configs, {}, &r.config);
  const int64_t based_calls = opt.num_calls() - start - plain_calls;
  if (!plain.ok() || !based.ok()) {
    return common::StrFormat(
        "batch failed: plain %s, base-relative %s",
        plain.status().ToString().c_str(), based.status().ToString().c_str());
  }
  for (size_t c = 0; c < configs.size(); ++c) {
    if ((*plain)[c] != (*based)[c]) {
      return common::StrFormat(
          "config %zu of %zu: base-relative total %.17g, plain total %.17g "
          "(must be bit-identical)",
          c, configs.size(), (*based)[c], (*plain)[c]);
    }
  }
  const int64_t nq = static_cast<int64_t>(r.workload.queries.size());
  if (based_calls > plain_calls + nq) {
    return common::StrFormat(
        "base-relative batch made %lld what-if calls, plain batch %lld "
        "(at most %lld base items more allowed)",
        static_cast<long long>(based_calls),
        static_cast<long long>(plain_calls), static_cast<long long>(nq));
  }
  return std::nullopt;
}

// One row per oracle, in enum order: the single list every name lookup and
// AllOracles() walks.
struct OracleEntry {
  OracleId id;
  const char* name;
};

constexpr OracleEntry kOracles[] = {
    {OracleId::kAddIndexMonotone, "add-index-monotone"},
    {OracleId::kSupersetMonotone, "superset-monotone"},
    {OracleId::kParallelDeterminism, "parallel-determinism"},
    {OracleId::kCacheCoherence, "cache-coherence"},
    {OracleId::kPerturbationBudget, "perturbation-budget"},
    {OracleId::kAdvisorContract, "advisor-contract"},
    {OracleId::kEpisodeDeterminism, "episode-determinism"},
    {OracleId::kRegretSanity, "regret-sanity"},
    {OracleId::kStatsBudget, "stats-budget"},
    {OracleId::kNnKernelEquivalence, "nn-kernel-equivalence"},
    {OracleId::kNnGruEquivalence, "nn-gru-equivalence"},
    {OracleId::kGbdtSplitEquivalence, "gbdt-split-equivalence"},
    {OracleId::kWhatIfBaseEquivalence, "whatif-base-equivalence"},
};
static_assert([] {
  for (size_t i = 1; i < std::size(kOracles); ++i) {
    if (kOracles[i - 1].id >= kOracles[i].id) return false;
  }
  return true;
}());

}  // namespace

const char* OracleName(OracleId id) {
  for (const OracleEntry& e : kOracles) {
    if (e.id == id) return e.name;
  }
  return "?";
}

std::optional<OracleId> OracleFromName(std::string_view name) {
  for (const OracleEntry& e : kOracles) {
    if (name == e.name) return e.id;
  }
  return std::nullopt;
}

std::vector<OracleId> AllOracles() {
  std::vector<OracleId> out;
  for (const OracleEntry& e : kOracles) out.push_back(e.id);
  return out;
}

const char* AdvisorShortName(int advisor) {
  switch (((advisor % kNumAdvisors) + kNumAdvisors) % kNumAdvisors) {
    case 0: return "extend";
    case 1: return "db2advis";
    case 2: return "autoadmin";
    case 3: return "drop";
    case 4: return "relaxation";
    default: return "dta";
  }
}

OracleEnv::OracleEnv(const catalog::Schema& schema_in)
    : schema(&schema_in),
      vocab(schema_in),
      optimizer(schema_in),
      pool1(1),
      pool4(4),
      pool8(8) {}

std::optional<std::string> CheckReproducer(OracleId id, OracleEnv& env,
                                           const Reproducer& r) {
  if (r.workload.empty()) return std::nullopt;
  switch (id) {
    case OracleId::kAddIndexMonotone:
    case OracleId::kSupersetMonotone:
      return CheckMonotone(env, r);
    case OracleId::kParallelDeterminism:
      return CheckParallelDeterminism(env, r);
    case OracleId::kCacheCoherence:
      return CheckCacheCoherence(env, r);
    case OracleId::kPerturbationBudget:
      return CheckPerturbationBudget(env, r);
    case OracleId::kAdvisorContract:
      return CheckAdvisorContract(env, r);
    case OracleId::kEpisodeDeterminism:
      return CheckEpisodeDeterminism(env, r);
    case OracleId::kRegretSanity:
      return CheckRegretSanity(env, r);
    case OracleId::kStatsBudget:
      return CheckStatsBudget(env, r);
    case OracleId::kNnKernelEquivalence:
      return CheckNnKernelEquivalence(r.walk_seed, r.epsilon);
    case OracleId::kNnGruEquivalence:
      return CheckNnGruEquivalence(r.walk_seed, r.epsilon);
    case OracleId::kGbdtSplitEquivalence:
      return CheckGbdtSplitEquivalence(r.walk_seed, r.epsilon);
    case OracleId::kWhatIfBaseEquivalence:
      return CheckWhatIfBaseEquivalence(env, r);
  }
  return std::nullopt;
}

std::optional<OracleFailure> RunOracle(OracleId id, OracleEnv& env,
                                       uint64_t seed, int case_index) {
  CaseGen gen(env.vocab,
              CaseGen::StreamSeed(seed, case_index, static_cast<int>(id)));
  Reproducer r;
  switch (id) {
    case OracleId::kAddIndexMonotone: {
      sql::Query q = gen.Query();
      r.workload.queries.push_back(workload::WorkloadQuery{q, 1.0});
      r.config = gen.RandomConfigFor(r.workload, 3);
      r.extra.push_back(gen.RandomIndexFor(q));
      break;
    }
    case OracleId::kSupersetMonotone: {
      sql::Query q = gen.Query();
      r.workload.queries.push_back(workload::WorkloadQuery{q, 1.0});
      r.config = gen.RandomConfigFor(r.workload, 3);
      int k = static_cast<int>(gen.rng().UniformInt(1, 3));
      for (int i = 0; i < k; ++i) r.extra.push_back(gen.RandomIndexFor(q));
      break;
    }
    case OracleId::kParallelDeterminism: {
      r.workload = gen.SmallWorkload(2, 4);
      r.config = gen.RandomConfigFor(r.workload, 3);
      const sql::Query& q0 = r.workload.queries[0].query;
      r.extra.push_back(gen.RandomIndexFor(q0));
      break;
    }
    case OracleId::kCacheCoherence: {
      sql::Query q = gen.Query();
      r.workload.queries.push_back(workload::WorkloadQuery{q, 1.0});
      r.config = gen.RandomConfigFor(r.workload, 3);
      r.extra.push_back(gen.RandomIndexFor(q));
      break;
    }
    case OracleId::kPerturbationBudget: {
      sql::Query q = gen.Query();
      r.workload.queries.push_back(workload::WorkloadQuery{q, 1.0});
      r.constraint = static_cast<PerturbationConstraint>(
          gen.rng().UniformInt(0, 2));
      r.epsilon = static_cast<int>(gen.rng().UniformInt(0, 6));
      r.walk_seed = gen.rng().engine()();
      break;
    }
    case OracleId::kAdvisorContract: {
      r.workload = gen.SmallWorkload(2, 4);
      r.advisor = case_index % kNumAdvisors;
      double fraction = gen.rng().Uniform(0.05, 0.6);
      r.storage_budget = static_cast<int64_t>(
          static_cast<double>(env.schema->DataSizeBytes()) * fraction);
      r.max_indexes = gen.rng().Bernoulli(0.5)
                          ? static_cast<int>(gen.rng().UniformInt(1, 3))
                          : 0;
      break;
    }
    case OracleId::kEpisodeDeterminism:
    case OracleId::kRegretSanity: {
      r.workload = gen.SmallWorkload(2, 3);
      r.advisor = case_index % kNumAdvisors;
      r.epsilon = static_cast<int>(gen.rng().UniformInt(1, 4));  // episodes
      r.walk_seed = gen.rng().engine()();  // episode-stream seed
      r.storage_budget = static_cast<int64_t>(
          static_cast<double>(env.schema->DataSizeBytes()) *
          gen.rng().Uniform(0.1, 0.6));
      break;
    }
    case OracleId::kStatsBudget: {
      r.workload = gen.SmallWorkload(2, 3);
      r.config = gen.RandomConfigFor(r.workload, 3);
      // L1 budget = 0.25 * epsilon; epsilon 0 probes the identity boundary.
      r.epsilon = static_cast<int>(gen.rng().UniformInt(0, 4));
      break;
    }
    case OracleId::kNnKernelEquivalence: {
      // The workload is unused by the check but keeps the reproducer
      // shrinkable through the generic non-empty-workload guard; the
      // shrinker's budget pass shortens the tape.
      sql::Query q = gen.Query();
      r.workload.queries.push_back(workload::WorkloadQuery{q, 1.0});
      r.epsilon = static_cast<int>(gen.rng().UniformInt(1, 24));  // ops
      r.walk_seed = gen.rng().engine()();  // tape seed
      break;
    }
    case OracleId::kNnGruEquivalence: {
      // As above; the budget pass drops steps.
      sql::Query q = gen.Query();
      r.workload.queries.push_back(workload::WorkloadQuery{q, 1.0});
      r.epsilon = static_cast<int>(gen.rng().UniformInt(1, 6));  // steps
      r.walk_seed = gen.rng().engine()();  // tape seed
      break;
    }
    case OracleId::kGbdtSplitEquivalence: {
      // As above; the budget pass drops trees, down to the single tree.
      sql::Query q = gen.Query();
      r.workload.queries.push_back(workload::WorkloadQuery{q, 1.0});
      r.epsilon = static_cast<int>(gen.rng().UniformInt(0, 12));  // trees
      r.walk_seed = gen.rng().engine()();  // data seed
      break;
    }
    case OracleId::kWhatIfBaseEquivalence: {
      // Multi-table queries, a random base over their columns, extras for
      // random queries of the workload, and one index on a random table of
      // the schema, which often no query reads.
      r.workload = gen.SmallWorkload(2, 4);
      r.config = gen.RandomConfigFor(r.workload, 3);
      const int last = static_cast<int>(r.workload.queries.size()) - 1;
      const int k = static_cast<int>(gen.rng().UniformInt(1, 3));
      for (int i = 0; i < k; ++i) {
        const size_t q = static_cast<size_t>(gen.rng().UniformInt(0, last));
        r.extra.push_back(gen.RandomIndexFor(r.workload.queries[q].query));
      }
      const catalog::Schema& schema = *env.schema;
      const int any_column =
          static_cast<int>(gen.rng().UniformInt(0, schema.num_columns() - 1));
      const int table = schema.ColumnFromGlobalIndex(any_column).table;
      std::vector<catalog::ColumnId> columns;
      for (size_t c = 0; c < schema.table(table).columns.size(); ++c) {
        columns.push_back(catalog::ColumnId{table, static_cast<int>(c)});
      }
      r.extra.push_back(gen.RandomIndex(columns));
      break;
    }
  }
  std::optional<std::string> message = CheckReproducer(id, env, r);
  if (!message.has_value()) return std::nullopt;
  OracleFailure failure;
  failure.oracle = id;
  failure.message = *std::move(message);
  failure.repro = std::move(r);
  return failure;
}

std::string DescribeReproducer(OracleId id, const OracleEnv& env,
                               const Reproducer& r) {
  const catalog::Schema& schema = *env.schema;
  std::string out;
  for (size_t i = 0; i < r.workload.queries.size(); ++i) {
    out += common::StrFormat(
        "query[%zu]: %s\n", i,
        sql::ToSql(r.workload.queries[i].query, schema).c_str());
  }
  out += "config: " + r.config.ToString(schema) + "\n";
  for (size_t i = 0; i < r.extra.size(); ++i) {
    out += common::StrFormat("extra[%zu]: %s\n", i,
                             engine::IndexName(r.extra[i], schema).c_str());
  }
  if (id == OracleId::kPerturbationBudget) {
    out += common::StrFormat(
        "constraint: %s epsilon=%d walk_seed=%llu\n",
        ::trap::trap::ConstraintName(r.constraint), r.epsilon,
        static_cast<unsigned long long>(r.walk_seed));
  }
  if (id == OracleId::kAdvisorContract) {
    out += common::StrFormat(
        "advisor: %s storage_budget=%lld max_indexes=%d\n",
        AdvisorShortName(r.advisor),
        static_cast<long long>(r.storage_budget), r.max_indexes);
  }
  if (id == OracleId::kEpisodeDeterminism || id == OracleId::kRegretSanity) {
    out += common::StrFormat(
        "advisor: %s episodes=%d stream_seed=%llu storage_budget=%lld\n",
        AdvisorShortName(r.advisor), DriftEpisodes(r),
        static_cast<unsigned long long>(r.walk_seed),
        static_cast<long long>(r.storage_budget));
  }
  if (id == OracleId::kStatsBudget) {
    out += common::StrFormat("stats l1_budget: %.17g\n", 0.25 * r.epsilon);
  }
  if (id == OracleId::kNnKernelEquivalence) {
    out += common::StrFormat("tape: ops=%d seed=%llu\n", r.epsilon,
                             static_cast<unsigned long long>(r.walk_seed));
  }
  if (id == OracleId::kNnGruEquivalence) {
    out += common::StrFormat("gru chain: steps=%d seed=%llu\n", r.epsilon,
                             static_cast<unsigned long long>(r.walk_seed));
  }
  if (id == OracleId::kGbdtSplitEquivalence) {
    out += common::StrFormat("gbdt: trees=%d seed=%llu\n", r.epsilon,
                             static_cast<unsigned long long>(r.walk_seed));
  }
  if (id == OracleId::kWhatIfBaseEquivalence) {
    out += common::StrFormat(
        "base-relative batch: %zu configurations around config\n",
        BaseNeighbours(r.config, r.extra).size());
  }
  return out;
}

}  // namespace trap::proptest
