#include "advisor/heuristic_advisors.h"

#include <algorithm>
#include <map>
#include <optional>
#include <set>

#include "advisor/candidates.h"
#include "obs/obs.h"

namespace trap::advisor {
namespace {

using common::EvalContext;
using common::Status;
using common::StatusOr;
using engine::Index;
using engine::IndexConfig;
using engine::WhatIfOptimizer;
using workload::Workload;

// The base of the isolated-benefit ablation's batches: each probe there is a
// single index on its own.
const IndexConfig kNoIndexes;

// Candidates that could ever fit the constraint on their own.
std::vector<Index> FeasibleCandidates(std::vector<Index> candidates,
                                      const TuningConstraint& constraint,
                                      const catalog::Schema& schema) {
  std::vector<Index> out;
  for (Index& i : candidates) {
    if (constraint.storage_budget_bytes <= 0 ||
        engine::IndexSizeBytes(i, schema) <= constraint.storage_budget_bytes) {
      out.push_back(std::move(i));
    }
  }
  return out;
}

// Greedy best configuration for a single query: repeatedly add the candidate
// with the largest cost reduction, up to `max_indexes` indexes. Each round
// probes every remaining candidate in one what-if batch.
StatusOr<IndexConfig> BestConfigForQuery(const WhatIfOptimizer& optimizer,
                                         const sql::Query& q,
                                         const std::vector<Index>& candidates,
                                         int max_indexes,
                                         const EvalContext& ctx) {
  IndexConfig config;
  TRAP_ASSIGN_OR_RETURN(double current, optimizer.TryQueryCost(q, config, ctx));
  for (int round = 0; round < max_indexes; ++round) {
    std::vector<const Index*> probed;
    std::vector<IndexConfig> nexts;
    for (const Index& cand : candidates) {
      if (config.Contains(cand)) continue;
      if (cand.table() < 0) continue;
      IndexConfig next = config;
      next.Add(cand);
      probed.push_back(&cand);
      nexts.push_back(std::move(next));
    }
    TRAP_ASSIGN_OR_RETURN(std::vector<double> costs,
                          optimizer.TryQueryCosts(q, nexts, ctx));
    const Index* best = nullptr;
    double best_cost = current;
    for (size_t i = 0; i < probed.size(); ++i) {
      if (costs[i] < best_cost - 1e-9) {
        best_cost = costs[i];
        best = probed[i];
      }
    }
    if (best == nullptr) break;
    config.Add(*best);
    current = best_cost;
  }
  return config;
}

// ---------------------------------------------------------------------------
// Extend
// ---------------------------------------------------------------------------

class ExtendAdvisor : public IndexAdvisor {
 public:
  ExtendAdvisor(const WhatIfOptimizer& optimizer, HeuristicOptions options)
      : optimizer_(&optimizer), options_(options) {}

  std::string name() const override { return "Extend"; }

  StatusOr<IndexConfig> TryRecommend(const Workload& w,
                                     const TuningConstraint& constraint,
                                     const EvalContext& ctx) override {
    TRAP_RETURN_IF_ERROR(EnterRecommend(name(), w, ctx));
    const catalog::Schema& schema = optimizer_->SchemaFor(ctx);
    std::vector<Index> singles =
        FeasibleCandidates(SingleColumnCandidates(w), constraint, schema);
    std::vector<IndexableColumn> columns = IndexableColumns(w);

    IndexConfig config;
    TRAP_ASSIGN_OR_RETURN(double base_cost,
                          optimizer_->TryWorkloadCost(w, IndexConfig(), ctx));
    double current = base_cost;

    // Pre-computed isolated benefits for the w/o-interaction ablation.
    std::map<uint64_t, double> isolated_benefit;
    auto isolated = [&](const Index& i) -> StatusOr<double> {
      IndexConfig only;
      only.Add(i);
      uint64_t key = only.Fingerprint();
      auto it = isolated_benefit.find(key);
      if (it != isolated_benefit.end()) return it->second;
      TRAP_ASSIGN_OR_RETURN(double cost,
                            optimizer_->TryWorkloadCost(w, only, ctx));
      double b = base_cost - cost;
      isolated_benefit.emplace(key, b);
      return b;
    };

    for (uint64_t round = 0;; ++round) {
      TRAP_RETURN_IF_ERROR(ctx.CheckContinue());
      counters_.rounds->Add();
      obs::TraceSpan round_span(ctx, "advisor.round", round);
      const EvalContext& rctx = round_span.ctx();
      // Enumerate legal moves first, then cost every resulting
      // configuration in one what-if batch relative to the current
      // configuration; the selection below scans the results in
      // enumeration order, so the chosen move is identical to a
      // one-at-a-time loop.
      struct Move {
        Index add;               // index to add
        Index remove;            // replaced index (empty columns = none)
        double extra = 1.0;      // storage delta, bytes (>= 1)
      };
      std::vector<Move> moves;
      std::vector<IndexConfig> nexts;

      auto consider = [&](const Index& add, const Index* remove) {
        IndexConfig next = config;
        if (remove != nullptr) next.Remove(*remove);
        if (!FitsConstraint(next, add, constraint, schema)) return;
        double extra = static_cast<double>(engine::IndexSizeBytes(add, schema));
        if (remove != nullptr) {
          extra -= static_cast<double>(engine::IndexSizeBytes(*remove, schema));
        }
        extra = std::max(extra, 1.0);
        next.Add(add);
        moves.push_back(Move{add, remove != nullptr ? *remove : Index{}, extra});
        nexts.push_back(std::move(next));
      };

      for (const Index& cand : singles) {
        if (!config.Contains(cand)) consider(cand, nullptr);
      }
      if (options_.multi_column) {
        // Extension step: append one attribute to a selected index.
        for (const Index& sel : config.indexes()) {
          if (sel.NumColumns() >= options_.max_index_width) continue;
          for (const IndexableColumn& ic : columns) {
            if (ic.column.table != sel.table()) continue;
            if (std::find(sel.columns.begin(), sel.columns.end(), ic.column) !=
                sel.columns.end()) {
              continue;
            }
            Index extended = sel;
            extended.columns.push_back(ic.column);
            consider(extended, &sel);
          }
        }
      }

      std::vector<double> move_costs;
      if (options_.consider_interaction) {
        counters_.whatif_items->Add(
            static_cast<int64_t>(nexts.size() * w.queries.size()));
        TRAP_ASSIGN_OR_RETURN(
            move_costs, optimizer_->TryWorkloadCosts(w, nexts, rctx, &config));
      }

      std::optional<size_t> best;
      double best_ratio = 0.0;
      double best_new_cost = 0.0;
      for (size_t i = 0; i < moves.size(); ++i) {
        double benefit, new_cost;
        if (options_.consider_interaction) {
          new_cost = move_costs[i];
          benefit = current - new_cost;
        } else {
          TRAP_ASSIGN_OR_RETURN(double add_benefit, isolated(moves[i].add));
          double removed_benefit = 0.0;
          if (!moves[i].remove.columns.empty()) {
            TRAP_ASSIGN_OR_RETURN(removed_benefit, isolated(moves[i].remove));
          }
          benefit = add_benefit - removed_benefit;
          new_cost = current - benefit;
        }
        double ratio = benefit / moves[i].extra;
        if (benefit > 1e-9 && (!best.has_value() || ratio > best_ratio)) {
          best = i;
          best_ratio = ratio;
          best_new_cost = new_cost;
        }
      }
      if (!best.has_value()) break;
      const Move& chosen = moves[*best];
      if (!chosen.remove.columns.empty()) config.Remove(chosen.remove);
      config.Add(chosen.add);
      if (options_.consider_interaction) {
        current = best_new_cost;
      } else {
        TRAP_ASSIGN_OR_RETURN(current,
                              optimizer_->TryWorkloadCost(w, config, rctx));
      }
    }
    return config;
  }

 private:
  const WhatIfOptimizer* optimizer_;
  HeuristicOptions options_;
  obs::AdvisorCounters counters_ = obs::AdvisorCounters::For("Extend");
};

// ---------------------------------------------------------------------------
// DB2Advis
// ---------------------------------------------------------------------------

class Db2Advisor : public IndexAdvisor {
 public:
  Db2Advisor(const WhatIfOptimizer& optimizer, HeuristicOptions options)
      : optimizer_(&optimizer), options_(options) {}

  std::string name() const override { return "DB2Advis"; }

  StatusOr<IndexConfig> TryRecommend(const Workload& w,
                                     const TuningConstraint& constraint,
                                     const EvalContext& ctx) override {
    TRAP_RETURN_IF_ERROR(EnterRecommend(name(), w, ctx));
    const catalog::Schema& schema = optimizer_->SchemaFor(ctx);
    std::vector<Index> candidates = FeasibleCandidates(
        AllCandidates(w, schema, options_.multi_column,
                      options_.max_index_width),
        constraint, schema);
    // One-time what-if evaluation with ALL candidates hypothetically built.
    counters_.rounds->Add();
    counters_.whatif_items->Add(static_cast<int64_t>(w.queries.size()));
    IndexConfig all(candidates);
    std::map<uint64_t, double> benefit;  // per-index fingerprint
    auto fp = [](const Index& i) {
      IndexConfig c;
      c.Add(i);
      return c.Fingerprint();
    };
    // Plan every query, then merge the benefit attributions in query order.
    // Statuses are pre-filled kCancelled so queries skipped once ctx.cancel
    // trips stay accounted for; the first error in query order wins.
    struct QueryShare {
      double improvement = 0.0;
      std::set<uint64_t> used;
    };
    std::vector<QueryShare> shares(w.queries.size());
    std::vector<Status> statuses(
        w.queries.size(),
        Status::Cancelled("skipped: evaluation cancelled"));
    for (size_t qi = 0; qi < w.queries.size(); ++qi) {
      if (ctx.cancel != nullptr &&
          (ctx.cancel->cancelled() || ctx.cancel->expired())) {
        break;
      }
      const workload::WorkloadQuery& wq = w.queries[qi];
      StatusOr<double> base =
          optimizer_->TryQueryCost(wq.query, IndexConfig(), ctx);
      if (!base.ok()) {
        statuses[qi] = base.status();
        continue;
      }
      std::unique_ptr<engine::PlanNode> plan =
          optimizer_->Plan(wq.query, all, ctx);
      shares[qi].improvement = std::max(0.0, *base - plan->cost) * wq.weight;
      std::vector<const engine::PlanNode*> nodes;
      engine::CollectNodes(*plan, &nodes);
      for (const engine::PlanNode* n : nodes) {
        if (n->index != nullptr) shares[qi].used.insert(fp(*n->index));
      }
      statuses[qi] = Status::Ok();
    }
    for (const Status& s : statuses) TRAP_RETURN_IF_ERROR(s);
    for (const QueryShare& share : shares) {
      if (share.used.empty()) continue;
      for (uint64_t u : share.used) {
        benefit[u] += share.improvement / static_cast<double>(share.used.size());
      }
    }
    // Greedy knapsack by benefit-per-storage, no re-evaluation.
    std::stable_sort(candidates.begin(), candidates.end(),
                     [&](const Index& a, const Index& b) {
                       double ba = benefit.count(fp(a)) ? benefit.at(fp(a)) : 0.0;
                       double bb = benefit.count(fp(b)) ? benefit.at(fp(b)) : 0.0;
                       return ba / static_cast<double>(engine::IndexSizeBytes(a, schema)) >
                              bb / static_cast<double>(engine::IndexSizeBytes(b, schema));
                     });
    IndexConfig config;
    for (const Index& cand : candidates) {
      double b = benefit.count(fp(cand)) ? benefit.at(fp(cand)) : 0.0;
      if (b <= 1e-9) continue;
      if (FitsConstraint(config, cand, constraint, schema)) config.Add(cand);
    }
    return config;
  }

 private:
  const WhatIfOptimizer* optimizer_;
  HeuristicOptions options_;
  obs::AdvisorCounters counters_ = obs::AdvisorCounters::For("DB2Advis");
};

// ---------------------------------------------------------------------------
// AutoAdmin
// ---------------------------------------------------------------------------

class AutoAdminAdvisor : public IndexAdvisor {
 public:
  AutoAdminAdvisor(const WhatIfOptimizer& optimizer, HeuristicOptions options)
      : optimizer_(&optimizer), options_(options) {}

  std::string name() const override { return "AutoAdmin"; }

  StatusOr<IndexConfig> TryRecommend(const Workload& w,
                                     const TuningConstraint& constraint,
                                     const EvalContext& ctx) override {
    TRAP_RETURN_IF_ERROR(EnterRecommend(name(), w, ctx));
    const catalog::Schema& schema = optimizer_->SchemaFor(ctx);
    // Phase 1: candidate selection — the best configuration per query.
    std::set<Index> seeds;
    for (const workload::WorkloadQuery& wq : w.queries) {
      workload::Workload single;
      single.queries.push_back(wq);
      std::vector<Index> per_query = FeasibleCandidates(
          AllCandidates(single, schema, options_.multi_column,
                        options_.max_index_width),
          constraint, schema);
      TRAP_ASSIGN_OR_RETURN(
          IndexConfig best,
          BestConfigForQuery(*optimizer_, wq.query, per_query,
                             /*max_indexes=*/2, ctx));
      for (const Index& i : best.indexes()) seeds.insert(i);
    }
    std::vector<Index> candidates(seeds.begin(), seeds.end());

    // Phase 2: greedy enumeration over the workload.
    IndexConfig config;
    TRAP_ASSIGN_OR_RETURN(double base_cost,
                          optimizer_->TryWorkloadCost(w, config, ctx));
    double current = base_cost;
    int limit = constraint.max_indexes > 0 ? constraint.max_indexes
                                           : static_cast<int>(candidates.size());
    for (int round = 0; round < limit; ++round) {
      TRAP_RETURN_IF_ERROR(ctx.CheckContinue());
      counters_.rounds->Add();
      obs::TraceSpan round_span(ctx, "advisor.round",
                                static_cast<uint64_t>(round));
      const EvalContext& rctx = round_span.ctx();
      // Probe every fitting candidate in one what-if batch relative to the
      // configuration each probe extends (the current one, or the empty one
      // for isolated benefits), then pick the winner scanning the results
      // in candidate order (identical to a one-at-a-time loop).
      std::vector<const Index*> probed;
      std::vector<IndexConfig> evals;
      for (const Index& cand : candidates) {
        if (!FitsConstraint(config, cand, constraint, schema)) continue;
        probed.push_back(&cand);
        if (options_.consider_interaction) {
          IndexConfig next = config;
          next.Add(cand);
          evals.push_back(std::move(next));
        } else {
          IndexConfig only;
          only.Add(cand);
          evals.push_back(std::move(only));
        }
      }
      counters_.whatif_items->Add(
          static_cast<int64_t>(evals.size() * w.queries.size()));
      TRAP_ASSIGN_OR_RETURN(
          std::vector<double> eval_costs,
          optimizer_->TryWorkloadCosts(
              w, evals, rctx,
              options_.consider_interaction ? &config : &kNoIndexes));
      const Index* best = nullptr;
      double best_cost = current;
      for (size_t i = 0; i < probed.size(); ++i) {
        double cost = options_.consider_interaction
                          ? eval_costs[i]
                          : current - (base_cost - eval_costs[i]);
        if (cost < best_cost - 1e-9) {
          best_cost = cost;
          best = probed[i];
        }
      }
      if (best == nullptr) break;
      config.Add(*best);
      if (options_.consider_interaction) {
        current = best_cost;
      } else {
        TRAP_ASSIGN_OR_RETURN(current,
                              optimizer_->TryWorkloadCost(w, config, rctx));
      }
    }
    return config;
  }

 private:
  const WhatIfOptimizer* optimizer_;
  HeuristicOptions options_;
  obs::AdvisorCounters counters_ = obs::AdvisorCounters::For("AutoAdmin");
};

// ---------------------------------------------------------------------------
// Drop
// ---------------------------------------------------------------------------

class DropAdvisor : public IndexAdvisor {
 public:
  DropAdvisor(const WhatIfOptimizer& optimizer, HeuristicOptions options)
      : optimizer_(&optimizer), options_(options) {}

  std::string name() const override { return "Drop"; }

  StatusOr<IndexConfig> TryRecommend(const Workload& w,
                                     const TuningConstraint& constraint,
                                     const EvalContext& ctx) override {
    TRAP_RETURN_IF_ERROR(EnterRecommend(name(), w, ctx));
    const catalog::Schema& schema = optimizer_->SchemaFor(ctx);
    std::vector<Index> candidates = FeasibleCandidates(
        options_.multi_column
            ? AllCandidates(w, schema, true, options_.max_index_width)
            : SingleColumnCandidates(w),
        constraint, schema);
    IndexConfig config(candidates);
    TRAP_ASSIGN_OR_RETURN(double base_cost,
                          optimizer_->TryWorkloadCost(w, IndexConfig(), ctx));

    auto over_constraint = [&]() {
      if (constraint.max_indexes > 0 && config.size() > constraint.max_indexes) {
        return true;
      }
      return constraint.storage_budget_bytes > 0 &&
             config.TotalSizeBytes(schema) > constraint.storage_budget_bytes;
    };

    uint64_t round = 0;
    while (config.size() > 0 && over_constraint()) {
      TRAP_RETURN_IF_ERROR(ctx.CheckContinue());
      counters_.rounds->Add();
      obs::TraceSpan round_span(ctx, "advisor.round", round++);
      const EvalContext& rctx = round_span.ctx();
      // One what-if batch over every drop candidate per round, relative to
      // the current configuration (or the empty one for isolated
      // benefits).
      std::vector<IndexConfig> evals;
      evals.reserve(static_cast<size_t>(config.size()));
      for (const Index& i : config.indexes()) {
        if (options_.consider_interaction) {
          IndexConfig next = config;
          next.Remove(i);
          evals.push_back(std::move(next));
        } else {
          IndexConfig only;
          only.Add(i);
          evals.push_back(std::move(only));
        }
      }
      counters_.whatif_items->Add(
          static_cast<int64_t>(evals.size() * w.queries.size()));
      TRAP_ASSIGN_OR_RETURN(
          std::vector<double> eval_costs,
          optimizer_->TryWorkloadCosts(
              w, evals, rctx,
              options_.consider_interaction ? &config : &kNoIndexes));
      const Index* victim = nullptr;
      double best_cost = 0.0;
      for (size_t k = 0; k < evals.size(); ++k) {
        // Smaller isolated benefit -> cheaper to drop; encode as cost.
        double cost = options_.consider_interaction
                          ? eval_costs[k]
                          : base_cost - eval_costs[k];
        if (victim == nullptr || cost < best_cost) {
          best_cost = cost;
          victim = &config.indexes()[k];
        }
      }
      Index to_remove = *victim;
      config.Remove(to_remove);
    }
    // Final pruning: drop indexes that provide no benefit at all. Costing
    // every removal in one batch relative to the current configuration and
    // taking the first useless index picks the victim a one-at-a-time loop
    // stopping at the first match would.
    while (true) {
      TRAP_RETURN_IF_ERROR(ctx.CheckContinue());
      counters_.rounds->Add();
      obs::TraceSpan round_span(ctx, "advisor.round", round++);
      const EvalContext& rctx = round_span.ctx();
      TRAP_ASSIGN_OR_RETURN(double current,
                            optimizer_->TryWorkloadCost(w, config, rctx));
      std::vector<IndexConfig> evals;
      evals.reserve(static_cast<size_t>(config.size()));
      for (const Index& i : config.indexes()) {
        IndexConfig next = config;
        next.Remove(i);
        evals.push_back(std::move(next));
      }
      counters_.whatif_items->Add(
          static_cast<int64_t>((evals.size() + 1) * w.queries.size()));
      TRAP_ASSIGN_OR_RETURN(
          std::vector<double> eval_costs,
          optimizer_->TryWorkloadCosts(w, evals, rctx, &config));
      const Index* useless = nullptr;
      for (size_t k = 0; k < evals.size(); ++k) {
        if (eval_costs[k] <= current + 1e-9) {
          useless = &config.indexes()[k];
          break;
        }
      }
      if (useless == nullptr) break;
      Index to_remove = *useless;
      config.Remove(to_remove);
    }
    return config;
  }

 private:
  const WhatIfOptimizer* optimizer_;
  HeuristicOptions options_;
  obs::AdvisorCounters counters_ = obs::AdvisorCounters::For("Drop");
};

// ---------------------------------------------------------------------------
// Relaxation
// ---------------------------------------------------------------------------

class RelaxationAdvisor : public IndexAdvisor {
 public:
  RelaxationAdvisor(const WhatIfOptimizer& optimizer, HeuristicOptions options)
      : optimizer_(&optimizer), options_(options) {}

  std::string name() const override { return "Relaxation"; }

  StatusOr<IndexConfig> TryRecommend(const Workload& w,
                                     const TuningConstraint& constraint,
                                     const EvalContext& ctx) override {
    TRAP_RETURN_IF_ERROR(EnterRecommend(name(), w, ctx));
    const catalog::Schema& schema = optimizer_->SchemaFor(ctx);
    // Start from the union of per-query best configurations.
    std::set<Index> seeds;
    for (const workload::WorkloadQuery& wq : w.queries) {
      workload::Workload single;
      single.queries.push_back(wq);
      std::vector<Index> per_query =
          AllCandidates(single, schema, options_.multi_column,
                        options_.max_index_width);
      TRAP_ASSIGN_OR_RETURN(
          IndexConfig best,
          BestConfigForQuery(*optimizer_, wq.query, per_query, 2, ctx));
      for (const Index& i : best.indexes()) seeds.insert(i);
    }
    IndexConfig config(std::vector<Index>(seeds.begin(), seeds.end()));

    auto storage = [&]() { return config.TotalSizeBytes(schema); };
    auto over = [&]() {
      return (constraint.storage_budget_bytes > 0 &&
              storage() > constraint.storage_budget_bytes) ||
             (constraint.max_indexes > 0 &&
              config.size() > constraint.max_indexes);
    };

    TRAP_ASSIGN_OR_RETURN(double current,
                          optimizer_->TryWorkloadCost(w, config, ctx));
    uint64_t round = 0;
    while (config.size() > 0 && over()) {
      TRAP_RETURN_IF_ERROR(ctx.CheckContinue());
      counters_.rounds->Add();
      obs::TraceSpan round_span(ctx, "advisor.round", round++);
      const EvalContext& rctx = round_span.ctx();
      // Collect every legal relaxation, cost them in one what-if batch
      // relative to the current configuration, then select scanning in
      // enumeration order (same winner as one-at-a-time consider() calls).
      std::vector<IndexConfig> relaxations;
      std::vector<int64_t> saved_bytes;
      auto consider = [&](IndexConfig next) {
        int64_t saved = storage() - next.TotalSizeBytes(schema);
        if (saved <= 0 && constraint.max_indexes == 0) return;
        if (next.size() >= config.size() && constraint.max_indexes > 0 &&
            config.size() > constraint.max_indexes) {
          return;  // must shrink the count when over the count constraint
        }
        relaxations.push_back(std::move(next));
        saved_bytes.push_back(saved);
      };
      for (const Index& i : config.indexes()) {
        // Removal.
        IndexConfig removed = config;
        removed.Remove(i);
        consider(removed);
        // Prefix narrowing.
        if (i.NumColumns() > 1) {
          IndexConfig narrowed = config;
          narrowed.Remove(i);
          Index prefix = i;
          prefix.columns.pop_back();
          narrowed.Add(prefix);
          consider(narrowed);
        }
        // Merging with another index on the same table.
        for (const Index& j : config.indexes()) {
          if (i == j || i.table() != j.table()) continue;
          Index merged = i;
          for (catalog::ColumnId c : j.columns) {
            if (std::find(merged.columns.begin(), merged.columns.end(), c) ==
                merged.columns.end()) {
              merged.columns.push_back(c);
            }
          }
          if (merged.NumColumns() > options_.max_index_width) continue;
          IndexConfig mergedcfg = config;
          mergedcfg.Remove(i);
          mergedcfg.Remove(j);
          mergedcfg.Add(merged);
          consider(mergedcfg);
        }
      }
      counters_.whatif_items->Add(
          static_cast<int64_t>(relaxations.size() * w.queries.size()));
      TRAP_ASSIGN_OR_RETURN(
          std::vector<double> relax_costs,
          optimizer_->TryWorkloadCosts(w, relaxations, rctx, &config));
      std::optional<size_t> best;
      double best_score = 0.0;
      for (size_t k = 0; k < relaxations.size(); ++k) {
        double penalty = relax_costs[k] - current;
        double score = penalty / std::max<double>(
                                     1.0, static_cast<double>(saved_bytes[k]));
        if (!best.has_value() || score < best_score) {
          best = k;
          best_score = score;
        }
      }
      if (!best.has_value()) break;
      config = relaxations[*best];
      current = relax_costs[*best];
    }
    return config;
  }

 private:
  const WhatIfOptimizer* optimizer_;
  HeuristicOptions options_;
  obs::AdvisorCounters counters_ = obs::AdvisorCounters::For("Relaxation");
};

// ---------------------------------------------------------------------------
// DTA (anytime)
// ---------------------------------------------------------------------------

class DtaAdvisor : public IndexAdvisor {
 public:
  DtaAdvisor(const WhatIfOptimizer& optimizer, HeuristicOptions options)
      : optimizer_(&optimizer), options_(options) {}

  std::string name() const override { return "DTA"; }

  StatusOr<IndexConfig> TryRecommend(const Workload& w,
                                     const TuningConstraint& constraint,
                                     const EvalContext& ctx) override {
    TRAP_RETURN_IF_ERROR(EnterRecommend(name(), w, ctx));
    const catalog::Schema& schema = optimizer_->SchemaFor(ctx);
    constexpr int kEvaluationBudget = 4000;  // anytime bound on what-if calls
    int evaluations = 0;

    std::vector<Index> candidates = FeasibleCandidates(
        AllCandidates(w, schema, options_.multi_column,
                      options_.max_index_width),
        constraint, schema);
    // Seed with per-query winners so good multi-column indexes surface early.
    std::set<Index> priority;
    for (const workload::WorkloadQuery& wq : w.queries) {
      workload::Workload single;
      single.queries.push_back(wq);
      TRAP_ASSIGN_OR_RETURN(
          IndexConfig best,
          BestConfigForQuery(
              *optimizer_, wq.query,
              FeasibleCandidates(AllCandidates(single, schema,
                                               options_.multi_column,
                                               options_.max_index_width),
                                 constraint, schema),
              1, ctx));
      for (const Index& i : best.indexes()) priority.insert(i);
    }
    std::stable_sort(candidates.begin(), candidates.end(),
                     [&](const Index& a, const Index& b) {
                       return priority.count(a) > priority.count(b);
                     });

    IndexConfig config;
    TRAP_ASSIGN_OR_RETURN(double base_cost,
                          optimizer_->TryWorkloadCost(w, config, ctx));
    double current = base_cost;
    // Greedy additions. Each round costs the first budget-many fitting
    // candidates in one what-if batch relative to the configuration each
    // probe extends -- the same prefix a one-at-a-time loop would have
    // evaluated before exhausting the anytime budget.
    uint64_t round = 0;
    while (evaluations < kEvaluationBudget) {
      TRAP_RETURN_IF_ERROR(ctx.CheckContinue());
      counters_.rounds->Add();
      obs::TraceSpan round_span(ctx, "advisor.round", round++);
      const EvalContext& rctx = round_span.ctx();
      std::vector<const Index*> probed;
      std::vector<IndexConfig> evals;
      for (const Index& cand : candidates) {
        if (!FitsConstraint(config, cand, constraint, schema)) continue;
        if (evaluations + static_cast<int>(probed.size()) >=
            kEvaluationBudget) {
          break;
        }
        probed.push_back(&cand);
        if (options_.consider_interaction) {
          IndexConfig next = config;
          next.Add(cand);
          evals.push_back(std::move(next));
        } else {
          IndexConfig only;
          only.Add(cand);
          evals.push_back(std::move(only));
        }
      }
      counters_.whatif_items->Add(
          static_cast<int64_t>(evals.size() * w.queries.size()));
      TRAP_ASSIGN_OR_RETURN(
          std::vector<double> eval_costs,
          optimizer_->TryWorkloadCosts(
              w, evals, rctx,
              options_.consider_interaction ? &config : &kNoIndexes));
      evaluations += static_cast<int>(probed.size());
      const Index* best = nullptr;
      double best_ratio = 0.0;
      double best_cost = current;
      for (size_t k = 0; k < probed.size(); ++k) {
        double cost = options_.consider_interaction
                          ? eval_costs[k]
                          : current - (base_cost - eval_costs[k]);
        double ratio =
            (current - cost) /
            static_cast<double>(engine::IndexSizeBytes(*probed[k], schema));
        if (current - cost > 1e-9 && ratio > best_ratio) {
          best_ratio = ratio;
          best_cost = cost;
          best = probed[k];
        }
      }
      if (best == nullptr) break;
      config.Add(*best);
      if (options_.consider_interaction) {
        current = best_cost;
      } else {
        TRAP_ASSIGN_OR_RETURN(current,
                              optimizer_->TryWorkloadCost(w, config, rctx));
      }
    }
    // One anytime swap pass. Each selected index's fitting swaps, capped
    // at the remaining budget, are costed in one batch relative to the
    // current configuration; scanning them in candidate order takes the
    // first improving swap and counts the evaluations a one-at-a-time loop
    // would have made up to it.
    for (const Index& sel : std::vector<Index>(config.indexes())) {
      if (evaluations >= kEvaluationBudget) break;
      std::vector<IndexConfig> swaps;
      for (const Index& cand : candidates) {
        if (evaluations + static_cast<int>(swaps.size()) >=
            kEvaluationBudget) {
          break;
        }
        if (config.Contains(cand)) continue;
        IndexConfig next = config;
        next.Remove(sel);
        if (!FitsConstraint(next, cand, constraint, schema)) continue;
        next.Add(cand);
        swaps.push_back(std::move(next));
      }
      if (swaps.empty()) continue;
      TRAP_ASSIGN_OR_RETURN(
          std::vector<double> swap_costs,
          optimizer_->TryWorkloadCosts(w, swaps, ctx, &config));
      for (size_t k = 0; k < swaps.size(); ++k) {
        ++evaluations;
        if (swap_costs[k] < current - 1e-9) {
          config = std::move(swaps[k]);
          current = swap_costs[k];
          break;
        }
      }
    }
    return config;
  }

 private:
  const WhatIfOptimizer* optimizer_;
  HeuristicOptions options_;
  obs::AdvisorCounters counters_ = obs::AdvisorCounters::For("DTA");
};

}  // namespace

std::unique_ptr<IndexAdvisor> MakeExtend(const WhatIfOptimizer& optimizer,
                                         HeuristicOptions options) {
  return std::make_unique<ExtendAdvisor>(optimizer, options);
}
std::unique_ptr<IndexAdvisor> MakeDb2Advis(const WhatIfOptimizer& optimizer,
                                           HeuristicOptions options) {
  return std::make_unique<Db2Advisor>(optimizer, options);
}
std::unique_ptr<IndexAdvisor> MakeAutoAdmin(const WhatIfOptimizer& optimizer,
                                            HeuristicOptions options) {
  return std::make_unique<AutoAdminAdvisor>(optimizer, options);
}
std::unique_ptr<IndexAdvisor> MakeDrop(const WhatIfOptimizer& optimizer,
                                       HeuristicOptions options) {
  return std::make_unique<DropAdvisor>(optimizer, options);
}
std::unique_ptr<IndexAdvisor> MakeRelaxation(const WhatIfOptimizer& optimizer,
                                             HeuristicOptions options) {
  return std::make_unique<RelaxationAdvisor>(optimizer, options);
}
std::unique_ptr<IndexAdvisor> MakeDta(const WhatIfOptimizer& optimizer,
                                      HeuristicOptions options) {
  return std::make_unique<DtaAdvisor>(optimizer, options);
}

}  // namespace trap::advisor
