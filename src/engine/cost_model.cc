#include "engine/cost_model.h"

#include <algorithm>
#include <cmath>
#include <set>

#include "common/fault.h"
#include "engine/selectivity.h"

namespace trap::engine {

namespace {

// Result of matching a conjunctive predicate list against an index prefix.
struct PrefixMatch {
  double selectivity = 1.0;  // combined selectivity of matched predicates
  int matched_predicates = 0;
};

bool IsRangeOp(sql::CmpOp op) {
  return op == sql::CmpOp::kLt || op == sql::CmpOp::kLe ||
         op == sql::CmpOp::kGt || op == sql::CmpOp::kGe;
}

// Standard B-tree prefix rule: equality predicates extend the usable prefix;
// the first range-matched column closes it. `<>` never matches; OR
// conjunctions never match (handled by the caller). Selectivities come
// pre-evaluated from the shape, multiplied in the same order as the
// from-scratch path (per index column: the equality match, else every range
// match in predicate order).
PrefixMatch MatchIndexPrefix(const Index& index,
                             const std::vector<PredShape>& preds) {
  PrefixMatch m;
  for (catalog::ColumnId col : index.columns) {
    bool matched_eq = false;
    for (const PredShape& p : preds) {
      if (p.column == col && p.op == sql::CmpOp::kEq) {
        m.selectivity *= p.selectivity;
        ++m.matched_predicates;
        matched_eq = true;
        break;
      }
    }
    if (matched_eq) continue;
    // No break inside: both bounds of an interval may match this column.
    for (const PredShape& p : preds) {
      if (p.column == col && IsRangeOp(p.op)) {
        m.selectivity *= p.selectivity;
        ++m.matched_predicates;
      }
    }
    // A range predicate consumes the final usable column.
    break;
  }
  return m;
}

// Columns of table `t` referenced anywhere in `q`.
std::vector<catalog::ColumnId> ReferencedOnTable(const sql::Query& q, int t) {
  std::vector<catalog::ColumnId> out;
  for (catalog::ColumnId c : q.ReferencedColumns()) {
    if (c.table == t) out.push_back(c);
  }
  return out;
}

bool IndexCovers(const Index& index,
                 const std::vector<catalog::ColumnId>& needed) {
  for (catalog::ColumnId c : needed) {
    if (std::find(index.columns.begin(), index.columns.end(), c) ==
        index.columns.end()) {
      return false;
    }
  }
  return true;
}

// True if `order_by` (restricted to one table) is a prefix of the index.
bool IndexProvidesOrder(const Index& index,
                        const std::vector<catalog::ColumnId>& order_by) {
  if (order_by.empty() || order_by.size() > index.columns.size()) return false;
  for (size_t i = 0; i < order_by.size(); ++i) {
    if (!(index.columns[i] == order_by[i])) return false;
  }
  return true;
}

}  // namespace

CostModel::CostModel(const catalog::Schema& schema, CostParams params)
    : schema_(&schema), params_(params) {}

double CostModel::TablePages(int t) const {
  const catalog::Table& tab = schema_->table(t);
  int64_t width = 0;
  for (const catalog::Column& c : tab.columns) width += c.width_bytes;
  double pages = static_cast<double>(tab.num_rows) *
                 static_cast<double>(width) / params_.page_size_bytes;
  return std::max(1.0, std::ceil(pages));
}

double CostModel::BTreeDescendCost(int64_t rows) const {
  double levels = std::log2(std::max<double>(2.0, static_cast<double>(rows)));
  return levels * params_.cpu_operator_cost * 50.0;
}

double CostModel::SortCost(double card) const {
  double n = std::max(2.0, card);
  return n * std::log2(n) * params_.cpu_operator_cost * 2.0;
}

QueryShape CostModel::ComputeShape(const sql::Query& q) const {
  TRAP_CHECK(!q.tables.empty());
  QueryShape s;
  s.query_fp = sql::Fingerprint(q);
  s.query = q;
  s.sargable_conj = q.conjunction == sql::Conjunction::kAnd;
  // ORDER BY columns, usable for sort avoidance only in single-table plans.
  if (q.tables.size() == 1 && q.group_by.empty()) s.order_cols = q.order_by;

  s.tables.reserve(q.tables.size());
  for (int t : q.tables) {
    const catalog::Table& tab = schema_->table(t);
    TableShape ts;
    ts.table = t;
    ts.rows = static_cast<double>(tab.num_rows);
    for (const sql::Predicate& p : q.filters) {
      if (p.column.table == t) {
        ts.preds.push_back({p.column, p.op, PredicateSelectivity(p, *schema_)});
      }
    }
    double out_sel = TableFilterSelectivity(q, t, *schema_);
    ts.out_card = std::max(1.0, ts.rows * out_sel);
    ts.pages = TablePages(t);
    int n_preds = static_cast<int>(ts.preds.size());
    ts.seq_scan_cost = ts.pages * params_.seq_page_cost +
                       ts.rows * params_.cpu_tuple_cost +
                       ts.rows * n_preds * params_.cpu_operator_cost;
    // Paths that leave the ORDER BY unsatisfied are charged the sort they
    // force, so the selection criterion equals each path's contribution to
    // the final plan cost. Without this, a slightly-cheaper non-ordering
    // index could displace an order-providing one and make the total cost
    // *rise* when an index is added (non-monotone; caught by fuzz oracles).
    ts.sort_penalty = s.order_cols.empty() ? 0.0 : SortCost(ts.out_card);
    ts.btree_descend = BTreeDescendCost(tab.num_rows);
    ts.referenced = ReferencedOnTable(q, t);
    s.tables.push_back(std::move(ts));
  }

  auto table_idx = [&s](int t) {
    for (size_t i = 0; i < s.tables.size(); ++i) {
      if (s.tables[i].table == t) return static_cast<int>(i);
    }
    TRAP_CHECK_MSG(false, "join references a table outside the FROM clause");
    return -1;
  };
  auto filtered_card = [&s, &table_idx](int t) {
    return s.tables[static_cast<size_t>(table_idx(t))].out_card;
  };

  double card;  // running cardinality of the (partial) plan
  if (q.tables.size() == 1) {
    s.start = 0;
    card = s.tables[0].out_card;
  } else {
    // Greedy left-deep join: start from the smallest filtered relation, then
    // repeatedly attach the connected relation with the cheapest join step.
    // Cardinality estimates depend only on per-table filters and NDVs —
    // never on the index configuration — so this whole sequence is computed
    // once per query and reused for every what-if probe. That is also what
    // makes the total plan cost monotone in the index set: indexes only
    // ever lower the cost of an already-chosen join sequence, they cannot
    // steer the greedy search onto a globally worse order.
    int start_table = q.tables[0];
    for (int t : q.tables) {
      if (filtered_card(t) < filtered_card(start_table)) start_table = t;
    }
    s.start = table_idx(start_table);
    card = filtered_card(start_table);

    std::set<int> joined;
    joined.insert(start_table);
    std::vector<sql::JoinPredicate> remaining = q.joins;
    while (joined.size() < q.tables.size()) {
      // Pick the next edge by the smallest estimated join output among the
      // candidate edges (exactly one endpoint joined).
      int best_edge = -1;
      double best_card = 0.0;
      catalog::ColumnId best_inner_key;
      for (size_t e = 0; e < remaining.size(); ++e) {
        const sql::JoinPredicate& j = remaining[e];
        bool left_in = joined.count(j.left.table) > 0;
        bool right_in = joined.count(j.right.table) > 0;
        if (left_in == right_in) continue;
        catalog::ColumnId outer_key = left_in ? j.left : j.right;
        catalog::ColumnId inner_key = left_in ? j.right : j.left;
        int inner_table = inner_key.table;

        double dv_outer = DistinctAfter(filtered_card(outer_key.table),
                                        schema_->column(outer_key));
        double dv_inner = DistinctAfter(filtered_card(inner_table),
                                        schema_->column(inner_key));
        double out_card =
            std::max(1.0, card * filtered_card(inner_table) /
                              std::max(dv_outer, dv_inner));
        if (best_edge < 0 || out_card < best_card) {
          best_edge = static_cast<int>(e);
          best_card = out_card;
          best_inner_key = inner_key;
        }
      }
      TRAP_CHECK_MSG(best_edge >= 0, "join graph disconnected");

      const int inner_table = best_inner_key.table;
      const int inner_idx = table_idx(inner_table);
      const TableShape& inner_ts = s.tables[static_cast<size_t>(inner_idx)];
      JoinStepShape step;
      step.inner = inner_idx;
      step.inner_key = best_inner_key;
      step.out_card = best_card;
      step.matched_per_probe =
          inner_ts.rows / DistinctAfter(inner_ts.rows,
                                        schema_->column(best_inner_key));
      s.join_steps.push_back(step);

      card = best_card;
      joined.insert(inner_table);
      remaining.erase(remaining.begin() + best_edge);
    }
  }

  bool any_agg = std::any_of(
      q.select.begin(), q.select.end(),
      [](const sql::SelectItem& item) { return item.agg != sql::AggFunc::kNone; });
  if (!q.group_by.empty() || any_agg) {
    double groups = 1.0;
    for (catalog::ColumnId c : q.group_by) {
      groups *= DistinctAfter(card, schema_->column(c));
    }
    groups = std::min(groups, card);
    groups = std::max(groups, 1.0);
    s.has_agg = true;
    s.agg_groups = groups;
    card = groups;
  }

  s.needs_sort = !q.order_by.empty();
  if (s.needs_sort) s.final_sort_cost = SortCost(card);
  return s;
}

CostModel::AccessChoice CostModel::ChooseAccess(const QueryShape& shape,
                                                const TableShape& ts,
                                                const IndexConfig& config) const {
  const int n_preds = static_cast<int>(ts.preds.size());
  AccessChoice best;
  best.type = PlanNodeType::kSeqScan;
  best.index = nullptr;
  best.cost = ts.seq_scan_cost;
  best.provides_order = false;
  const double sort_penalty = ts.sort_penalty;
  double best_effective = best.cost + sort_penalty;

  for (const Index& index : config.indexes()) {
    if (index.table() != ts.table) continue;
    PrefixMatch match;
    if (shape.sargable_conj) match = MatchIndexPrefix(index, ts.preds);
    bool provides_order = IndexProvidesOrder(index, shape.order_cols);
    if (match.matched_predicates == 0 && !provides_order) continue;

    double matched_sel =
        match.matched_predicates > 0 ? match.selectivity : 1.0;
    double rows_fetched = std::max(1.0, ts.rows * matched_sel);
    bool covering = IndexCovers(index, ts.referenced);
    double index_width = 16.0;
    for (catalog::ColumnId c : index.columns) {
      index_width += schema_->column(c).width_bytes;
    }
    double index_pages = std::max(
        1.0, std::ceil(ts.rows * index_width / params_.page_size_bytes));

    double cost = ts.btree_descend;
    cost += matched_sel * index_pages * params_.seq_page_cost;
    cost += rows_fetched * params_.cpu_index_tuple_cost;
    cost += rows_fetched * n_preds * params_.cpu_operator_cost;
    PlanNodeType type = PlanNodeType::kIndexOnlyScan;
    if (!covering) {
      type = PlanNodeType::kIndexScan;
      double pages_fetched = std::min(rows_fetched, ts.pages);
      cost += pages_fetched * params_.random_page_cost;
    }
    double effective = cost + (provides_order ? 0.0 : sort_penalty);
    if (effective < best_effective) {
      best_effective = effective;
      best.type = type;
      best.index = &index;
      best.cost = cost;
      best.provides_order = provides_order;
    }
  }
  return best;
}

CostModel::ProbeChoice CostModel::ChooseProbe(const QueryShape& shape,
                                              const JoinStepShape& step,
                                              const IndexConfig& config) const {
  const TableShape& ts = shape.tables[static_cast<size_t>(step.inner)];
  ProbeChoice best;
  for (const Index& index : config.indexes()) {
    if (index.table() != ts.table) continue;
    if (!(index.columns[0] == step.inner_key)) continue;
    bool covering = IndexCovers(index, ts.referenced);
    double per_row = ts.btree_descend;
    per_row += step.matched_per_probe * params_.cpu_index_tuple_cost;
    per_row += step.matched_per_probe * static_cast<double>(ts.preds.size()) *
               params_.cpu_operator_cost;
    if (!covering) {
      per_row += step.matched_per_probe * params_.random_page_cost;
    }
    if (best.index == nullptr || per_row < best.cost_per_row) {
      best.index = &index;
      best.cost_per_row = per_row;
    }
  }
  return best;
}

CostModel::JoinChoice CostModel::ChooseJoin(const QueryShape& shape,
                                            const JoinStepShape& step,
                                            double outer_cost,
                                            double outer_card,
                                            const IndexConfig& config) const {
  const TableShape& ts = shape.tables[static_cast<size_t>(step.inner)];
  JoinChoice choice;
  choice.inner_access = ChooseAccess(shape, ts, config);
  // Cost the step: hash join against the inner's best standalone access
  // path, vs an index nested-loop probe when one is available.
  double hash_cost = outer_cost + choice.inner_access.cost +
                     ts.out_card * params_.cpu_tuple_cost * 2.0 +
                     outer_card * params_.cpu_tuple_cost +
                     step.out_card * params_.cpu_tuple_cost * 0.5;
  choice.cost = hash_cost;
  choice.is_inlj = false;
  ProbeChoice probe = ChooseProbe(shape, step, config);
  if (probe.index != nullptr) {
    double inlj_cost = outer_cost + outer_card * probe.cost_per_row +
                       step.out_card * params_.cpu_tuple_cost;
    if (inlj_cost < hash_cost) {
      choice.cost = inlj_cost;
      choice.is_inlj = true;
      choice.probe_index = probe.index;
    }
  }
  return choice;
}

double CostModel::QueryCost(const QueryShape& shape,
                            const IndexConfig& config) const {
  // The zero-allocation cost kernel: walk the precompiled access/join/agg
  // sequence, consulting the configuration only through ChooseAccess and
  // ChooseProbe. Expressions evaluate in the same order as Plan(), so the
  // result is bit-identical to the plan root's cumulative cost.
  //
  // Invariant relied on by base-relative what-if batches: both choosers
  // skip every index whose table is not the one being accessed, and an
  // IndexConfig is sorted, so two configurations holding the same indexes
  // on the shape's tables yield bit-identical costs here, whatever they
  // hold elsewhere. The fuzz-only invert-benefit fault keeps it: with no
  // index on the shape's tables, cost == base and base + (base - cost) is
  // base exactly. Any new read of `config` must keep this true.
  const TableShape& start = shape.tables[static_cast<size_t>(shape.start)];
  AccessChoice access = ChooseAccess(shape, start, config);
  double cost = access.cost;
  double card = start.out_card;
  bool provides_order = access.provides_order;
  for (const JoinStepShape& step : shape.join_steps) {
    JoinChoice join = ChooseJoin(shape, step, cost, card, config);
    cost = join.cost;
    card = step.out_card;
    provides_order = false;
  }
  if (shape.has_agg) {
    cost = cost + card * params_.cpu_operator_cost * 1.5 +
           shape.agg_groups * params_.cpu_tuple_cost;
    card = shape.agg_groups;
    provides_order = false;
  }
  if (shape.needs_sort && !provides_order) {
    cost = cost + shape.final_sort_cost;
  }
  if (!config.empty() &&
      common::FaultShouldFire(common::FaultSite::kWhatIfInvertBenefit,
                              /*key=*/0)) [[unlikely]] {
    // Armed only by the fuzzing harness (legacy invert_index_benefit, key 0
    // = fires on every consultation when armed): flip the sign of the index
    // benefit so the add-index-monotone oracle must detect and shrink it.
    // The empty-config recursion takes the branch-free path above.
    double base = QueryCost(shape, IndexConfig());
    cost = base + (base - cost);
  }
  return cost;
}

std::unique_ptr<PlanNode> CostModel::Plan(const QueryShape& shape,
                                          const IndexConfig& config) const {
  const TableShape& start = shape.tables[static_cast<size_t>(shape.start)];
  AccessChoice access = ChooseAccess(shape, start, config);
  std::unique_ptr<PlanNode> current = MakeAccessNode(start, access);
  bool provides_order = access.provides_order;

  for (const JoinStepShape& step : shape.join_steps) {
    const TableShape& inner_ts = shape.tables[static_cast<size_t>(step.inner)];
    JoinChoice jc =
        ChooseJoin(shape, step, current->cost, current->cardinality, config);
    auto join = std::make_unique<PlanNode>();  // NOLINT(no-heap-on-hot-path): cold plan path
    join->cardinality = step.out_card;
    join->cost = jc.cost;
    if (jc.is_inlj) {
      join->type = PlanNodeType::kIndexNestedLoopJoin;
      // Inner side shown as an index scan driven by the probe.
      auto inner = std::make_unique<PlanNode>();  // NOLINT(no-heap-on-hot-path): cold plan path
      inner->type = PlanNodeType::kIndexScan;
      inner->table = inner_ts.table;
      inner->index = jc.probe_index;
      inner->cardinality = step.out_card;
      inner->cost = jc.cost - current->cost;
      join->AddChild(std::move(current));
      join->AddChild(std::move(inner));
    } else {
      join->type = PlanNodeType::kHashJoin;
      join->AddChild(std::move(current));
      join->AddChild(MakeAccessNode(inner_ts, jc.inner_access));
    }
    current = std::move(join);
    provides_order = false;
  }

  if (shape.has_agg) {
    auto agg = std::make_unique<PlanNode>();  // NOLINT(no-heap-on-hot-path): cold plan path
    agg->type = PlanNodeType::kHashAggregate;
    agg->cardinality = shape.agg_groups;
    agg->cost = current->cost +
                current->cardinality * params_.cpu_operator_cost * 1.5 +
                shape.agg_groups * params_.cpu_tuple_cost;
    agg->AddChild(std::move(current));
    current = std::move(agg);
    provides_order = false;
  }

  if (shape.needs_sort && !provides_order) {
    auto sort = std::make_unique<PlanNode>();  // NOLINT(no-heap-on-hot-path): cold plan path
    sort->type = PlanNodeType::kSort;
    sort->cardinality = current->cardinality;
    sort->cost = current->cost + shape.final_sort_cost;
    sort->AddChild(std::move(current));
    current = std::move(sort);
  }
  return current;
}

std::unique_ptr<PlanNode> CostModel::MakeAccessNode(const TableShape& ts,
                                                    const AccessChoice& c) const {
  auto node = std::make_unique<PlanNode>();  // NOLINT(no-heap-on-hot-path): cold plan path
  node->type = c.type;
  node->table = ts.table;
  node->index = c.index;
  node->cardinality = ts.out_card;
  node->cost = c.cost;
  return node;
}

std::unique_ptr<PlanNode> CostModel::Plan(const sql::Query& q,
                                          const IndexConfig& config) const {
  return Plan(ComputeShape(q), config);
}

double CostModel::QueryCost(const sql::Query& q,
                            const IndexConfig& config) const {
  return QueryCost(ComputeShape(q), config);
}

}  // namespace trap::engine
