#include "serve/wire.h"

#include <cmath>
#include <limits>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace trap::serve {
namespace {

using common::JsonValue;
using common::Status;
using common::StatusOr;

// Table and column numbers are non-negative ints. Anything else names no
// column of any schema, and a fractional, negative or oversized double
// cannot be cast to int safely.
bool IsIdNumber(const JsonValue& v) {
  return v.kind == JsonValue::Kind::kNumber && v.number_value >= 0.0 &&
         v.number_value <= std::numeric_limits<int>::max() &&
         v.number_value == std::floor(v.number_value);
}

// ColumnId <-> [table, column].
JsonValue EncodeColumnId(catalog::ColumnId id) {
  JsonValue v = JsonValue::Array();
  v.Push(JsonValue::Number(id.table));
  v.Push(JsonValue::Number(id.column));
  return v;
}

StatusOr<catalog::ColumnId> DecodeColumnId(const JsonValue& v) {
  if (v.kind != JsonValue::Kind::kArray || v.items.size() != 2 ||
      !IsIdNumber(v.items[0]) || !IsIdNumber(v.items[1])) {
    return Status::InvalidArgument("column id: want [table, column]");
  }
  catalog::ColumnId id;
  id.table = static_cast<int>(v.items[0].number_value);
  id.column = static_cast<int>(v.items[1].number_value);
  return id;
}

StatusOr<catalog::ColumnId> DecodeColumnIdAt(const JsonValue& obj,
                                             std::string_view key) {
  const JsonValue* v = obj.Find(key);
  if (v == nullptr) {
    return Status::InvalidArgument(std::string("missing field: ") +
                                   std::string(key));
  }
  return DecodeColumnId(*v);
}

// Enums ride as their underlying integer; decoders range-check so a peer
// built against a future enum value is rejected, not misinterpreted.
template <typename EnumT>
StatusOr<EnumT> DecodeEnumAt(const JsonValue& obj, std::string_view key,
                             int max_inclusive) {
  std::optional<std::int64_t> raw = obj.IntAt(key);
  if (!raw.has_value() || *raw < 0 || *raw > max_inclusive) {
    return Status::InvalidArgument(std::string("bad enum field: ") +
                                   std::string(key));
  }
  return static_cast<EnumT>(*raw);
}

JsonValue EncodeValue(const sql::Value& value) {
  JsonValue v = JsonValue::Object();
  v.Set("t", JsonValue::Number(static_cast<int>(value.type)));
  v.Set("v", JsonValue::Number(value.numeric));
  return v;
}

StatusOr<sql::Value> DecodeValue(const JsonValue& v) {
  sql::Value out;
  TRAP_ASSIGN_OR_RETURN(out.type, (DecodeEnumAt<catalog::ColumnType>(
                                      v, "t",
                                      static_cast<int>(
                                          catalog::ColumnType::kString))));
  std::optional<double> num = v.NumberAt("v");
  if (!num.has_value()) return Status::InvalidArgument("value: missing v");
  out.numeric = *num;
  return out;
}

template <typename T, typename DecodeFn>
Status DecodeArrayAt(const JsonValue& obj, std::string_view key,
                     std::vector<T>* out, const DecodeFn& decode) {
  const JsonValue* arr = obj.Find(key);
  if (arr == nullptr || arr->kind != JsonValue::Kind::kArray) {
    return Status::InvalidArgument(std::string("missing array field: ") +
                                   std::string(key));
  }
  out->reserve(arr->items.size());
  for (const JsonValue& item : arr->items) {
    TRAP_ASSIGN_OR_RETURN(T value, decode(item));
    out->push_back(std::move(value));
  }
  return Status::Ok();
}

JsonValue EncodeColumnStats(const catalog::ColumnStats& stats) {
  JsonValue v = JsonValue::Object();
  v.Set("ndv", JsonValue::Number(static_cast<double>(stats.num_distinct)));
  v.Set("min", JsonValue::Number(stats.min_value));
  v.Set("max", JsonValue::Number(stats.max_value));
  v.Set("skew", JsonValue::Number(stats.skew));
  return v;
}

StatusOr<catalog::ColumnStats> DecodeColumnStats(const JsonValue& v) {
  std::optional<std::int64_t> ndv = v.IntAt("ndv");
  std::optional<double> min = v.NumberAt("min");
  std::optional<double> max = v.NumberAt("max");
  std::optional<double> skew = v.NumberAt("skew");
  if (!ndv.has_value() || !min.has_value() || !max.has_value() ||
      !skew.has_value() || *ndv < 1) {
    return Status::InvalidArgument("column stats: bad fields");
  }
  catalog::ColumnStats stats;
  stats.num_distinct = *ndv;
  stats.min_value = *min;
  stats.max_value = *max;
  stats.skew = *skew;
  return stats;
}

JsonValue EncodeTable(const catalog::Table& table) {
  JsonValue v = JsonValue::Object();
  v.Set("name", JsonValue::Str(table.name));
  v.Set("rows", JsonValue::Number(static_cast<double>(table.num_rows)));
  JsonValue columns = JsonValue::Array();
  for (const catalog::Column& c : table.columns) {
    JsonValue col = JsonValue::Object();
    col.Set("name", JsonValue::Str(c.name));
    col.Set("type", JsonValue::Number(static_cast<int>(c.type)));
    col.Set("width", JsonValue::Number(c.width_bytes));
    col.Set("ndv", JsonValue::Number(static_cast<double>(c.num_distinct)));
    col.Set("min", JsonValue::Number(c.min_value));
    col.Set("max", JsonValue::Number(c.max_value));
    col.Set("skew", JsonValue::Number(c.skew));
    columns.Push(std::move(col));
  }
  v.Set("columns", std::move(columns));
  return v;
}

StatusOr<catalog::Table> DecodeTable(const JsonValue& v) {
  catalog::Table table;
  std::optional<std::string> name = v.StringAt("name");
  std::optional<std::int64_t> rows = v.IntAt("rows");
  const JsonValue* columns = v.Find("columns");
  if (!name.has_value() || !rows.has_value() || *rows < 0 ||
      columns == nullptr || columns->kind != JsonValue::Kind::kArray) {
    return Status::InvalidArgument("table: bad fields");
  }
  table.name = *std::move(name);
  table.num_rows = *rows;
  for (const JsonValue& cv : columns->items) {
    catalog::Column c;
    std::optional<std::string> cname = cv.StringAt("name");
    std::optional<std::int64_t> type = cv.IntAt("type");
    std::optional<std::int64_t> width = cv.IntAt("width");
    std::optional<std::int64_t> ndv = cv.IntAt("ndv");
    std::optional<double> min = cv.NumberAt("min");
    std::optional<double> max = cv.NumberAt("max");
    std::optional<double> skew = cv.NumberAt("skew");
    if (!cname.has_value() || !type.has_value() || *type < 0 ||
        *type > static_cast<int>(catalog::ColumnType::kString) ||
        !width.has_value() || *width < 1 || !ndv.has_value() || *ndv < 1 ||
        !min.has_value() || !max.has_value() || !skew.has_value()) {
      return Status::InvalidArgument("table column: bad fields");
    }
    c.name = *std::move(cname);
    c.type = static_cast<catalog::ColumnType>(*type);
    c.width_bytes = static_cast<int>(*width);
    c.num_distinct = *ndv;
    c.min_value = *min;
    c.max_value = *max;
    c.skew = *skew;
    table.columns.push_back(std::move(c));
  }
  return table;
}

}  // namespace

JsonValue EncodeQuery(const sql::Query& q) {
  JsonValue v = JsonValue::Object();
  JsonValue select = JsonValue::Array();
  for (const sql::SelectItem& item : q.select) {
    JsonValue s = JsonValue::Object();
    s.Set("agg", JsonValue::Number(static_cast<int>(item.agg)));
    s.Set("col", EncodeColumnId(item.column));
    select.Push(std::move(s));
  }
  v.Set("select", std::move(select));
  JsonValue tables = JsonValue::Array();
  for (int t : q.tables) tables.Push(JsonValue::Number(t));
  v.Set("tables", std::move(tables));
  JsonValue joins = JsonValue::Array();
  for (const sql::JoinPredicate& j : q.joins) {
    JsonValue jp = JsonValue::Object();
    jp.Set("l", EncodeColumnId(j.left));
    jp.Set("r", EncodeColumnId(j.right));
    joins.Push(std::move(jp));
  }
  v.Set("joins", std::move(joins));
  JsonValue filters = JsonValue::Array();
  for (const sql::Predicate& p : q.filters) {
    JsonValue f = JsonValue::Object();
    f.Set("col", EncodeColumnId(p.column));
    f.Set("op", JsonValue::Number(static_cast<int>(p.op)));
    f.Set("val", EncodeValue(p.value));
    filters.Push(std::move(f));
  }
  v.Set("filters", std::move(filters));
  v.Set("conj", JsonValue::Number(static_cast<int>(q.conjunction)));
  JsonValue group_by = JsonValue::Array();
  for (catalog::ColumnId id : q.group_by) group_by.Push(EncodeColumnId(id));
  v.Set("group_by", std::move(group_by));
  JsonValue order_by = JsonValue::Array();
  for (catalog::ColumnId id : q.order_by) order_by.Push(EncodeColumnId(id));
  v.Set("order_by", std::move(order_by));
  return v;
}

StatusOr<sql::Query> DecodeQuery(const JsonValue& v) {
  if (v.kind != JsonValue::Kind::kObject) {
    return Status::InvalidArgument("query: want an object");
  }
  sql::Query q;
  TRAP_RETURN_IF_ERROR(DecodeArrayAt<sql::SelectItem>(
      v, "select", &q.select,
      [](const JsonValue& s) -> StatusOr<sql::SelectItem> {
        sql::SelectItem item;
        TRAP_ASSIGN_OR_RETURN(item.agg, (DecodeEnumAt<sql::AggFunc>(
                                            s, "agg",
                                            static_cast<int>(
                                                sql::AggFunc::kMax))));
        TRAP_ASSIGN_OR_RETURN(item.column, DecodeColumnIdAt(s, "col"));
        return item;
      }));
  TRAP_RETURN_IF_ERROR(DecodeArrayAt<int>(
      v, "tables", &q.tables, [](const JsonValue& t) -> StatusOr<int> {
        if (!IsIdNumber(t)) {
          return Status::InvalidArgument("tables: want table numbers");
        }
        return static_cast<int>(t.number_value);
      }));
  TRAP_RETURN_IF_ERROR(DecodeArrayAt<sql::JoinPredicate>(
      v, "joins", &q.joins,
      [](const JsonValue& j) -> StatusOr<sql::JoinPredicate> {
        sql::JoinPredicate jp;
        TRAP_ASSIGN_OR_RETURN(jp.left, DecodeColumnIdAt(j, "l"));
        TRAP_ASSIGN_OR_RETURN(jp.right, DecodeColumnIdAt(j, "r"));
        return jp;
      }));
  TRAP_RETURN_IF_ERROR(DecodeArrayAt<sql::Predicate>(
      v, "filters", &q.filters,
      [](const JsonValue& f) -> StatusOr<sql::Predicate> {
        sql::Predicate p;
        TRAP_ASSIGN_OR_RETURN(p.column, DecodeColumnIdAt(f, "col"));
        TRAP_ASSIGN_OR_RETURN(
            p.op, (DecodeEnumAt<sql::CmpOp>(
                      f, "op", static_cast<int>(sql::CmpOp::kGe))));
        const JsonValue* val = f.Find("val");
        if (val == nullptr) {
          return Status::InvalidArgument("filter: missing val");
        }
        TRAP_ASSIGN_OR_RETURN(p.value, DecodeValue(*val));
        return p;
      }));
  TRAP_ASSIGN_OR_RETURN(q.conjunction,
                        (DecodeEnumAt<sql::Conjunction>(
                            v, "conj",
                            static_cast<int>(sql::Conjunction::kOr))));
  TRAP_RETURN_IF_ERROR(
      DecodeArrayAt<catalog::ColumnId>(v, "group_by", &q.group_by,
                                       DecodeColumnId));
  TRAP_RETURN_IF_ERROR(
      DecodeArrayAt<catalog::ColumnId>(v, "order_by", &q.order_by,
                                       DecodeColumnId));
  return q;
}

JsonValue EncodeWorkload(const workload::Workload& w) {
  JsonValue v = JsonValue::Object();
  JsonValue queries = JsonValue::Array();
  for (const workload::WorkloadQuery& wq : w.queries) {
    JsonValue q = JsonValue::Object();
    q.Set("query", EncodeQuery(wq.query));
    q.Set("weight", JsonValue::Number(wq.weight));
    queries.Push(std::move(q));
  }
  v.Set("queries", std::move(queries));
  return v;
}

StatusOr<workload::Workload> DecodeWorkload(const JsonValue& v) {
  if (v.kind != JsonValue::Kind::kObject) {
    return Status::InvalidArgument("workload: want an object");
  }
  workload::Workload w;
  TRAP_RETURN_IF_ERROR(DecodeArrayAt<workload::WorkloadQuery>(
      v, "queries", &w.queries,
      [](const JsonValue& q) -> StatusOr<workload::WorkloadQuery> {
        workload::WorkloadQuery wq;
        const JsonValue* query = q.Find("query");
        if (query == nullptr) {
          return Status::InvalidArgument("workload query: missing query");
        }
        TRAP_ASSIGN_OR_RETURN(wq.query, DecodeQuery(*query));
        std::optional<double> weight = q.NumberAt("weight");
        if (!weight.has_value()) {
          return Status::InvalidArgument("workload query: missing weight");
        }
        wq.weight = *weight;
        return wq;
      }));
  return w;
}

JsonValue EncodeIndexConfig(const engine::IndexConfig& config) {
  JsonValue v = JsonValue::Object();
  JsonValue indexes = JsonValue::Array();
  for (const engine::Index& index : config.indexes()) {
    JsonValue columns = JsonValue::Array();
    for (catalog::ColumnId id : index.columns) {
      columns.Push(EncodeColumnId(id));
    }
    JsonValue i = JsonValue::Object();
    i.Set("columns", std::move(columns));
    indexes.Push(std::move(i));
  }
  v.Set("indexes", std::move(indexes));
  return v;
}

StatusOr<engine::IndexConfig> DecodeIndexConfig(const JsonValue& v) {
  if (v.kind != JsonValue::Kind::kObject) {
    return Status::InvalidArgument("index config: want an object");
  }
  std::vector<engine::Index> indexes;
  TRAP_RETURN_IF_ERROR(DecodeArrayAt<engine::Index>(
      v, "indexes", &indexes,
      [](const JsonValue& i) -> StatusOr<engine::Index> {
        engine::Index index;
        TRAP_RETURN_IF_ERROR(DecodeArrayAt<catalog::ColumnId>(
            i, "columns", &index.columns, DecodeColumnId));
        if (index.columns.empty()) {
          return Status::InvalidArgument("index: empty column list");
        }
        for (catalog::ColumnId id : index.columns) {
          if (id.table != index.columns[0].table) {
            return Status::InvalidArgument(
                "index: columns span multiple tables");
          }
        }
        return index;
      }));
  return engine::IndexConfig(std::move(indexes));
}

JsonValue EncodeConstraint(const advisor::TuningConstraint& constraint) {
  JsonValue v = JsonValue::Object();
  v.Set("storage_budget_bytes",
        JsonValue::Number(
            static_cast<double>(constraint.storage_budget_bytes)));
  v.Set("max_indexes", JsonValue::Number(constraint.max_indexes));
  return v;
}

StatusOr<advisor::TuningConstraint> DecodeConstraint(const JsonValue& v) {
  if (v.kind != JsonValue::Kind::kObject) {
    return Status::InvalidArgument("constraint: want an object");
  }
  advisor::TuningConstraint c;
  std::optional<std::int64_t> storage = v.IntAt("storage_budget_bytes");
  std::optional<std::int64_t> count = v.IntAt("max_indexes");
  if (!storage.has_value() || !count.has_value() || *storage < 0 ||
      *count < 0 || *count > std::numeric_limits<int>::max()) {
    return Status::InvalidArgument("constraint: bad budget fields");
  }
  c.storage_budget_bytes = *storage;
  c.max_indexes = static_cast<int>(*count);
  return c;
}

JsonValue EncodeStatsOverlay(const catalog::StatsOverlay& overlay) {
  JsonValue v = JsonValue::Object();
  JsonValue column_stats = JsonValue::Array();
  for (const auto& [id, stats] : overlay.column_stats()) {
    JsonValue entry = JsonValue::Object();
    entry.Set("col", EncodeColumnId(id));
    entry.Set("stats", EncodeColumnStats(stats));
    column_stats.Push(std::move(entry));
  }
  v.Set("column_stats", std::move(column_stats));
  JsonValue table_rows = JsonValue::Array();
  for (const auto& [table, rows] : overlay.table_rows()) {
    JsonValue entry = JsonValue::Object();
    entry.Set("table", JsonValue::Number(table));
    entry.Set("rows", JsonValue::Number(static_cast<double>(rows)));
    table_rows.Push(std::move(entry));
  }
  v.Set("table_rows", std::move(table_rows));
  JsonValue added_tables = JsonValue::Array();
  for (const catalog::Table& t : overlay.added_tables()) {
    added_tables.Push(EncodeTable(t));
  }
  v.Set("added_tables", std::move(added_tables));
  return v;
}

StatusOr<catalog::StatsOverlay> DecodeStatsOverlay(const JsonValue& v) {
  if (v.kind != JsonValue::Kind::kObject) {
    return Status::InvalidArgument("stats overlay: want an object");
  }
  catalog::StatsOverlay overlay;
  const JsonValue* column_stats = v.Find("column_stats");
  const JsonValue* table_rows = v.Find("table_rows");
  const JsonValue* added_tables = v.Find("added_tables");
  if (column_stats == nullptr ||
      column_stats->kind != JsonValue::Kind::kArray ||
      table_rows == nullptr || table_rows->kind != JsonValue::Kind::kArray ||
      added_tables == nullptr ||
      added_tables->kind != JsonValue::Kind::kArray) {
    return Status::InvalidArgument("stats overlay: missing sections");
  }
  // Added tables first: column overrides may target them, and AddTable
  // assigns indices in insertion order.
  for (const JsonValue& tv : added_tables->items) {
    TRAP_ASSIGN_OR_RETURN(catalog::Table table, DecodeTable(tv));
    overlay.AddTable(std::move(table));
  }
  for (const JsonValue& entry : column_stats->items) {
    TRAP_ASSIGN_OR_RETURN(catalog::ColumnId id, DecodeColumnIdAt(entry, "col"));
    const JsonValue* stats = entry.Find("stats");
    if (stats == nullptr) {
      return Status::InvalidArgument("stats overlay: bad column entry");
    }
    TRAP_ASSIGN_OR_RETURN(catalog::ColumnStats cs, DecodeColumnStats(*stats));
    overlay.SetColumnStats(id, cs);
  }
  for (const JsonValue& entry : table_rows->items) {
    std::optional<std::int64_t> table = entry.IntAt("table");
    std::optional<std::int64_t> rows = entry.IntAt("rows");
    if (!table.has_value() || *table < 0 || !rows.has_value() || *rows < 0) {
      return Status::InvalidArgument("stats overlay: bad table rows entry");
    }
    overlay.SetTableRows(static_cast<int>(*table), *rows);
  }
  return overlay;
}

}  // namespace trap::serve
