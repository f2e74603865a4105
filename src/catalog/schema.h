#ifndef TRAP_CATALOG_SCHEMA_H_
#define TRAP_CATALOG_SCHEMA_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/check.h"

namespace trap::catalog {

// Identifies a column as (table index, column index) within a Schema.
struct ColumnId {
  int table = -1;
  int column = -1;

  friend bool operator==(const ColumnId&, const ColumnId&) = default;
  friend auto operator<=>(const ColumnId&, const ColumnId&) = default;
};

enum class ColumnType { kInt, kDouble, kString };

// Statistics-only description of a column. The library models data as
// statistics (there is no row store): cost and selectivity estimation, value
// sampling for predicate literals, and index size estimation all derive from
// these fields.
struct Column {
  std::string name;
  ColumnType type = ColumnType::kInt;
  int width_bytes = 8;
  int64_t num_distinct = 1;
  double min_value = 0.0;  // numeric domain (string columns use ordinal codes)
  double max_value = 1.0;
  double skew = 0.0;  // 0 = uniform; >0 = Zipf-like concentration
};

struct Table {
  std::string name;
  int64_t num_rows = 0;
  std::vector<Column> columns;
};

// An equi-join edge of the schema's join graph (typically a FK -> PK link).
// Join predicates in queries are restricted to these edges, and the
// perturbation framework never modifies them (Section III of the paper).
struct JoinEdge {
  ColumnId left;
  ColumnId right;
};

// A database schema with per-column statistics and a join graph.
class Schema {
 public:
  Schema(std::string name, std::vector<Table> tables,
         std::vector<JoinEdge> join_edges);

  const std::string& name() const { return name_; }
  int num_tables() const { return static_cast<int>(tables_.size()); }
  const Table& table(int t) const {
    TRAP_CHECK(t >= 0 && t < num_tables());
    return tables_[static_cast<size_t>(t)];
  }
  const std::vector<Table>& tables() const { return tables_; }
  const std::vector<JoinEdge>& join_edges() const { return join_edges_; }

  const Column& column(ColumnId id) const {
    const Table& t = table(id.table);
    TRAP_CHECK(id.column >= 0 &&
               id.column < static_cast<int>(t.columns.size()));
    return t.columns[static_cast<size_t>(id.column)];
  }

  // Total number of columns across all tables.
  int num_columns() const { return num_columns_; }

  // Dense index of a column in [0, num_columns()); stable across runs.
  int GlobalColumnIndex(ColumnId id) const;
  ColumnId ColumnFromGlobalIndex(int index) const;

  // "table.column" for diagnostics and SQL printing.
  std::string QualifiedName(ColumnId id) const;

  std::optional<int> FindTable(const std::string& name) const;
  std::optional<ColumnId> FindColumn(const std::string& table_name,
                                     const std::string& column_name) const;

  // Sum over tables of rows * row width, in bytes. Used to size storage
  // budgets ("half of the dataset size" in the paper's setup).
  int64_t DataSizeBytes() const;

 private:
  std::string name_;
  std::vector<Table> tables_;
  std::vector<JoinEdge> join_edges_;
  std::vector<int> table_column_offset_;  // prefix sums for global indices
  int num_columns_ = 0;
};

}  // namespace trap::catalog

#endif  // TRAP_CATALOG_SCHEMA_H_
