#include "catalog/schema.h"

namespace trap::catalog {

Schema::Schema(std::string name, std::vector<Table> tables,
               std::vector<JoinEdge> join_edges)
    : name_(std::move(name)),
      tables_(std::move(tables)),
      join_edges_(std::move(join_edges)) {
  table_column_offset_.reserve(tables_.size());
  for (const Table& t : tables_) {
    TRAP_CHECK_MSG(!t.columns.empty(), t.name.c_str());
    TRAP_CHECK(t.num_rows > 0);
    table_column_offset_.push_back(num_columns_);
    num_columns_ += static_cast<int>(t.columns.size());
  }
  for (const JoinEdge& e : join_edges_) {
    // Validates both endpoints.
    (void)column(e.left);
    (void)column(e.right);
    TRAP_CHECK(e.left.table != e.right.table);
  }
}

int Schema::GlobalColumnIndex(ColumnId id) const {
  (void)column(id);  // validate
  return table_column_offset_[static_cast<size_t>(id.table)] + id.column;
}

ColumnId Schema::ColumnFromGlobalIndex(int index) const {
  TRAP_CHECK(index >= 0 && index < num_columns_);
  int t = 0;
  while (t + 1 < num_tables() && table_column_offset_[static_cast<size_t>(t) + 1] <= index) {
    ++t;
  }
  return ColumnId{t, index - table_column_offset_[static_cast<size_t>(t)]};
}

std::string Schema::QualifiedName(ColumnId id) const {
  return table(id.table).name + "." + column(id).name;
}

std::optional<int> Schema::FindTable(const std::string& name) const {
  for (int t = 0; t < num_tables(); ++t) {
    if (tables_[static_cast<size_t>(t)].name == name) return t;
  }
  return std::nullopt;
}

std::optional<ColumnId> Schema::FindColumn(const std::string& table_name,
                                           const std::string& column_name) const {
  std::optional<int> t = FindTable(table_name);
  if (!t.has_value()) return std::nullopt;
  const Table& tab = table(*t);
  for (int c = 0; c < static_cast<int>(tab.columns.size()); ++c) {
    if (tab.columns[static_cast<size_t>(c)].name == column_name) {
      return ColumnId{*t, c};
    }
  }
  return std::nullopt;
}

int64_t Schema::DataSizeBytes() const {
  int64_t total = 0;
  for (const Table& t : tables_) {
    int64_t width = 0;
    for (const Column& c : t.columns) width += c.width_bytes;
    total += width * t.num_rows;
  }
  return total;
}

}  // namespace trap::catalog
