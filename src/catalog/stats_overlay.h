#ifndef TRAP_CATALOG_STATS_OVERLAY_H_
#define TRAP_CATALOG_STATS_OVERLAY_H_

#include <cstdint>
#include <map>
#include <vector>

#include "catalog/schema.h"

namespace trap::catalog {

// Replacement statistics for one column. The statistics-only catalog models
// a column's data distribution as (num_distinct, min/max domain, skew);
// these four fields are the "histogram" every selectivity estimate derives
// from, so shifting them is how drift scenarios model data-distribution
// change without a row store.
struct ColumnStats {
  int64_t num_distinct = 1;
  double min_value = 0.0;
  double max_value = 1.0;
  double skew = 0.0;

  friend bool operator==(const ColumnStats&, const ColumnStats&) = default;
};

// The stats currently recorded for `column`.
ColumnStats StatsOf(const Column& column);

// A copy-on-read view of "the database after data shift": per-column
// statistic overrides, per-table row-count overrides, and tables appended
// mid-run (schema growth). An overlay never mutates the Schema it is applied
// to -- episodes see shifted statistics while every other consumer of the
// shared catalog keeps reading the frozen base -- and two overlays with the
// same content always produce the same Fingerprint(), which the what-if
// engine mixes into its shape-cache keys as the *stats epoch* so a shape
// compiled under one distribution can never cost a probe made under
// another.
//
// Appended tables are indexed after the base schema's tables, in insertion
// order: the k-th AddTable() call becomes table index
// base.num_tables() + k under Apply(). Column overrides may target base or
// appended tables. Join edges are never touched (the join graph is the
// immutable backbone, as for query perturbation).
class StatsOverlay {
 public:
  void SetColumnStats(ColumnId id, const ColumnStats& stats);
  void SetTableRows(int table, int64_t num_rows);
  void AddTable(Table table);

  bool empty() const {
    return column_stats_.empty() && table_rows_.empty() &&
           added_tables_.empty();
  }

  // Stable content fingerprint: 0 iff empty() (the base epoch), nonzero and
  // deterministic across runs otherwise.
  uint64_t Fingerprint() const;

  // Materializes the overlay over `base`: appended tables first, then row
  // and column overrides. Aborts (programming error) on an override naming
  // a table or column that exists in neither `base` nor the appended set.
  Schema Apply(const Schema& base) const;

  const std::map<ColumnId, ColumnStats>& column_stats() const {
    return column_stats_;
  }
  const std::map<int, int64_t>& table_rows() const { return table_rows_; }
  const std::vector<Table>& added_tables() const { return added_tables_; }

 private:
  std::map<ColumnId, ColumnStats> column_stats_;  // ordered: stable folds
  std::map<int, int64_t> table_rows_;
  std::vector<Table> added_tables_;
};

}  // namespace trap::catalog

#endif  // TRAP_CATALOG_STATS_OVERLAY_H_
