#ifndef TRAP_SQL_VOCABULARY_H_
#define TRAP_SQL_VOCABULARY_H_

#include <cstdint>
#include <vector>

#include "catalog/schema.h"
#include "sql/tokens.h"

namespace trap::sql {

// The global token vocabulary V of Section IV-D, "segmented into several
// regions to reduce the storage cost": specials, reserved words, aggregators,
// operators, conjunctions, tables, columns, and per-column literal buckets.
//
// Literal domains are discretized: each column owns `values_per_column`
// vocabulary entries; bucket k denotes the k-th quantile of the column's
// domain. Both the perturbation agent and the workload generator draw
// literals from these buckets, so tokenization round-trips exactly.
class Vocabulary {
 public:
  Vocabulary(const catalog::Schema& schema, int values_per_column = 8);

  int size() const { return size_; }
  // Process-unique id minted at construction; copies share it. Caches
  // scoped to one vocabulary key on it, not on its address, which a later
  // vocabulary may reuse.
  uint64_t id() const { return id_; }
  int values_per_column() const { return values_per_column_; }
  const catalog::Schema& schema() const { return *schema_; }

  // Token <-> dense id. TokenToId aborts on malformed tokens.
  int TokenToId(const Token& t) const;
  Token IdToToken(int id) const;

  int ColumnTokenId(ColumnId c) const;

  // The literal value denoted by bucket `k` of column `c`.
  Value BucketValue(ColumnId c, int bucket) const;

  // The bucket whose literal is closest to `v` for column `c`.
  int NearestBucket(ColumnId c, const Value& v) const;

 private:
  const catalog::Schema* schema_;
  uint64_t id_;
  int values_per_column_;
  int special_base_ = 0;  // 4 specials
  int reserved_base_ = 0; // 6 reserved words
  int agg_base_ = 0;      // 5 aggregate functions
  int op_base_ = 0;       // 6 comparison operators
  int conj_base_ = 0;     // 2 conjunctions
  int table_base_ = 0;
  int column_base_ = 0;
  int value_base_ = 0;
  int size_ = 0;
};

}  // namespace trap::sql

#endif  // TRAP_SQL_VOCABULARY_H_
