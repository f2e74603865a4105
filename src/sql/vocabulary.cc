#include "sql/vocabulary.h"

#include <atomic>
#include <cmath>

#include "common/stats.h"

namespace trap::sql {

namespace {
constexpr int kNumSpecials = 4;
constexpr int kNumReserved = 6;
constexpr int kNumAggregators = 5;  // count, sum, avg, min, max
constexpr int kNumOperators = 6;
constexpr int kNumConjunctions = 2;
}  // namespace

Vocabulary::Vocabulary(const catalog::Schema& schema, int values_per_column)
    : schema_(&schema),
      id_([] {
        static std::atomic<uint64_t> next{1};
        return next.fetch_add(1, std::memory_order_relaxed);
      }()),
      values_per_column_(values_per_column) {
  TRAP_CHECK(values_per_column_ >= 2);
  special_base_ = 0;
  reserved_base_ = special_base_ + kNumSpecials;
  agg_base_ = reserved_base_ + kNumReserved;
  op_base_ = agg_base_ + kNumAggregators;
  conj_base_ = op_base_ + kNumOperators;
  table_base_ = conj_base_ + kNumConjunctions;
  column_base_ = table_base_ + schema.num_tables();
  value_base_ = column_base_ + schema.num_columns();
  size_ = value_base_ + schema.num_columns() * values_per_column_;
}

int Vocabulary::TokenToId(const Token& t) const {
  switch (t.type) {
    case TokenType::kSpecial:
      return special_base_ + static_cast<int>(t.special);
    case TokenType::kReserved:
      return reserved_base_ + static_cast<int>(t.reserved);
    case TokenType::kAggregator: {
      int a = static_cast<int>(t.agg);
      TRAP_CHECK(a >= 1 && a <= kNumAggregators);  // kNone not tokenizable
      return agg_base_ + (a - 1);
    }
    case TokenType::kOperator:
      return op_base_ + static_cast<int>(t.op);
    case TokenType::kConjunction:
      return conj_base_ + static_cast<int>(t.conjunction);
    case TokenType::kTable:
      TRAP_CHECK(t.table >= 0 && t.table < schema_->num_tables());
      return table_base_ + t.table;
    case TokenType::kColumn:
      return column_base_ + schema_->GlobalColumnIndex(t.column);
    case TokenType::kValue: {
      TRAP_CHECK(t.value_bucket >= 0 && t.value_bucket < values_per_column_);
      return value_base_ +
             schema_->GlobalColumnIndex(t.column) * values_per_column_ +
             t.value_bucket;
    }
  }
  TRAP_CHECK(false);
  return -1;
}

Token Vocabulary::IdToToken(int id) const {
  TRAP_CHECK(id >= 0 && id < size_);
  if (id < reserved_base_) {
    return Token::Special(static_cast<SpecialToken>(id - special_base_));
  }
  if (id < agg_base_) {
    return Token::Reserved(static_cast<ReservedWord>(id - reserved_base_));
  }
  if (id < op_base_) {
    return Token::Aggregator(static_cast<AggFunc>(id - agg_base_ + 1));
  }
  if (id < conj_base_) {
    return Token::Operator(static_cast<CmpOp>(id - op_base_));
  }
  if (id < table_base_) {
    return Token::Conj(static_cast<Conjunction>(id - conj_base_));
  }
  if (id < column_base_) {
    return Token::Table(id - table_base_);
  }
  if (id < value_base_) {
    return Token::Column(schema_->ColumnFromGlobalIndex(id - column_base_));
  }
  int off = id - value_base_;
  int col_index = off / values_per_column_;
  int bucket = off % values_per_column_;
  return Token::ValueTok(schema_->ColumnFromGlobalIndex(col_index), bucket);
}

int Vocabulary::ColumnTokenId(ColumnId c) const {
  return column_base_ + schema_->GlobalColumnIndex(c);
}

Value Vocabulary::BucketValue(ColumnId c, int bucket) const {
  TRAP_CHECK(bucket >= 0 && bucket < values_per_column_);
  const catalog::Column& col = schema_->column(c);
  double frac = (static_cast<double>(bucket) + 0.5) /
                static_cast<double>(values_per_column_);
  double v = col.min_value + frac * (col.max_value - col.min_value);
  switch (col.type) {
    case catalog::ColumnType::kInt:
      return Value::Int(static_cast<int64_t>(std::llround(v)));
    case catalog::ColumnType::kDouble:
      return Value::Double(v);
    case catalog::ColumnType::kString:
      return Value::StringCode(static_cast<int64_t>(std::llround(v)));
  }
  TRAP_CHECK(false);
  return Value{};
}

int Vocabulary::NearestBucket(ColumnId c, const Value& v) const {
  // Chooses the bucket whose literal is numerically closest. Integer
  // rounding in BucketValue can shift a bucket's literal across the uniform
  // grid (small domains yield duplicate bucket literals), so an arithmetic
  // inversion would not satisfy BucketValue(NearestBucket(x)) == x for
  // bucket literals x; the linear scan over the (small) bucket count does.
  int best = 0;
  double best_dist = std::abs(BucketValue(c, 0).numeric - v.numeric);
  for (int b = 1; b < values_per_column_; ++b) {
    double dist = std::abs(BucketValue(c, b).numeric - v.numeric);
    if (dist < best_dist) {
      best_dist = dist;
      best = b;
    }
  }
  return best;
}

}  // namespace trap::sql
