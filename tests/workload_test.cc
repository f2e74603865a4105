#include <gtest/gtest.h>

#include <set>

#include "catalog/datasets.h"
#include "engine/what_if.h"
#include "sql/tokenizer.h"
#include "workload/generator.h"

namespace trap::workload {
namespace {

using catalog::MakeTpcH;
using catalog::Schema;

class WorkloadTest : public ::testing::Test {
 protected:
  WorkloadTest() : schema_(MakeTpcH()), vocab_(schema_, 8) {}
  Schema schema_;
  sql::Vocabulary vocab_;
};

TEST_F(WorkloadTest, GeneratedQueriesAreValid) {
  QueryGenerator gen(vocab_, GeneratorOptions{}, 17);
  for (int i = 0; i < 200; ++i) {
    sql::Query q = gen.Generate();
    std::string err;
    EXPECT_TRUE(sql::ValidateQuery(q, schema_, &err))
        << err << "\n" << sql::ToSql(q, schema_);
  }
}

TEST_F(WorkloadTest, GeneratedQueriesTokenizeRoundTrip) {
  QueryGenerator gen(vocab_, GeneratorOptions{}, 23);
  for (int i = 0; i < 200; ++i) {
    sql::Query q = gen.Generate();
    std::optional<sql::Query> back =
        sql::FromTokens(sql::ToTokens(q, vocab_), vocab_);
    ASSERT_TRUE(back.has_value()) << sql::ToSql(q, schema_);
    EXPECT_EQ(*back, q) << sql::ToSql(q, schema_);
  }
}

TEST_F(WorkloadTest, GeneratorIsDeterministicPerSeed) {
  QueryGenerator a(vocab_, GeneratorOptions{}, 5);
  QueryGenerator b(vocab_, GeneratorOptions{}, 5);
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(a.Generate(), b.Generate());
  }
}

TEST_F(WorkloadTest, GeneratorRespectsTableBounds) {
  GeneratorOptions opt;
  opt.min_tables = 2;
  opt.max_tables = 3;
  QueryGenerator gen(vocab_, opt, 31);
  for (int i = 0; i < 100; ++i) {
    sql::Query q = gen.Generate();
    EXPECT_GE(q.tables.size(), 2u);
    EXPECT_LE(q.tables.size(), 3u);
    EXPECT_GE(q.joins.size(), q.tables.size() - 1);
  }
}

TEST_F(WorkloadTest, GeneratorProducesDiverseStructures) {
  QueryGenerator gen(vocab_, GeneratorOptions{}, 41);
  int with_agg = 0, with_order = 0, with_or = 0, multi_table = 0;
  for (int i = 0; i < 300; ++i) {
    sql::Query q = gen.Generate();
    if (!q.group_by.empty()) ++with_agg;
    if (!q.order_by.empty()) ++with_order;
    if (q.conjunction == sql::Conjunction::kOr) ++with_or;
    if (q.tables.size() > 1) ++multi_table;
  }
  EXPECT_GT(with_agg, 20);
  EXPECT_GT(with_order, 40);
  EXPECT_GT(with_or, 0);
  EXPECT_GT(multi_table, 100);
}

TEST_F(WorkloadTest, SampleWorkloadWithoutReplacement) {
  QueryGenerator gen(vocab_, GeneratorOptions{}, 53);
  std::vector<sql::Query> pool = gen.GeneratePool(30);
  common::Rng rng(1);
  Workload w = SampleWorkload(pool, 10, rng);
  EXPECT_EQ(w.size(), 10);
  std::set<uint64_t> fps;
  for (const WorkloadQuery& wq : w.queries) {
    EXPECT_EQ(wq.weight, 1.0);
    fps.insert(sql::Fingerprint(wq.query));
  }
  // Queries are drawn without replacement (distinct pool entries; pool may
  // itself contain duplicates, so allow minor collisions).
  EXPECT_GE(fps.size(), 9u);
}

TEST_F(WorkloadTest, SampleWorkloadLargerThanPool) {
  QueryGenerator gen(vocab_, GeneratorOptions{}, 59);
  std::vector<sql::Query> pool = gen.GeneratePool(5);
  common::Rng rng(2);
  Workload w = SampleWorkload(pool, 12, rng);
  EXPECT_EQ(w.size(), 12);
}

TEST_F(WorkloadTest, WorkloadCostIsWeightedSum) {
  engine::WhatIfOptimizer optimizer(schema_);
  QueryGenerator gen(vocab_, GeneratorOptions{}, 61);
  Workload w;
  sql::Query q = gen.Generate();
  w.queries.push_back(WorkloadQuery{q, 2.0});
  engine::IndexConfig none;
  EXPECT_DOUBLE_EQ(optimizer.TryWorkloadCost(w, none).value(),
                   2.0 * optimizer.TryQueryCost(q, none).value());
}

TEST_F(WorkloadTest, TemplateSignatureIgnoresLiterals) {
  QueryGenerator gen(vocab_, GeneratorOptions{}, 67);
  sql::Query q = gen.Generate();
  while (q.filters.empty()) q = gen.Generate();
  sql::Query variant = q;
  variant.filters[0].value =
      vocab_.BucketValue(variant.filters[0].column,
                         (vocab_.NearestBucket(variant.filters[0].column,
                                               variant.filters[0].value) +
                          1) % vocab_.values_per_column());
  EXPECT_EQ(TemplateSignature(q), TemplateSignature(variant));
  // But changing a payload column changes the template.
  sql::Query other = q;
  other.order_by = q.order_by.empty()
                       ? std::vector<catalog::ColumnId>{q.select[0].column}
                       : std::vector<catalog::ColumnId>{};
  EXPECT_NE(TemplateSignature(q), TemplateSignature(other));
}

TEST_F(WorkloadTest, CountTemplatesBelowQueryCountWhenPerturbingValues) {
  QueryGenerator gen(vocab_, GeneratorOptions{}, 71);
  std::vector<sql::Query> queries;
  for (int i = 0; i < 20; ++i) {
    sql::Query q = gen.Generate();
    queries.push_back(q);
    // Add 4 value-perturbed variants of each query.
    for (int v = 0; v < 4; ++v) {
      sql::Query var = q;
      if (!var.filters.empty()) {
        var.filters[0].value = vocab_.BucketValue(
            var.filters[0].column, v % vocab_.values_per_column());
      }
      queries.push_back(var);
    }
  }
  EXPECT_LE(CountTemplates(queries), 20 + 2);
  EXPECT_EQ(queries.size(), 100u);
}

TEST_F(WorkloadTest, GeneratorWorksOnAllSchemas) {
  for (const Schema& s :
       {catalog::MakeTpcDs(), catalog::MakeTransaction(),
        catalog::MakeLargeSynthetic(809, 3)}) {
    sql::Vocabulary v(s, 8);
    QueryGenerator gen(v, GeneratorOptions{}, 73);
    for (int i = 0; i < 50; ++i) {
      sql::Query q = gen.Generate();
      EXPECT_TRUE(sql::ValidateQuery(q, s)) << s.name();
    }
  }
}

}  // namespace
}  // namespace trap::workload
