#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/engine.h"
#include "obs/profile.h"
#include "reference_executor.h"
#include "sql/binder.h"
#include "sql/parser.h"
#include "util/date.h"
#include "util/rng.h"

namespace levelheaded {
namespace {

using ::levelheaded::testing::ExpectResultsMatch;
using ::levelheaded::testing::ReferenceExecute;

/// A small mixed catalog: a random graph, sparse and dense matrices, a
/// vector, and a miniature TPC-H star schema.
class EngineTest : public ::testing::Test {
 protected:
  static constexpr int kNations = 5;
  static constexpr int kCustomers = 30;
  static constexpr int kSuppliers = 8;
  static constexpr int kOrders = 80;
  static constexpr int kLineitems = 200;
  static constexpr int kMatrixN = 12;

  void SetUp() override {
    Rng rng(20260706);

    {  // Graph edges over a shared "node" domain.
      Table* t = catalog_
                     .CreateTable(TableSchema(
                         "edge",
                         {ColumnSpec::Key("src", ValueType::kInt64, "node"),
                          ColumnSpec::Key("dst", ValueType::kInt64, "node"),
                          ColumnSpec::Annotation("w", ValueType::kDouble)}))
                     .ValueOrDie();
      std::set<std::pair<int, int>> seen;
      while (seen.size() < 60) {
        int a = static_cast<int>(rng.Uniform(15));
        int b = static_cast<int>(rng.Uniform(15));
        if (a == b || !seen.insert({a, b}).second) continue;
        ASSERT_TRUE(t->AppendRow({Value::Int(a), Value::Int(b),
                                  Value::Real(rng.UniformDouble(0, 2))})
                        .ok());
      }
    }
    {  // Sparse matrix over a shared "idx" domain (plus the full domain so
       // dictionaries cover 0..n-1).
      Table* t = catalog_
                     .CreateTable(TableSchema(
                         "m",
                         {ColumnSpec::Key("r", ValueType::kInt64, "idx"),
                          ColumnSpec::Key("c", ValueType::kInt64, "idx"),
                          ColumnSpec::Annotation("v", ValueType::kDouble)}))
                     .ValueOrDie();
      std::set<std::pair<int, int>> seen;
      // Guarantee the full domain appears (diagonal).
      for (int i = 0; i < kMatrixN; ++i) {
        seen.insert({i, i});
        ASSERT_TRUE(t->AppendRow({Value::Int(i), Value::Int(i),
                                  Value::Real(1.0 + i * 0.25)})
                        .ok());
      }
      while (seen.size() < size_t{kMatrixN} * 4) {
        int a = static_cast<int>(rng.Uniform(kMatrixN));
        int b = static_cast<int>(rng.Uniform(kMatrixN));
        if (!seen.insert({a, b}).second) continue;
        ASSERT_TRUE(t->AppendRow({Value::Int(a), Value::Int(b),
                                  Value::Real(rng.UniformDouble(-1, 1))})
                        .ok());
      }
    }
    {  // Dense matrix over the same idx domain.
      Table* t = catalog_
                     .CreateTable(TableSchema(
                         "d",
                         {ColumnSpec::Key("r", ValueType::kInt64, "idx"),
                          ColumnSpec::Key("c", ValueType::kInt64, "idx"),
                          ColumnSpec::Annotation("v", ValueType::kDouble)}))
                     .ValueOrDie();
      for (int i = 0; i < kMatrixN; ++i) {
        for (int j = 0; j < kMatrixN; ++j) {
          ASSERT_TRUE(t->AppendRow({Value::Int(i), Value::Int(j),
                                    Value::Real(rng.UniformDouble(-1, 1))})
                          .ok());
        }
      }
    }
    {  // Dense vector over idx.
      Table* t = catalog_
                     .CreateTable(TableSchema(
                         "vec",
                         {ColumnSpec::Key("i", ValueType::kInt64, "idx"),
                          ColumnSpec::Annotation("val", ValueType::kDouble)}))
                     .ValueOrDie();
      for (int i = 0; i < kMatrixN; ++i) {
        ASSERT_TRUE(
            t->AppendRow({Value::Int(i), Value::Real(rng.UniformDouble())})
                .ok());
      }
    }

    // --- mini TPC-H ---
    const char* kRegionNames[] = {"AFRICA", "ASIA", "EUROPE"};
    const char* kNationNames[] = {"ALGERIA", "CHINA", "FRANCE", "INDIA",
                                  "KENYA"};
    {
      Table* t = catalog_
                     .CreateTable(TableSchema(
                         "region",
                         {ColumnSpec::Key("r_regionkey", ValueType::kInt64,
                                          "regionkey"),
                          ColumnSpec::Annotation("r_name",
                                                 ValueType::kString)}))
                     .ValueOrDie();
      for (int r = 0; r < 3; ++r) {
        ASSERT_TRUE(
            t->AppendRow({Value::Int(r), Value::Str(kRegionNames[r])}).ok());
      }
    }
    {
      Table* t =
          catalog_
              .CreateTable(TableSchema(
                  "nation",
                  {ColumnSpec::Key("n_nationkey", ValueType::kInt64,
                                   "nationkey"),
                   ColumnSpec::Key("n_regionkey", ValueType::kInt64,
                                   "regionkey"),
                   ColumnSpec::Annotation("n_name", ValueType::kString)}))
              .ValueOrDie();
      for (int n = 0; n < kNations; ++n) {
        ASSERT_TRUE(t->AppendRow({Value::Int(n), Value::Int(n % 3),
                                  Value::Str(kNationNames[n])})
                        .ok());
      }
    }
    {
      Table* t =
          catalog_
              .CreateTable(TableSchema(
                  "customer",
                  {ColumnSpec::Key("c_custkey", ValueType::kInt64, "custkey"),
                   ColumnSpec::Key("c_nationkey", ValueType::kInt64,
                                   "nationkey"),
                   ColumnSpec::Annotation("c_acctbal", ValueType::kDouble),
                   ColumnSpec::Annotation("c_mktsegment",
                                          ValueType::kString)}))
              .ValueOrDie();
      const char* segs[] = {"BUILDING", "MACHINERY", "AUTOMOBILE"};
      for (int c = 0; c < kCustomers; ++c) {
        ASSERT_TRUE(
            t->AppendRow({Value::Int(c),
                          Value::Int(static_cast<int>(rng.Uniform(kNations))),
                          Value::Real(rng.UniformDouble(-100, 1000)),
                          Value::Str(segs[rng.Uniform(3)])})
                .ok());
      }
    }
    {
      Table* t =
          catalog_
              .CreateTable(TableSchema(
                  "supplier",
                  {ColumnSpec::Key("s_suppkey", ValueType::kInt64, "suppkey"),
                   ColumnSpec::Key("s_nationkey", ValueType::kInt64,
                                   "nationkey")}))
              .ValueOrDie();
      for (int s = 0; s < kSuppliers; ++s) {
        ASSERT_TRUE(
            t->AppendRow({Value::Int(s), Value::Int(static_cast<int>(
                                             rng.Uniform(kNations)))})
                .ok());
      }
    }
    {
      Table* t =
          catalog_
              .CreateTable(TableSchema(
                  "orders",
                  {ColumnSpec::Key("o_orderkey", ValueType::kInt64,
                                   "orderkey"),
                   ColumnSpec::Key("o_custkey", ValueType::kInt64, "custkey"),
                   ColumnSpec::Annotation("o_orderdate", ValueType::kDate),
                   ColumnSpec::Annotation("o_shippriority",
                                          ValueType::kInt32)}))
              .ValueOrDie();
      const int32_t base = ParseDate("1994-01-01").ValueOrDie();
      for (int o = 0; o < kOrders; ++o) {
        ASSERT_TRUE(
            t->AppendRow({Value::Int(o),
                          Value::Int(static_cast<int>(
                              rng.Uniform(kCustomers))),
                          Value::Int(base + rng.UniformInt(0, 4 * 365)),
                          Value::Int(rng.UniformInt(0, 1))})
                .ok());
      }
    }
    {
      Table* t =
          catalog_
              .CreateTable(TableSchema(
                  "lineitem",
                  {ColumnSpec::Key("l_orderkey", ValueType::kInt64,
                                   "orderkey"),
                   ColumnSpec::Key("l_suppkey", ValueType::kInt64, "suppkey"),
                   ColumnSpec::Annotation("l_extendedprice",
                                          ValueType::kDouble),
                   ColumnSpec::Annotation("l_discount", ValueType::kDouble),
                   ColumnSpec::Annotation("l_quantity", ValueType::kDouble),
                   ColumnSpec::Annotation("l_returnflag",
                                          ValueType::kString)}))
              .ValueOrDie();
      const char* flags[] = {"A", "N", "R"};
      for (int l = 0; l < kLineitems; ++l) {
        ASSERT_TRUE(
            t->AppendRow(
                 {Value::Int(static_cast<int>(rng.Uniform(kOrders))),
                  Value::Int(static_cast<int>(rng.Uniform(kSuppliers))),
                  Value::Real(rng.UniformDouble(10, 2000)),
                  Value::Real(rng.UniformDouble(0, 0.1)),
                  Value::Real(rng.UniformInt(1, 50)),
                  Value::Str(flags[rng.Uniform(3)])})
                .ok());
      }
    }
    ASSERT_TRUE(catalog_.Finalize().ok());
    engine_ = std::make_unique<Engine>(&catalog_);
  }

  /// Runs through the engine and the brute-force reference; both must
  /// produce the same multiset of rows.
  void CheckAgainstReference(const std::string& sql,
                             QueryOptions options = QueryOptions()) {
    auto actual = engine_->Query(sql, options);
    ASSERT_TRUE(actual.ok()) << sql << "\n" << actual.status().ToString();
    auto parsed = ParseSelect(sql);
    ASSERT_TRUE(parsed.ok());
    auto bound = Bind(parsed.TakeValue(), catalog_);
    ASSERT_TRUE(bound.ok()) << bound.status().ToString();
    QueryResult expected = ReferenceExecute(bound.value());
    ExpectResultsMatch(actual.value(), expected, sql);
  }

  Catalog catalog_;
  std::unique_ptr<Engine> engine_;
};

// --- Scan path -------------------------------------------------------------

TEST_F(EngineTest, ScanAggregateNoGroup) {
  CheckAgainstReference(
      "SELECT sum(l_extendedprice * l_discount) AS revenue FROM lineitem "
      "WHERE l_discount BETWEEN 0.02 AND 0.08 AND l_quantity < 25");
}

TEST_F(EngineTest, ScanGroupByAnnotations) {
  CheckAgainstReference(
      "SELECT l_returnflag, sum(l_quantity), avg(l_extendedprice), count(*) "
      "FROM lineitem GROUP BY l_returnflag");
}

TEST_F(EngineTest, ScanMinMax) {
  CheckAgainstReference(
      "SELECT min(l_extendedprice), max(l_extendedprice) FROM lineitem "
      "WHERE l_returnflag = 'R'");
}

TEST_F(EngineTest, ScanEmptyFilterResult) {
  CheckAgainstReference(
      "SELECT l_returnflag, count(*) FROM lineitem WHERE l_quantity > 1e9 "
      "GROUP BY l_returnflag");
}

TEST_F(EngineTest, AlwaysFalsePredicate) {
  auto r = engine_->Query("SELECT sum(l_quantity) FROM lineitem WHERE 1 = 2");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().num_rows, 0u);
}

// --- Join path ---------------------------------------------------------------

TEST_F(EngineTest, TwoWayJoinSum) {
  CheckAgainstReference(
      "SELECT n_name, sum(c_acctbal) FROM customer, nation "
      "WHERE c_nationkey = n_nationkey GROUP BY n_name");
}

TEST_F(EngineTest, TriangleCount) {
  CheckAgainstReference(
      "SELECT count(*) FROM edge e1, edge e2, edge e3 "
      "WHERE e1.dst = e2.src AND e2.dst = e3.src AND e3.dst = e1.src");
}

TEST_F(EngineTest, TriangleWeightSum) {
  CheckAgainstReference(
      "SELECT sum(e1.w * e2.w * e3.w) FROM edge e1, edge e2, edge e3 "
      "WHERE e1.dst = e2.src AND e2.dst = e3.src AND e3.dst = e1.src");
}

TEST_F(EngineTest, JoinWithKeyGroupBy) {
  CheckAgainstReference(
      "SELECT c_custkey, sum(o_shippriority) FROM customer, orders "
      "WHERE o_custkey = c_custkey GROUP BY c_custkey");
}

TEST_F(EngineTest, JoinMaterializationDistinct) {
  CheckAgainstReference(
      "SELECT e1.src, e2.dst FROM edge e1, edge e2 WHERE e1.dst = e2.src");
}

TEST_F(EngineTest, Q5ShapedQuery) {
  CheckAgainstReference(
      "SELECT n_name, sum(l_extendedprice * (1 - l_discount)) AS rev "
      "FROM customer, orders, lineitem, supplier, nation, region "
      "WHERE c_custkey = o_custkey AND l_orderkey = o_orderkey "
      "AND l_suppkey = s_suppkey AND c_nationkey = s_nationkey "
      "AND s_nationkey = n_nationkey AND n_regionkey = r_regionkey "
      "AND r_name = 'ASIA' "
      "AND o_orderdate >= date '1994-06-01' "
      "AND o_orderdate < date '1996-06-01' "
      "GROUP BY n_name");
}

TEST_F(EngineTest, JoinWithDateExtractGroup) {
  CheckAgainstReference(
      "SELECT extract(year from o_orderdate) AS o_year, "
      "sum(l_extendedprice) FROM orders, lineitem "
      "WHERE l_orderkey = o_orderkey GROUP BY o_year");
}

TEST_F(EngineTest, JoinWithCaseWhen) {
  CheckAgainstReference(
      "SELECT sum(CASE WHEN n_name = 'CHINA' THEN c_acctbal ELSE 0 END) / "
      "sum(c_acctbal) AS share FROM customer, nation "
      "WHERE c_nationkey = n_nationkey");
}

TEST_F(EngineTest, JoinCountStar) {
  CheckAgainstReference(
      "SELECT n_name, count(*) FROM customer, orders, nation "
      "WHERE o_custkey = c_custkey AND c_nationkey = n_nationkey "
      "GROUP BY n_name");
}

TEST_F(EngineTest, JoinAvgAndMinMax) {
  CheckAgainstReference(
      "SELECT n_name, avg(c_acctbal), min(c_acctbal), max(c_acctbal) "
      "FROM customer, nation WHERE c_nationkey = n_nationkey "
      "GROUP BY n_name");
}

TEST_F(EngineTest, MultiRelationAggregateArgument) {
  CheckAgainstReference(
      "SELECT sum(e1.w * e2.w) FROM edge e1, edge e2 "
      "WHERE e1.dst = e2.src");
}

TEST_F(EngineTest, JoinGroupByDateAnnotation) {
  CheckAgainstReference(
      "SELECT o_orderdate, sum(l_quantity) FROM orders, lineitem "
      "WHERE l_orderkey = o_orderkey AND l_returnflag = 'R' "
      "GROUP BY o_orderdate");
}

// --- Linear algebra as joins -------------------------------------------------

TEST_F(EngineTest, SparseMatrixVector) {
  CheckAgainstReference(
      "SELECT m.r, sum(m.v * vec.val) FROM m, vec WHERE m.c = vec.i "
      "GROUP BY m.r");
}

TEST_F(EngineTest, SparseMatrixMatrix) {
  CheckAgainstReference(
      "SELECT m1.r, m2.c, sum(m1.v * m2.v) FROM m m1, m m2 "
      "WHERE m1.c = m2.r GROUP BY m1.r, m2.c");
}

TEST_F(EngineTest, SparseMatrixMatrixUsesRelaxedOrder) {
  auto info = engine_->Explain(
      "SELECT m1.r, m2.c, sum(m1.v * m2.v) FROM m m1, m m2 "
      "WHERE m1.c = m2.r GROUP BY m1.r, m2.c");
  ASSERT_TRUE(info.ok());
  EXPECT_TRUE(info.value().union_relaxed);
}

TEST_F(EngineTest, DenseMatrixVectorViaBlas) {
  auto info = engine_->Explain(
      "SELECT d.r, sum(d.v * vec.val) FROM d, vec WHERE d.c = vec.i "
      "GROUP BY d.r");
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info.value().dense, DenseKernel::kGemv);
  CheckAgainstReference(
      "SELECT d.r, sum(d.v * vec.val) FROM d, vec WHERE d.c = vec.i "
      "GROUP BY d.r");
}

TEST_F(EngineTest, DenseMatrixMatrixViaBlas) {
  const std::string sql =
      "SELECT d1.r, d2.c, sum(d1.v * d2.v) FROM d d1, d d2 "
      "WHERE d1.c = d2.r GROUP BY d1.r, d2.c";
  auto info = engine_->Explain(sql);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info.value().dense, DenseKernel::kGemm);
  CheckAgainstReference(sql);
}

TEST_F(EngineTest, DenseWithBlasDisabledStillCorrect) {
  QueryOptions opts;
  opts.enable_blas = false;
  const std::string sql =
      "SELECT d1.r, d2.c, sum(d1.v * d2.v) FROM d d1, d d2 "
      "WHERE d1.c = d2.r GROUP BY d1.r, d2.c";
  auto info = engine_->Explain(sql, opts);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info.value().dense, DenseKernel::kNone);
  CheckAgainstReference(sql, opts);
}

// --- Option / ablation arms ---------------------------------------------------

TEST_F(EngineTest, WorstOrderStillCorrect) {
  QueryOptions opts;
  opts.order_mode = OrderMode::kWorst;
  CheckAgainstReference(
      "SELECT n_name, sum(l_extendedprice * (1 - l_discount)) "
      "FROM customer, orders, lineitem, supplier, nation, region "
      "WHERE c_custkey = o_custkey AND l_orderkey = o_orderkey "
      "AND l_suppkey = s_suppkey AND c_nationkey = s_nationkey "
      "AND s_nationkey = n_nationkey AND n_regionkey = r_regionkey "
      "AND r_name = 'ASIA' GROUP BY n_name",
      opts);
}

TEST_F(EngineTest, NoAttributeEliminationStillCorrect) {
  QueryOptions opts;
  opts.use_attribute_elimination = false;
  CheckAgainstReference(
      "SELECT n_name, sum(c_acctbal) FROM customer, nation "
      "WHERE c_nationkey = n_nationkey GROUP BY n_name",
      opts);
  CheckAgainstReference(
      "SELECT l_returnflag, sum(l_quantity) FROM lineitem "
      "GROUP BY l_returnflag",
      opts);
}

TEST_F(EngineTest, UniqueKeysIsPrefixExactUnderExtraLevels) {
  // Regression for the unique_keys computation: it used to compare
  // num_tuples() (the deepest level's element count) against the base row
  // count, so any trie with levels below the queried prefix — ablation
  // extras or the surrogate rowid retry — looked trivially "unique" even
  // when the queried prefix duplicates. With the multiplicity fast path
  // keyed on unique_keys alone, that regression would collapse per-prefix
  // counts to 1. orders' full key (o_orderkey, o_custkey) is unique, but
  // the o_custkey prefix queried here duplicates heavily: the correct
  // count(*) is kOrders (80), not the number of distinct custkeys.
  QueryOptions opts;
  opts.use_attribute_elimination = false;
  CheckAgainstReference(
      "SELECT count(*) FROM orders, customer WHERE o_custkey = c_custkey",
      opts);
  CheckAgainstReference(
      "SELECT c_mktsegment, count(*) FROM orders, customer "
      "WHERE o_custkey = c_custkey GROUP BY c_mktsegment",
      opts);
  // Same trap on the rowid-retry path (elimination ON): l_returnflag is not
  // determined by l_suppkey, so lineitem re-keys with a surrogate rowid
  // level whose leaves are all distinct.
  CheckAgainstReference(
      "SELECT l_returnflag, count(*) FROM lineitem, supplier "
      "WHERE l_suppkey = s_suppkey GROUP BY l_returnflag");
}

TEST_F(EngineTest, NoUnionRelaxationStillCorrect) {
  QueryOptions opts;
  opts.enable_union_relaxation = false;
  CheckAgainstReference(
      "SELECT m1.r, m2.c, sum(m1.v * m2.v) FROM m m1, m m2 "
      "WHERE m1.c = m2.r GROUP BY m1.r, m2.c",
      opts);
}

TEST_F(EngineTest, ForcedAttributeOrder) {
  QueryOptions opts;
  // SMM vertices are named r, c (= m1.c/m2.r), c_2 (= m2.c).
  opts.force_attr_order = {"r", "c_2", "c"};
  opts.enable_union_relaxation = false;
  CheckAgainstReference(
      "SELECT m1.r, m2.c, sum(m1.v * m2.v) FROM m m1, m m2 "
      "WHERE m1.c = m2.r GROUP BY m1.r, m2.c",
      opts);
  opts.force_attr_order = {"nope"};
  auto bad = engine_->Query(
      "SELECT m1.r, m2.c, sum(m1.v * m2.v) FROM m m1, m m2 "
      "WHERE m1.c = m2.r GROUP BY m1.r, m2.c",
      opts);
  EXPECT_FALSE(bad.ok());
}

TEST_F(EngineTest, TrieCacheReuse) {
  engine_->trie_cache()->Clear();
  const std::string sql =
      "SELECT n_name, sum(c_acctbal) FROM customer, nation "
      "WHERE c_nationkey = n_nationkey GROUP BY n_name";
  auto first = engine_->Query(sql);
  ASSERT_TRUE(first.ok());
  const size_t cached = engine_->trie_cache()->size();
  EXPECT_GT(cached, 0u);
  auto second = engine_->Query(sql);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(engine_->trie_cache()->size(), cached);
  EXPECT_EQ(second.value().timing.index_build_ms, 0.0);
}

TEST_F(EngineTest, QueryAnalyzeCollectsProfile) {
  const std::string sql =
      "SELECT count(*) FROM edge e1, edge e2, edge e3 "
      "WHERE e1.dst = e2.src AND e2.dst = e3.src AND e3.dst = e1.src";
  auto r = engine_->QueryAnalyze(sql);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_NE(r.value().profile, nullptr);
  const obs::QueryProfile& profile = *r.value().profile;

  std::set<std::string> phases;
  for (const obs::SpanRecord& s : profile.spans) phases.insert(s.name);
  EXPECT_GE(phases.size(), 6u) << profile.ToText();
  for (const char* expected :
       {"query", "parse", "bind", "plan", "execute", "wcoj"}) {
    EXPECT_TRUE(phases.count(expected)) << "missing span " << expected;
  }

  // The triangle runs the WCOJ kernels: per-kernel counts must be nonzero.
  EXPECT_GT(profile.counters.TotalIntersections(), 0u);
  EXPECT_GT(profile.counters.intersect_result_values, 0u);
  EXPECT_GT(profile.counters.trie_nodes_visited, 0u);
  EXPECT_GT(profile.counters.tuples_emitted, 0u);
  ASSERT_FALSE(profile.node_tuples.empty());
}

TEST_F(EngineTest, QueryAnalyzeReportsCachedTries) {
  engine_->trie_cache()->Clear();
  const std::string sql =
      "SELECT n_name, sum(c_acctbal) FROM customer, nation "
      "WHERE c_nationkey = n_nationkey GROUP BY n_name";
  auto first = engine_->QueryAnalyze(sql);
  ASSERT_TRUE(first.ok());
  ASSERT_NE(first.value().profile, nullptr);
  EXPECT_GT(first.value().profile->counters.tries_built, 0u);

  auto second = engine_->QueryAnalyze(sql);
  ASSERT_TRUE(second.ok());
  ASSERT_NE(second.value().profile, nullptr);
  // Re-execution hits the trie cache: no index rebuild.
  EXPECT_EQ(second.value().timing.index_build_ms, 0.0);
  EXPECT_GT(second.value().profile->counters.trie_cache_hits, 0u);
}

TEST_F(EngineTest, CachedTrieHitSkipsAggregateArgument) {
  // lineitem's trie carries sum()'s single-relation argument as an
  // annotation, so building it evaluates the expression over every lineitem
  // row. The second run reuses the cached trie and must not evaluate it
  // again: a hit pays for the signature, not for the column.
  const std::string sql =
      "SELECT o_orderdate, sum(l_extendedprice * (1 - l_discount)) "
      "FROM orders, lineitem WHERE l_orderkey = o_orderkey "
      "GROUP BY o_orderdate";
  engine_->trie_cache()->Clear();
  auto first = engine_->QueryAnalyze(sql);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_NE(first.value().profile, nullptr);
  auto second = engine_->QueryAnalyze(sql);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  ASSERT_NE(second.value().profile, nullptr);

  const obs::StatsSnapshot& cold = first.value().profile->counters;
  const obs::StatsSnapshot& warm = second.value().profile->counters;
  EXPECT_EQ(warm.tries_built, 0u);
  EXPECT_GT(warm.trie_cache_hits, 0u);
  EXPECT_GE(cold.expr_vm_rows, warm.expr_vm_rows + kLineitems);
  first.value().SortRows();
  second.value().SortRows();
  EXPECT_EQ(second.value().ToString(1u << 20),
            first.value().ToString(1u << 20));
}

TEST_F(EngineTest, TriangleKeepsEagerWcojPlan) {
  // Symmetric, unfiltered self-join: the edge tries are built and the WCOJ
  // intersects at every attribute.
  engine_->trie_cache()->Clear();
  auto r = engine_->QueryAnalyze(
      "SELECT count(*) FROM edge e1, edge e2, edge e3 "
      "WHERE e1.dst = e2.src AND e2.dst = e3.src AND e3.dst = e1.src");
  ASSERT_TRUE(r.ok());
  ASSERT_NE(r.value().profile, nullptr);
  EXPECT_GT(r.value().profile->counters.tries_built, 0u);
  EXPECT_GT(r.value().profile->counters.TotalIntersections(), 0u);
}

TEST_F(EngineTest, LikePatternsNeverCompilePerRow) {
  // A LIKE under an OR forces the generic per-row predicate path; the
  // binder precompiles the matcher, so the fallback-compile counter must
  // read zero even though the pattern is evaluated for every row.
  auto r = engine_->QueryAnalyze(
      "SELECT count(*) FROM customer "
      "WHERE c_acctbal > 100000 OR c_mktsegment LIKE 'B%'");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_NE(r.value().profile, nullptr);
  EXPECT_EQ(r.value().profile->counters.expr_like_compiles, 0u);
}

TEST(LikeEscapeEngineTest, LiteralPercentAndUnderscoreMatchable) {
  // Failing before: '%' and '_' in a LIKE pattern were always wildcards, so
  // a predicate targeting a literal percent or underscore matched far too
  // much ('disc\%' matched "discount"). The lexer passes backslashes
  // through, so the escape reaches the precompiled matcher intact.
  Catalog catalog;
  Table* t = catalog
                 .CreateTable(TableSchema(
                     "promo",
                     {ColumnSpec::Key("id", ValueType::kInt64, "promo_id"),
                      ColumnSpec::Annotation("tag", ValueType::kString)}))
                 .ValueOrDie();
  const char* tags[] = {"disc%", "discount", "a_b", "axb", "50% off"};
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(t->AppendRow({Value::Int(i), Value::Str(tags[i])}).ok());
  }
  ASSERT_TRUE(catalog.Finalize().ok());
  Engine engine(&catalog);

  auto count = [&](const std::string& pattern) -> int64_t {
    auto r = engine.Query("SELECT count(*) FROM promo WHERE tag LIKE '" +
                          pattern + "'");
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    if (!r.ok() || r.value().columns.empty()) return -1;
    return static_cast<int64_t>(r.value().columns[0].reals.empty()
                                    ? r.value().columns[0].ints[0]
                                    : r.value().columns[0].reals[0]);
  };
  EXPECT_EQ(count("disc\\%"), 1);   // only "disc%"
  EXPECT_EQ(count("disc%"), 2);     // wildcard still works
  EXPECT_EQ(count("a\\_b"), 1);     // only "a_b"
  EXPECT_EQ(count("a_b"), 2);       // "a_b" and "axb"
  EXPECT_EQ(count("%\\%%"), 2);     // any tag containing a literal '%'
}

TEST_F(EngineTest, DefaultQueryCollectsNoProfile) {
  auto r = engine_->Query("SELECT count(*) FROM lineitem");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().profile, nullptr);
}

TEST_F(EngineTest, ExplainAnalyzeReturnsTextProfile) {
  auto r = engine_->Query(
      "EXPLAIN ANALYZE SELECT n_name, sum(c_acctbal) FROM customer, nation "
      "WHERE c_nationkey = n_nationkey GROUP BY n_name");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r.value().columns.size(), 1u);
  EXPECT_EQ(r.value().columns[0].name, "QUERY PLAN");
  ASSERT_GT(r.value().num_rows, 0u);
  std::string all;
  for (const std::string& line : r.value().columns[0].strs) {
    all += line;
    all += "\n";
  }
  EXPECT_NE(all.find("query"), std::string::npos);
  EXPECT_NE(all.find("intersect.uint_uint"), std::string::npos);
  ASSERT_NE(r.value().profile, nullptr);
}

TEST_F(EngineTest, ExplainPrefixReturnsPlanText) {
  auto r = engine_->Query(
      "explain SELECT n_name, sum(c_acctbal) FROM customer, nation "
      "WHERE c_nationkey = n_nationkey GROUP BY n_name");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r.value().columns.size(), 1u);
  ASSERT_GT(r.value().num_rows, 0u);
  EXPECT_NE(r.value().columns[0].strs[0].find("plan:"), std::string::npos);
}

TEST_F(EngineTest, ExplainReportsPlanShape) {
  auto info = engine_->Explain(
      "SELECT n_name, sum(l_extendedprice) "
      "FROM customer, orders, lineitem, supplier, nation, region "
      "WHERE c_custkey = o_custkey AND l_orderkey = o_orderkey "
      "AND l_suppkey = s_suppkey AND c_nationkey = s_nationkey "
      "AND s_nationkey = n_nationkey AND n_regionkey = r_regionkey "
      "AND r_name = 'ASIA' GROUP BY n_name");
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_EQ(info.value().num_ghd_nodes, 2u);  // Figure 4's two-node plan
  EXPECT_FALSE(info.value().root_order.empty());
  EXPECT_GE(info.value().root_candidates.size(), 2u);
  // The chosen order has minimum cost among candidates.
  for (const auto& cand : info.value().root_candidates) {
    EXPECT_GE(cand.cost, info.value().root_cost);
  }
}

// --- Property sweep: random queries over random data ------------------------

class EngineRandomJoinTest : public EngineTest,
                             public ::testing::WithParamInterface<int> {};

TEST_P(EngineRandomJoinTest, PathQueriesMatchReference) {
  // Random 2-hop path queries over the edge table with random filters.
  Rng rng(GetParam());
  const char* aggs[] = {"count(*)", "sum(e1.w + e2.w)", "sum(e1.w * e2.w)",
                        "min(e1.w)", "max(e2.w)"};
  std::string agg = aggs[rng.Uniform(5)];
  std::string sql = "SELECT " + agg + " FROM edge e1, edge e2 WHERE "
                    "e1.dst = e2.src";
  if (rng.Bernoulli(0.5)) {
    sql += " AND e1.w > " + std::to_string(rng.UniformDouble(0, 1.5));
  }
  if (rng.Bernoulli(0.5)) {
    sql += " AND e2.w <= " + std::to_string(rng.UniformDouble(0.5, 2.0));
  }
  CheckAgainstReference(sql);
}

INSTANTIATE_TEST_SUITE_P(Sweep, EngineRandomJoinTest,
                         ::testing::Range(1, 13));

}  // namespace
}  // namespace levelheaded
