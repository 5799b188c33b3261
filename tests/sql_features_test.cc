// End-to-end coverage for the SQL features beyond the paper's benchmark
// subset: HAVING, ORDER BY (+ ordinals, DESC), LIMIT, IN lists, and
// post-aggregation expressions of every kind the binder accepts — across
// the WCOJ engine and the pairwise baselines.

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "baseline/pairwise_engine.h"
#include "core/engine.h"
#include "obs/profile.h"

namespace levelheaded {
namespace {

class SqlFeaturesTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Table* nation =
        catalog_
            .CreateTable(TableSchema(
                "nation",
                {ColumnSpec::Key("n_nationkey", ValueType::kInt64,
                                 "nationkey"),
                 ColumnSpec::Annotation("n_name", ValueType::kString)}))
            .ValueOrDie();
    const char* names[] = {"ARGENTINA", "BRAZIL", "CANADA", "DENMARK"};
    for (int i = 0; i < 4; ++i) {
      ASSERT_TRUE(
          nation->AppendRow({Value::Int(i), Value::Str(names[i])}).ok());
    }
    Table* customer =
        catalog_
            .CreateTable(TableSchema(
                "customer",
                {ColumnSpec::Key("c_custkey", ValueType::kInt64, "custkey"),
                 ColumnSpec::Key("c_nationkey", ValueType::kInt64,
                                 "nationkey"),
                 ColumnSpec::Annotation("c_acctbal", ValueType::kDouble)}))
            .ValueOrDie();
    // nation 0: 1 customer (10); nation 1: 2 (20+30); nation 2: 3
    // (40+50+60); nation 3: none.
    int ck = 0;
    double bal = 10;
    for (int n = 0; n < 3; ++n) {
      for (int i = 0; i <= n; ++i) {
        ASSERT_TRUE(customer
                        ->AppendRow({Value::Int(ck++), Value::Int(n),
                                     Value::Real(bal)})
                        .ok());
        bal += 10;
      }
    }
    ASSERT_TRUE(catalog_.Finalize().ok());
    engine_ = std::make_unique<Engine>(&catalog_);
  }

  QueryResult Run(const std::string& sql) {
    auto r = engine_->Query(sql);
    EXPECT_TRUE(r.ok()) << sql << "\n" << r.status().ToString();
    return r.ok() ? r.TakeValue() : QueryResult{};
  }

  Catalog catalog_;
  std::unique_ptr<Engine> engine_;
};

TEST_F(SqlFeaturesTest, OrderByAscendingAndDescending) {
  QueryResult r = Run(
      "SELECT n_name, sum(c_acctbal) AS total FROM customer, nation "
      "WHERE c_nationkey = n_nationkey GROUP BY n_name ORDER BY total");
  ASSERT_EQ(r.num_rows, 3u);
  EXPECT_EQ(r.GetValue(0, 0), Value::Str("ARGENTINA"));  // 10
  EXPECT_EQ(r.GetValue(1, 0), Value::Str("BRAZIL"));     // 50
  EXPECT_EQ(r.GetValue(2, 0), Value::Str("CANADA"));     // 150

  QueryResult d = Run(
      "SELECT n_name, sum(c_acctbal) AS total FROM customer, nation "
      "WHERE c_nationkey = n_nationkey GROUP BY n_name "
      "ORDER BY total DESC");
  EXPECT_EQ(d.GetValue(0, 0), Value::Str("CANADA"));
}

TEST_F(SqlFeaturesTest, OrderByStringAndOrdinal) {
  QueryResult r = Run(
      "SELECT n_name, sum(c_acctbal) FROM customer, nation "
      "WHERE c_nationkey = n_nationkey GROUP BY n_name "
      "ORDER BY n_name DESC");
  EXPECT_EQ(r.GetValue(0, 0), Value::Str("CANADA"));
  QueryResult o = Run(
      "SELECT n_name, sum(c_acctbal) FROM customer, nation "
      "WHERE c_nationkey = n_nationkey GROUP BY n_name ORDER BY 2 DESC");
  EXPECT_EQ(o.GetValue(0, 0), Value::Str("CANADA"));
}

TEST_F(SqlFeaturesTest, OrderBySecondaryKey) {
  // Equal first keys exercise the tie-break on the second key.
  QueryResult r = Run(
      "SELECT c_nationkey, c_custkey FROM customer "
      "ORDER BY c_nationkey DESC, c_custkey");
  ASSERT_EQ(r.num_rows, 6u);
  EXPECT_EQ(r.GetValue(0, 0), Value::Int(2));
  EXPECT_EQ(r.GetValue(0, 1), Value::Int(3));
  EXPECT_EQ(r.GetValue(2, 1), Value::Int(5));
  EXPECT_EQ(r.GetValue(5, 0), Value::Int(0));
}

TEST_F(SqlFeaturesTest, Limit) {
  QueryResult r = Run(
      "SELECT n_name, sum(c_acctbal) AS total FROM customer, nation "
      "WHERE c_nationkey = n_nationkey GROUP BY n_name "
      "ORDER BY total DESC LIMIT 2");
  ASSERT_EQ(r.num_rows, 2u);
  EXPECT_EQ(r.GetValue(0, 0), Value::Str("CANADA"));
  EXPECT_EQ(r.GetValue(1, 0), Value::Str("BRAZIL"));

  EXPECT_EQ(Run("SELECT c_custkey FROM customer LIMIT 0").num_rows, 0u);
  EXPECT_EQ(Run("SELECT c_custkey FROM customer LIMIT 100").num_rows, 6u);
}

TEST_F(SqlFeaturesTest, HavingOnAggregate) {
  QueryResult r = Run(
      "SELECT n_name, sum(c_acctbal) AS total FROM customer, nation "
      "WHERE c_nationkey = n_nationkey GROUP BY n_name "
      "HAVING sum(c_acctbal) > 40 ORDER BY total");
  ASSERT_EQ(r.num_rows, 2u);
  EXPECT_EQ(r.GetValue(0, 0), Value::Str("BRAZIL"));
  EXPECT_EQ(r.GetValue(1, 0), Value::Str("CANADA"));
}

TEST_F(SqlFeaturesTest, HavingWithUnselectedAggregate) {
  QueryResult r = Run(
      "SELECT n_name FROM customer, nation "
      "WHERE c_nationkey = n_nationkey GROUP BY n_name "
      "HAVING count(*) >= 2 ORDER BY n_name");
  ASSERT_EQ(r.num_rows, 2u);
  EXPECT_EQ(r.GetValue(0, 0), Value::Str("BRAZIL"));
}

TEST_F(SqlFeaturesTest, HavingOnStringDimension) {
  QueryResult r = Run(
      "SELECT n_name, count(*) FROM customer, nation "
      "WHERE c_nationkey = n_nationkey GROUP BY n_name "
      "HAVING n_name = 'BRAZIL'");
  ASSERT_EQ(r.num_rows, 1u);
  EXPECT_EQ(r.GetValue(0, 1), Value::Real(2));
}

TEST_F(SqlFeaturesTest, HavingOnScanPath) {
  QueryResult r = Run(
      "SELECT c_nationkey, sum(c_acctbal) FROM customer "
      "GROUP BY c_nationkey HAVING avg(c_acctbal) >= 25 "
      "ORDER BY c_nationkey");
  ASSERT_EQ(r.num_rows, 2u);  // nations 1 (avg 25) and 2 (avg 50)
  EXPECT_EQ(r.GetValue(0, 0), Value::Int(1));
}

TEST_F(SqlFeaturesTest, InListDesugarsToDisjunction) {
  QueryResult r = Run(
      "SELECT count(*) FROM nation WHERE n_name IN ('BRAZIL', 'CANADA')");
  EXPECT_EQ(r.GetValue(0, 0), Value::Real(2));
  QueryResult n = Run(
      "SELECT count(*) FROM nation "
      "WHERE n_name NOT IN ('BRAZIL', 'CANADA', 'NOPE')");
  EXPECT_EQ(n.GetValue(0, 0), Value::Real(2));
  QueryResult k = Run(
      "SELECT count(*) FROM customer WHERE c_nationkey IN (0, 2)");
  EXPECT_EQ(k.GetValue(0, 0), Value::Real(4));
}

TEST_F(SqlFeaturesTest, AggregateSlotsDeduplicated) {
  // The same SUM twice (Q8's shape) must share one slot internally and
  // still produce both outputs.
  QueryResult r = Run(
      "SELECT sum(c_acctbal) / sum(c_acctbal) AS one, sum(c_acctbal) "
      "FROM customer");
  EXPECT_EQ(r.GetValue(0, 0), Value::Real(1.0));
  EXPECT_EQ(r.GetValue(0, 1), Value::Real(210.0));
}

TEST_F(SqlFeaturesTest, BaselinesHonorTheSameFeatures) {
  const std::string sql =
      "SELECT n_name, sum(c_acctbal) AS total FROM customer, nation "
      "WHERE c_nationkey = n_nationkey AND c_nationkey IN (1, 2) "
      "GROUP BY n_name HAVING count(*) >= 2 ORDER BY total DESC LIMIT 1";
  QueryResult expected = Run(sql);
  ASSERT_EQ(expected.num_rows, 1u);
  EXPECT_EQ(expected.GetValue(0, 0), Value::Str("CANADA"));
  for (BaselineMode mode :
       {BaselineMode::kVectorized, BaselineMode::kMaterialized,
        BaselineMode::kInterpreted}) {
    PairwiseEngine engine(&catalog_, mode);
    auto r = engine.Query(sql);
    ASSERT_TRUE(r.ok()) << BaselineModeName(mode);
    ASSERT_EQ(r.value().num_rows, 1u) << BaselineModeName(mode);
    EXPECT_EQ(r.value().GetValue(0, 0), Value::Str("CANADA"));
  }
}

TEST_F(SqlFeaturesTest, ErrorCases) {
  auto bad1 = engine_->Query(
      "SELECT n_name FROM nation ORDER BY n_nationkey");
  EXPECT_FALSE(bad1.ok());  // not in select list
  auto bad2 = engine_->Query("SELECT n_name FROM nation HAVING n_name = 'X'");
  EXPECT_FALSE(bad2.ok());  // HAVING without aggregation/grouping
  auto bad3 = engine_->Query("SELECT n_name FROM nation ORDER BY 7");
  EXPECT_FALSE(bad3.ok());  // ordinal out of range
  auto bad4 = engine_->Query("SELECT n_name FROM nation LIMIT -3");
  EXPECT_FALSE(bad4.ok());
}

/// HAVING and output expressions beyond arithmetic over aggregates: string
/// comparisons and LIKE on string dimensions, CASE over aggregates,
/// EXTRACT and string-literal folds. Each shape used to abort the process
/// in the post-aggregation evaluator; they run as compiled programs over
/// the group's columns now. Schemas: `artists` (a string annotation
/// dimension, `country`), `t` and `u` (a string key vertex, `k`).
class GroupExpressionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Table* artists =
        catalog_
            .CreateTable(TableSchema(
                "artists",
                {ColumnSpec::Key("artist_id", ValueType::kInt64, "artist"),
                 ColumnSpec::Annotation("country", ValueType::kString)}))
            .ValueOrDie();
    // UK x2, US, CA.
    const char* countries[] = {"UK", "US", "CA", "UK"};
    for (int i = 0; i < 4; ++i) {
      ASSERT_TRUE(artists
                      ->AppendRow({Value::Int(i + 1), Value::Str(countries[i])})
                      .ok());
    }
    Table* albums =
        catalog_
            .CreateTable(TableSchema(
                "albums",
                {ColumnSpec::Key("album_id", ValueType::kInt64, "album"),
                 ColumnSpec::Key("a_artist_id", ValueType::kInt64, "artist"),
                 ColumnSpec::Annotation("price", ValueType::kDouble)}))
            .ValueOrDie();
    // (album, artist, price): UK's artists 1 and 4 hold 3 albums, US's 1,
    // CA's 2.
    const int album_artist[] = {1, 1, 2, 3, 3, 4};
    for (int i = 0; i < 6; ++i) {
      ASSERT_TRUE(albums
                      ->AppendRow({Value::Int(10 + i),
                                   Value::Int(album_artist[i]),
                                   Value::Real(0.5 * (i + 1))})
                      .ok());
    }
    Table* t = catalog_
                   .CreateTable(TableSchema(
                       "t", {ColumnSpec::Key("k", ValueType::kString, "kdom"),
                             ColumnSpec::Annotation("v", ValueType::kDouble)}))
                   .ValueOrDie();
    // sum(v): a 1.75 (2 rows), b 2, c 3.
    const std::pair<const char*, double> t_rows[] = {
        {"a", 1.5}, {"b", 2.0}, {"a", 0.25}, {"c", 3.0}};
    for (const auto& [k, v] : t_rows) {
      ASSERT_TRUE(t->AppendRow({Value::Str(k), Value::Real(v)}).ok());
    }
    Table* u = catalog_
                   .CreateTable(TableSchema(
                       "u", {ColumnSpec::Key("k", ValueType::kString, "kdom"),
                             ColumnSpec::Annotation("w", ValueType::kDouble)}))
                   .ValueOrDie();
    // t JOIN u: a 2 tuples (sum(v * w) 3.5), b 1 (2), c 2 (13.5).
    const std::pair<const char*, double> u_rows[] = {
        {"a", 2.0}, {"b", 1.0}, {"c", 0.5}, {"c", 4.0}};
    for (const auto& [k, w] : u_rows) {
      ASSERT_TRUE(u->AppendRow({Value::Str(k), Value::Real(w)}).ok());
    }
    ASSERT_TRUE(catalog_.Finalize().ok());
  }

  /// A result's rows as "v1|v2|..." strings, sorted.
  static std::vector<std::string> Rows(const QueryResult& r) {
    std::vector<std::string> rows;
    for (size_t i = 0; i < r.num_rows; ++i) {
      std::string row;
      for (size_t c = 0; c < r.columns.size(); ++c) {
        if (c > 0) row += '|';
        row += r.GetValue(i, static_cast<int>(c)).ToString();
      }
      rows.push_back(row);
    }
    std::sort(rows.begin(), rows.end());
    return rows;
  }

  /// Runs `sql` on the engine and on every pairwise baseline mode; each
  /// must return exactly `want` (sorted rows).
  void Expect(const std::string& sql, const std::vector<std::string>& want) {
    Engine engine(&catalog_);
    auto r = engine.Query(sql);
    ASSERT_TRUE(r.ok()) << sql << "\n" << r.status().ToString();
    EXPECT_EQ(Rows(r.value()), want) << sql;
    for (BaselineMode mode :
         {BaselineMode::kVectorized, BaselineMode::kMaterialized,
          BaselineMode::kInterpreted}) {
      PairwiseEngine baseline(&catalog_, mode);
      auto b = baseline.Query(sql);
      ASSERT_TRUE(b.ok()) << sql << " on " << BaselineModeName(mode) << "\n"
                          << b.status().ToString();
      EXPECT_EQ(Rows(b.value()), want) << sql << " on "
                                       << BaselineModeName(mode);
    }
  }

  /// The engine's materialize path for `sql`: "rows" in append mode,
  /// "groups" in hash mode.
  std::string MaterializePath(const std::string& sql) {
    Engine engine(&catalog_);
    auto r = engine.QueryAnalyze(sql);
    EXPECT_TRUE(r.ok()) << sql << "\n" << r.status().ToString();
    if (!r.ok()) return "";
    for (const obs::SpanRecord& span : r.value().profile->spans) {
      if (span.name == "materialize") return span.detail;
    }
    return "";
  }

  Catalog catalog_;
};

TEST_F(GroupExpressionTest, StringComparisonOnStringDimension) {
  Expect("SELECT country, count(*) FROM artists GROUP BY country "
         "HAVING country < 'UK'",
         {"CA|1"});
  Expect("SELECT country, sum(price) FROM albums, artists "
         "WHERE a_artist_id = artist_id GROUP BY country "
         "HAVING country >= 'UK'",
         {"UK|4.5", "US|1.5"});
}

TEST_F(GroupExpressionTest, StringKeyComparisonAndAggregate) {
  Expect("SELECT k, sum(v) FROM t GROUP BY k HAVING k > 'a' AND sum(v) > 1",
         {"b|2", "c|3"});
}

TEST_F(GroupExpressionTest, AverageIsFinalizedBeforeUse) {
  // avg(v): a 0.875, b 2, c 3. Read unfinalized, a's AVG would be its sum,
  // 1.75, and its output 3.5.
  Expect("SELECT k, avg(v) * 2 FROM t GROUP BY k HAVING avg(v) < 2.5",
         {"a|1.75", "b|4"});
}

TEST_F(GroupExpressionTest, LikeOnStringDimension) {
  Expect("SELECT country, count(*) FROM artists GROUP BY country "
         "HAVING country LIKE 'U%'",
         {"UK|2", "US|1"});
  Expect("SELECT country, count(*) FROM albums, artists "
         "WHERE a_artist_id = artist_id GROUP BY country "
         "HAVING NOT country LIKE 'U%'",
         {"CA|2"});
}

TEST_F(GroupExpressionTest, CaseOverAggregateOutput) {
  Expect("SELECT country, CASE WHEN count(*) > 1 THEN 1 ELSE 0 END "
         "FROM artists GROUP BY country",
         {"CA|0", "UK|1", "US|0"});
}

TEST_F(GroupExpressionTest, ExtractOfLiteralOutput) {
  // Day 1000 after the epoch falls in 1972.
  Expect("SELECT EXTRACT(YEAR FROM 1000), count(*) FROM artists", {"1972|4"});
}

TEST_F(GroupExpressionTest, StringLiteralComparisonFolds) {
  Expect("SELECT k, count(*) FROM t GROUP BY k HAVING 'a' < 'b'",
         {"a|2", "b|1", "c|1"});
  Expect("SELECT k, count(*) FROM t GROUP BY k HAVING 'b' < 'a'", {});
}

TEST_F(GroupExpressionTest, AppendModeKeyVertexHavingLikeAndCase) {
  // Every GROUP BY dimension is a key vertex, so each chunk closes its
  // groups itself (append mode): HAVING and CASE run at group close.
  const std::string like =
      "SELECT t.k, sum(t.v * u.w) FROM t, u WHERE t.k = u.k GROUP BY t.k "
      "HAVING t.k LIKE 'a%' OR t.k LIKE 'c%'";
  EXPECT_EQ(MaterializePath(like), "rows");
  Expect(like, {"a|3.5", "c|13.5"});
  const std::string cased =
      "SELECT t.k, CASE WHEN count(*) > 1 THEN sum(t.v * u.w) ELSE -1 END "
      "FROM t, u WHERE t.k = u.k GROUP BY t.k";
  EXPECT_EQ(MaterializePath(cased), "rows");
  Expect(cased, {"a|3.5", "b|-1", "c|13.5"});
}

TEST_F(GroupExpressionTest, BareStringLiteralOutputIsAnError) {
  const std::string sql = "SELECT k, 'x' FROM t GROUP BY k";
  Engine engine(&catalog_);
  auto r = engine.Query(sql);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument)
      << r.status().ToString();
  for (BaselineMode mode :
       {BaselineMode::kVectorized, BaselineMode::kMaterialized,
        BaselineMode::kInterpreted}) {
    PairwiseEngine baseline(&catalog_, mode);
    auto b = baseline.Query(sql);
    ASSERT_FALSE(b.ok()) << BaselineModeName(mode);
    EXPECT_EQ(b.status().code(), StatusCode::kInvalidArgument)
        << BaselineModeName(mode) << ": " << b.status().ToString();
  }
  // The same shape in append mode fails before any chunk runs.
  auto join = engine.Query(
      "SELECT t.k, 'x' FROM t, u WHERE t.k = u.k GROUP BY t.k");
  ASSERT_FALSE(join.ok());
  EXPECT_EQ(join.status().code(), StatusCode::kInvalidArgument);
}

// A WHERE that is always false takes the executor's empty shortcut. Its
// result must not depend on that path: the same error as a non-empty run
// for a bare string literal output, and the same column types as every
// baseline mode (whose empty path materializes an empty group table).
TEST_F(GroupExpressionTest, AlwaysEmptyResultMatchesTheBaselines) {
  const std::string literal = "SELECT k, 'x' FROM t WHERE 1 = 0 GROUP BY k";
  Engine engine(&catalog_);
  auto r = engine.Query(literal);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument)
      << r.status().ToString();
  for (BaselineMode mode :
       {BaselineMode::kVectorized, BaselineMode::kMaterialized,
        BaselineMode::kInterpreted}) {
    PairwiseEngine baseline(&catalog_, mode);
    auto b = baseline.Query(literal);
    ASSERT_FALSE(b.ok()) << BaselineModeName(mode);
    EXPECT_EQ(b.status().code(), StatusCode::kInvalidArgument)
        << BaselineModeName(mode) << ": " << b.status().ToString();
  }
  for (const std::string sql :
       {"SELECT k, sum(v), count(*) FROM t WHERE 1 = 0 GROUP BY k",
        "SELECT t.k, sum(t.v * u.w) FROM t, u WHERE t.k = u.k AND 1 = 0 "
        "GROUP BY t.k",
        "SELECT country, CASE WHEN count(*) > 1 THEN 1 ELSE 0 END "
        "FROM artists WHERE 1 = 0 GROUP BY country"}) {
    auto e = engine.Query(sql);
    ASSERT_TRUE(e.ok()) << sql << "\n" << e.status().ToString();
    EXPECT_EQ(e.value().num_rows, 0u) << sql;
    for (BaselineMode mode :
         {BaselineMode::kVectorized, BaselineMode::kMaterialized,
          BaselineMode::kInterpreted}) {
      PairwiseEngine baseline(&catalog_, mode);
      auto b = baseline.Query(sql);
      ASSERT_TRUE(b.ok()) << sql << " on " << BaselineModeName(mode);
      ASSERT_EQ(b.value().columns.size(), e.value().columns.size()) << sql;
      for (size_t c = 0; c < e.value().columns.size(); ++c) {
        EXPECT_EQ(e.value().columns[c].type, b.value().columns[c].type)
            << sql << " column " << c << " on " << BaselineModeName(mode);
      }
    }
  }
}

}  // namespace
}  // namespace levelheaded
