// One comparison rule everywhere (util/total_order.h): NaN equals NaN and
// sorts above every number. The same predicate must give the same answer
// on the scan path, at the WCOJ leaf, and in a filtered trie build, and
// ORDER BY / SortRows must order NaN like any other value.

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/engine.h"

namespace levelheaded {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

class NanSemanticsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // a(k, v) and b(k, w) with rows (1, 0) and (2, 2): a.v / a.v and
    // a.v / b.w are 0/0 = NaN on k = 1 and 1 on k = 2.
    for (const char* name : {"a", "b"}) {
      Table* t = catalog_
                     .CreateTable(TableSchema(
                         name, {ColumnSpec::Key("k", ValueType::kInt64, "k"),
                                ColumnSpec::Annotation(
                                    std::string(name) == "a" ? "v" : "w",
                                    ValueType::kDouble)}))
                     .ValueOrDie();
      ASSERT_TRUE(t->AppendRow({Value::Int(1), Value::Real(0)}).ok());
      ASSERT_TRUE(t->AppendRow({Value::Int(2), Value::Real(2)}).ok());
    }
    // q holds NaN, ±inf and 0 for the ordering tests.
    Table* t = catalog_
                   .CreateTable(TableSchema(
                       "t", {ColumnSpec::Key("id", ValueType::kInt64),
                             ColumnSpec::Annotation("q", ValueType::kDouble)}))
                   .ValueOrDie();
    const double qs[] = {1, kNaN, -kInf, 0, kInf};
    for (int i = 0; i < 5; ++i) {
      ASSERT_TRUE(t->AppendRow({Value::Int(i), Value::Real(qs[i])}).ok());
    }
    // z(k, r) holds -0 and +0 under the join key of a and b.
    Table* z = catalog_
                   .CreateTable(TableSchema(
                       "z", {ColumnSpec::Key("k", ValueType::kInt64, "k"),
                             ColumnSpec::Annotation("r", ValueType::kDouble)}))
                   .ValueOrDie();
    ASSERT_TRUE(z->AppendRow({Value::Int(1), Value::Real(-0.0)}).ok());
    ASSERT_TRUE(z->AppendRow({Value::Int(2), Value::Real(0.0)}).ok());
    ASSERT_TRUE(catalog_.Finalize().ok());
    engine_ = std::make_unique<Engine>(&catalog_);
  }

  double Scalar(const std::string& sql) {
    auto r = engine_->Query(sql);
    EXPECT_TRUE(r.ok()) << sql << ": " << r.status().ToString();
    if (!r.ok() || r.value().num_rows != 1) return -1;
    return r.value().GetValue(0, 0).AsReal();
  }

  /// The `q` column of `sql`'s result, in result order.
  std::vector<double> Column(const std::string& sql) {
    auto r = engine_->Query(sql);
    EXPECT_TRUE(r.ok()) << sql << ": " << r.status().ToString();
    std::vector<double> out;
    if (!r.ok()) return out;
    for (size_t i = 0; i < r.value().num_rows; ++i) {
      out.push_back(r.value().GetValue(i, 1).AsReal());
    }
    return out;
  }

  /// Matches `got` against `want` with NaN matching NaN.
  static void ExpectOrder(const std::vector<double>& got,
                          const std::vector<double>& want,
                          const std::string& what) {
    ASSERT_EQ(got.size(), want.size()) << what;
    for (size_t i = 0; i < got.size(); ++i) {
      if (std::isnan(want[i])) {
        EXPECT_TRUE(std::isnan(got[i])) << what << " position " << i;
      } else {
        EXPECT_EQ(got[i], want[i]) << what << " position " << i;
      }
    }
  }

  Catalog catalog_;
  std::unique_ptr<Engine> engine_;
};

TEST_F(NanSemanticsTest, JoinLeafAndScanAgreeOnNanEquality) {
  // Failing before: the join leaf compared with IEEE == (1) while the scan
  // copied the walker's "NaN equals everything" (2).
  EXPECT_EQ(Scalar("SELECT SUM(CASE WHEN a.v / b.w = 1 THEN 1 ELSE 0 END) "
                   "FROM a, b WHERE a.k = b.k"),
            1);
  EXPECT_EQ(Scalar("SELECT SUM(CASE WHEN a.v / a.v = 1 THEN 1 ELSE 0 END) "
                   "FROM a"),
            1);
}

TEST_F(NanSemanticsTest, NanSortsAboveEveryNumberOnEveryPath) {
  // NaN >= 5 and NaN <> 1 hold; 1 >= 5 and 1 <> 1 do not. Each predicate
  // runs on the scan path, at the join leaf, and as a filter pushed into a
  // filtered trie build.
  for (const char* pred : {">= 5", "<> 1", "> 100", "= 1"}) {
    const std::string p = pred;
    EXPECT_EQ(Scalar("SELECT COUNT(*) FROM a WHERE a.v / a.v " + p), 1)
        << "scan " << p;
    EXPECT_EQ(Scalar("SELECT SUM(CASE WHEN a.v / b.w " + p +
                     " THEN 1 ELSE 0 END) FROM a, b WHERE a.k = b.k"),
              1)
        << "join leaf " << p;
    EXPECT_EQ(Scalar("SELECT COUNT(*) FROM a, b WHERE a.k = b.k AND "
                     "a.v / a.v " +
                     p),
              1)
        << "filtered trie " << p;
  }
  // Under the total order NaN is in no range that ends below it.
  EXPECT_EQ(Scalar("SELECT COUNT(*) FROM a WHERE a.v / a.v BETWEEN 0 AND 100"),
            1);
}

TEST_F(NanSemanticsTest, OrderByPutsNanLastAscendingFirstDescending) {
  // Failing before: the comparator treated NaN as equivalent to every
  // value (not a strict weak ordering), and ORDER BY q put NaN first.
  ExpectOrder(Column("SELECT id, q FROM t ORDER BY q"),
              {-kInf, 0, 1, kInf, kNaN}, "ASC");
  ExpectOrder(Column("SELECT id, q FROM t ORDER BY q DESC"),
              {kNaN, kInf, 1, 0, -kInf}, "DESC");
  ExpectOrder(Column("SELECT id, q FROM t ORDER BY q LIMIT 2"), {-kInf, 0},
              "ASC LIMIT 2");
  ExpectOrder(Column("SELECT id, q FROM t ORDER BY q DESC LIMIT 2"),
              {kNaN, kInf}, "DESC LIMIT 2");
}

TEST_F(NanSemanticsTest, MinOverAllNanIsNan) {
  // NaN is the top of the total order, so MIN over only NaN is NaN and a
  // NaN does not hide a number. Failing before: MIN started from +inf, so
  // an all-NaN MIN read +inf.
  EXPECT_TRUE(std::isnan(Scalar("SELECT MIN(a.v / a.v) FROM a WHERE a.k = 1")));
  EXPECT_TRUE(std::isnan(Scalar("SELECT MIN(a.v / b.w) FROM a, b "
                                "WHERE a.k = b.k AND a.k = 1")));
  EXPECT_EQ(Scalar("SELECT MIN(a.v / a.v) FROM a"), 1);
  EXPECT_EQ(Scalar("SELECT MIN(a.v / b.w) FROM a, b WHERE a.k = b.k"), 1);
  EXPECT_EQ(Scalar("SELECT MIN(q) FROM t"), -kInf);
  EXPECT_TRUE(std::isnan(Scalar("SELECT MAX(q) FROM t")));
  // Per group: k = 1 holds only NaN, k = 2 holds 1.
  auto r = engine_->Query(
      "SELECT a.k, MIN(a.v / b.w) FROM a, b WHERE a.k = b.k GROUP BY a.k "
      "ORDER BY a.k");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r.value().num_rows, 2u);
  EXPECT_TRUE(std::isnan(r.value().GetValue(0, 1).AsReal()));
  EXPECT_EQ(r.value().GetValue(1, 1).AsReal(), 1);
  // No input row: an empty scalar MIN has no row to read.
  auto empty = engine_->Query("SELECT MIN(q) FROM t WHERE id > 10");
  ASSERT_TRUE(empty.ok()) << empty.status().ToString();
  EXPECT_EQ(empty.value().num_rows, 0u);
}

TEST_F(NanSemanticsTest, NegativeAndPositiveZeroShareAGroup) {
  // -0 = +0 under the total order, so they are one GROUP BY key. Failing
  // before: the key was the raw bit pattern, so they made two groups.
  for (const char* sql :
       {"SELECT r, COUNT(*) FROM z GROUP BY r",
        "SELECT z.r, COUNT(*) FROM z, a WHERE z.k = a.k GROUP BY z.r"}) {
    auto r = engine_->Query(sql);
    ASSERT_TRUE(r.ok()) << sql << ": " << r.status().ToString();
    ASSERT_EQ(r.value().num_rows, 1u) << sql;
    EXPECT_EQ(r.value().GetValue(0, 0).AsReal(), 0) << sql;
    EXPECT_EQ(r.value().GetValue(0, 1).AsReal(), 2) << sql;
  }
}

TEST_F(NanSemanticsTest, SortRowsOrdersNanLast) {
  auto r = engine_->Query("SELECT id, q FROM t");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  QueryResult result = std::move(r).value();
  // Sort on q alone: drop the id column first.
  result.columns.erase(result.columns.begin());
  result.SortRows();
  std::vector<double> got;
  for (size_t i = 0; i < result.num_rows; ++i) {
    got.push_back(result.GetValue(i, 0).AsReal());
  }
  ExpectOrder(got, {-kInf, 0, 1, kInf, kNaN}, "SortRows");
}

}  // namespace
}  // namespace levelheaded
