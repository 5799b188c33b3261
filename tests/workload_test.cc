#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "baseline/pairwise_engine.h"
#include "core/engine.h"
#include "obs/profile.h"
#include "reference_executor.h"
#include "workload/matrix_gen.h"
#include "workload/tpch_gen.h"
#include "workload/voter_gen.h"

namespace levelheaded {
namespace {

using ::levelheaded::testing::ExpectResultsMatch;

// ---------------------------------------------------------------------------
// Generator structure checks.
// ---------------------------------------------------------------------------

TEST(TpchGenTest, PopulatesAllTables) {
  Catalog catalog;
  TpchGenerator gen(0.001);
  ASSERT_TRUE(gen.Populate(&catalog).ok());
  ASSERT_TRUE(catalog.Finalize().ok());
  for (const char* name : {"region", "nation", "supplier", "customer",
                           "part", "partsupp", "orders", "lineitem"}) {
    const Table* t = catalog.GetTable(name);
    ASSERT_NE(t, nullptr) << name;
    EXPECT_GT(t->num_rows(), 0u) << name;
  }
  EXPECT_EQ(catalog.GetTable("region")->num_rows(), 5u);
  EXPECT_EQ(catalog.GetTable("nation")->num_rows(), 25u);
  // partsupp = 4 suppliers per part.
  EXPECT_EQ(catalog.GetTable("partsupp")->num_rows(),
            catalog.GetTable("part")->num_rows() * 4);
  // lineitem rows join consistently: every (partkey, suppkey) appears in
  // partsupp (checked via a join query below).
}

TEST(TpchGenTest, ScaleFactorScalesRows) {
  Catalog small_cat, big_cat;
  TpchGenerator small(0.001), big(0.004);
  ASSERT_TRUE(small.Populate(&small_cat).ok());
  ASSERT_TRUE(big.Populate(&big_cat).ok());
  EXPECT_GT(big_cat.GetTable("lineitem")->num_rows(),
            2 * small_cat.GetTable("lineitem")->num_rows());
}

TEST(TpchGenTest, Deterministic) {
  Catalog a, b;
  ASSERT_TRUE(TpchGenerator(0.001, 7).Populate(&a).ok());
  ASSERT_TRUE(TpchGenerator(0.001, 7).Populate(&b).ok());
  const Table* la = a.GetTable("lineitem");
  const Table* lb = b.GetTable("lineitem");
  ASSERT_EQ(la->num_rows(), lb->num_rows());
  for (size_t r = 0; r < std::min<size_t>(50, la->num_rows()); ++r) {
    EXPECT_EQ(la->GetValue(r, 4), lb->GetValue(r, 4));
  }
}

TEST(MatrixGenTest, BandedStructure) {
  SyntheticMatrix m = MakeBandedMatrix("t", 200, 3, 2, 1);
  EXPECT_EQ(m.coo.num_rows, 200);
  // Band of half-width 3 -> at least 7 nnz per interior row.
  EXPECT_GE(m.coo.nnz(), size_t{200} * 6);
  // All coordinates in range.
  for (size_t i = 0; i < m.coo.nnz(); ++i) {
    EXPECT_LT(m.coo.rows[i], 200u);
    EXPECT_LT(m.coo.cols[i], 200u);
  }
}

TEST(MatrixGenTest, PresetsScale) {
  SyntheticMatrix h = HarborLike(0.01);
  EXPECT_GE(h.coo.num_rows, 64);
  EXPECT_GT(h.coo.nnz(), static_cast<size_t>(h.coo.num_rows) * 10);
  SyntheticMatrix n = Nlp240Like(0.001);
  EXPECT_GT(n.coo.nnz(), 0u);
}

TEST(VoterGenTest, PopulatesAndHasSignal) {
  Catalog catalog;
  VoterGenerator gen(2000, 50);
  ASSERT_TRUE(gen.Populate(&catalog).ok());
  ASSERT_TRUE(catalog.Finalize().ok());
  EXPECT_EQ(catalog.GetTable("voters")->num_rows(), 2000u);
  EXPECT_EQ(catalog.GetTable("precincts")->num_rows(), 50u);
  // Labels are mixed (not constant).
  Engine engine(&catalog);
  auto r = engine.Query("SELECT sum(v_label), count(*) FROM voters");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const double ones = r.value().GetValue(0, 0).AsReal();
  const double total = r.value().GetValue(0, 1).AsReal();
  EXPECT_GT(ones, total * 0.1);
  EXPECT_LT(ones, total * 0.9);
}

// ---------------------------------------------------------------------------
// TPC-H integration: the three independent engines (WCOJ, pairwise
// vectorized, pairwise materialized) must agree on all seven benchmark
// queries at a small scale factor.
// ---------------------------------------------------------------------------

class TpchQueryTest : public ::testing::TestWithParam<const char*> {
 protected:
  static void SetUpTestSuite() {
    catalog_ = std::make_unique<Catalog>();
    TpchGenerator gen(0.002);
    ASSERT_TRUE(gen.Populate(catalog_.get()).ok());
    ASSERT_TRUE(catalog_->Finalize().ok());
    engine_ = std::make_unique<Engine>(catalog_.get());
  }
  static void TearDownTestSuite() {
    engine_.reset();
    catalog_.reset();
  }

  static std::unique_ptr<Catalog> catalog_;
  static std::unique_ptr<Engine> engine_;
};

std::unique_ptr<Catalog> TpchQueryTest::catalog_;
std::unique_ptr<Engine> TpchQueryTest::engine_;

TEST_P(TpchQueryTest, EnginesAgree) {
  const std::string sql = TpchQuery(GetParam());
  auto lh = engine_->Query(sql);
  ASSERT_TRUE(lh.ok()) << GetParam() << ": " << lh.status().ToString();

  PairwiseEngine vectorized(catalog_.get(), BaselineMode::kVectorized);
  auto vec = vectorized.Query(sql);
  ASSERT_TRUE(vec.ok()) << GetParam() << ": " << vec.status().ToString();
  ExpectResultsMatch(lh.value(), vec.value(),
                     std::string(GetParam()) + " vs vectorized");

  PairwiseEngine materialized(catalog_.get(), BaselineMode::kMaterialized);
  auto mat = materialized.Query(sql);
  ASSERT_TRUE(mat.ok()) << GetParam() << ": " << mat.status().ToString();
  ExpectResultsMatch(lh.value(), mat.value(),
                     std::string(GetParam()) + " vs materialized");
}

TEST_P(TpchQueryTest, AblationArmsAgreeWithDefault) {
  const std::string sql = TpchQuery(GetParam());
  auto expected = engine_->Query(sql);
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();

  QueryOptions no_elim;
  no_elim.use_attribute_elimination = false;
  auto r1 = engine_->Query(sql, no_elim);
  ASSERT_TRUE(r1.ok()) << GetParam() << ": " << r1.status().ToString();
  ExpectResultsMatch(r1.value(), expected.value(),
                     std::string(GetParam()) + " -attr-elim");

  QueryOptions worst;
  worst.order_mode = OrderMode::kWorst;
  auto r2 = engine_->Query(sql, worst);
  ASSERT_TRUE(r2.ok()) << GetParam() << ": " << r2.status().ToString();
  ExpectResultsMatch(r2.value(), expected.value(),
                     std::string(GetParam()) + " -attr-ord");
}

TEST_P(TpchQueryTest, NonEmptyResults) {
  // Selectivities at tiny SFs can produce small, but never absurd, outputs;
  // Q1 must have <= 6 flag/status groups, Q5 <= 5 nations, etc.
  auto r = engine_->Query(TpchQuery(GetParam()));
  ASSERT_TRUE(r.ok());
  if (std::string(GetParam()) == "q1") {
    EXPECT_GT(r.value().num_rows, 0u);
    EXPECT_LE(r.value().num_rows, 6u);
  }
  if (std::string(GetParam()) == "q6") {
    EXPECT_EQ(r.value().num_rows, 1u);
  }
}

TEST_P(TpchQueryTest, CompilesEveryExpressionWithoutFallback) {
  // Every filter, per-row aggregate argument, leaf aggregate argument and
  // group dimension runs as a compiled program; nothing falls back.
  auto r = engine_->QueryAnalyze(TpchQuery(GetParam()));
  ASSERT_TRUE(r.ok()) << GetParam() << ": " << r.status().ToString();
  const obs::StatsSnapshot& c = r.value().profile->counters;
  EXPECT_GT(c.expr_programs, 0u) << GetParam();
  EXPECT_EQ(c.expr_fallbacks, 0u) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(AllQueries, TpchQueryTest,
                         ::testing::Values("q1", "q3", "q5", "q6", "q8",
                                           "q9", "q10",
                                           // extensions beyond the paper
                                           "q12", "q14"));

// Every trie_build span splits its build into layers (filter, aggregate-
// argument compute, Trie::Build) and says how many rows it read and whether
// they came in key order; every semijoin span counts its roots.
TEST(TpchProfileTest, TrieBuildSpansCarryLayerMetrics) {
  Catalog catalog;
  ASSERT_TRUE(TpchGenerator(0.01).Populate(&catalog).ok());
  ASSERT_TRUE(catalog.Finalize().ok());
  const double lineitem_rows =
      static_cast<double>(catalog.GetTable("lineitem")->num_rows());
  Engine engine(&catalog);
  using Metrics = std::map<std::string, double>;
  auto spans_of = [&](const char* query, const std::string& name) {
    std::vector<std::pair<std::string, Metrics>> out;
    auto r = engine.QueryAnalyze(TpchQuery(query));
    EXPECT_TRUE(r.ok()) << query << ": " << r.status().ToString();
    if (!r.ok()) return out;
    for (const obs::SpanRecord& s : r.value().profile->spans) {
      if (s.name != name) continue;
      out.emplace_back(s.detail,
                       Metrics(s.metrics.begin(), s.metrics.end()));
    }
    return out;
  };

  bool saw_lineitem = false;
  for (const auto& [detail, m] : spans_of("q3", "trie_build")) {
    for (const char* key :
         {"filter_ms", "compute_ms", "build_ms", "selected", "sorted"}) {
      EXPECT_EQ(m.count(key), 1u) << detail << " lacks " << key;
    }
    if (detail != "lineitem [filtered]") continue;
    saw_lineitem = true;
    // The generator stores lineitem in orderkey order, so the selection
    // arrives sorted; the revenue argument is computed for the build.
    EXPECT_EQ(m.at("sorted"), 1);
    EXPECT_GT(m.at("selected"), 0);
    EXPECT_LT(m.at("selected"), lineitem_rows);
    EXPECT_GE(m.at("filter_ms"), 0);
    EXPECT_GT(m.at("compute_ms") + m.at("build_ms"), 0);
  }
  EXPECT_TRUE(saw_lineitem);

  // q8 builds orders in two GHD nodes; its filter runs once per query.
  std::vector<double> orders_filter_ms;
  for (const auto& [detail, m] : spans_of("q8", "trie_build")) {
    if (detail == "orders [filtered]") {
      orders_filter_ms.push_back(m.at("filter_ms"));
    }
  }
  ASSERT_EQ(orders_filter_ms.size(), 2u);
  EXPECT_EQ(orders_filter_ms[1], 0);
  const auto semijoins = spans_of("q8", "semijoin");
  ASSERT_FALSE(semijoins.empty());
  EXPECT_GT(semijoins[0].second.at("roots"), 0);
}

// LA queries over generated matrices: engines agree.
TEST(MatrixWorkloadTest, SmvAndSmmEnginesAgree) {
  Catalog catalog;
  SyntheticMatrix m = MakeBandedMatrix("m", 300, 2, 2, 5);
  ASSERT_TRUE(AddMatrixTable(&catalog, "m", "idx", m).ok());
  ASSERT_TRUE(AddVectorTable(&catalog, "x", "idx", 300, 6).ok());
  ASSERT_TRUE(catalog.Finalize().ok());

  Engine lh(&catalog);
  PairwiseEngine base(&catalog, BaselineMode::kVectorized);
  const char* kSmv =
      "SELECT m.r, sum(m.v * x.val) FROM m, x WHERE m.c = x.i GROUP BY m.r";
  const char* kSmm =
      "SELECT m1.r, m2.c, sum(m1.v * m2.v) FROM m m1, m m2 "
      "WHERE m1.c = m2.r GROUP BY m1.r, m2.c";
  for (const char* sql : {kSmv, kSmm}) {
    auto a = lh.Query(sql);
    ASSERT_TRUE(a.ok()) << a.status().ToString();
    auto b = base.Query(sql);
    ASSERT_TRUE(b.ok()) << b.status().ToString();
    ExpectResultsMatch(a.value(), b.value(), sql);
  }
}

// Sparse LA and graph queries: leaf programs compile at node setup, with
// no fallback. A plain triangle count has no expression to compile; the
// weighted triangle multiplies three relations' values at the leaf.
TEST(MatrixWorkloadTest, LeafProgramsCompileWithoutFallback) {
  Catalog catalog;
  SyntheticMatrix m = MakeBandedMatrix("m", 300, 2, 2, 5);
  ASSERT_TRUE(AddMatrixTable(&catalog, "m", "idx", m).ok());
  ASSERT_TRUE(AddVectorTable(&catalog, "x", "idx", 300, 6).ok());
  ASSERT_TRUE(catalog.Finalize().ok());
  Engine lh(&catalog);
  const char* kTriangle =
      "SELECT COUNT(*) FROM m e1, m e2, m e3 "
      "WHERE e1.c = e2.r AND e2.c = e3.c AND e3.r = e1.r";
  const struct {
    const char* sql;
    bool has_expressions;
  } kQueries[] = {
      {"SELECT m.r, sum(m.v * x.val) FROM m, x WHERE m.c = x.i GROUP BY m.r",
       true},
      {"SELECT m1.r, m2.c, sum(m1.v * m2.v) FROM m m1, m m2 "
       "WHERE m1.c = m2.r GROUP BY m1.r, m2.c",
       true},
      {kTriangle, false},
      {"SELECT SUM(e1.v * e2.v * e3.v) FROM m e1, m e2, m e3 "
       "WHERE e1.c = e2.r AND e2.c = e3.c AND e3.r = e1.r",
       true},
  };
  for (const auto& q : kQueries) {
    auto r = lh.QueryAnalyze(q.sql);
    ASSERT_TRUE(r.ok()) << q.sql << ": " << r.status().ToString();
    const obs::StatsSnapshot& c = r.value().profile->counters;
    EXPECT_EQ(c.expr_fallbacks, 0u) << q.sql;
    if (q.has_expressions) {
      EXPECT_GT(c.expr_programs, 0u) << q.sql;
    }
  }
}

}  // namespace
}  // namespace levelheaded
