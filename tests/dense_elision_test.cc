// Dense-probe elision: a trie level whose sets are the whole domain
// (TrieLevel::all_full()) is never intersected, and its rank is
// base_rank(set) + v. These differential tests pin the elided loops to
// reference kernels (SMV bit for bit against la::SpMVNaive, which sums in
// the same order; SMM against la::SpGEMM, and bit for bit across thread
// counts), check the shapes where no elision may happen (a
// vector with holes, a matrix with empty rows), and cover the BI and
// dense shapes that reach the same rule (a full dimension table, DMM
// without BLAS).

#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "baseline/pairwise_engine.h"
#include "core/engine.h"
#include "la/dense.h"
#include "la/sparse.h"
#include "obs/profile.h"
#include "reference_executor.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "workload/matrix_gen.h"

namespace levelheaded {
namespace {

using testing::ExpectResultsMatch;

uint64_t Bits(double d) {
  uint64_t b;
  std::memcpy(&b, &d, sizeof(b));
  return b;
}

/// Bitwise comparison of two results (doubles as raw bits, row order
/// included).
void ExpectBitIdentical(const QueryResult& x, const QueryResult& y,
                        const std::string& what) {
  ASSERT_EQ(x.num_rows, y.num_rows) << what;
  ASSERT_EQ(x.columns.size(), y.columns.size()) << what;
  for (size_t c = 0; c < x.columns.size(); ++c) {
    EXPECT_EQ(x.columns[c].ints, y.columns[c].ints) << what;
    ASSERT_EQ(x.columns[c].reals.size(), y.columns[c].reals.size()) << what;
    for (size_t i = 0; i < x.columns[c].reals.size(); ++i) {
      ASSERT_EQ(Bits(x.columns[c].reals[i]), Bits(y.columns[c].reals[i]))
          << what << " column " << c << " row " << i;
    }
  }
}

/// Random n x n matrix with `per_row` entries per row (the diagonal always
/// among them), except that rows with `r % empty_every == 0` stay empty
/// when `empty_every` > 0.
CooMatrix RandomMatrix(int64_t n, int per_row, int empty_every,
                       uint64_t seed) {
  CooMatrix m;
  m.num_rows = n;
  m.num_cols = n;
  Rng rng(seed);
  for (int64_t r = 0; r < n; ++r) {
    if (empty_every > 0 && r % empty_every == 0) continue;
    std::set<uint32_t> cols{static_cast<uint32_t>(r)};
    while (cols.size() < static_cast<size_t>(per_row)) {
      cols.insert(static_cast<uint32_t>(rng.Uniform(n)));
    }
    for (uint32_t c : cols) {
      m.rows.push_back(static_cast<uint32_t>(r));
      m.cols.push_back(c);
      m.values.push_back(rng.UniformDouble(-1, 1));
    }
  }
  return m;
}

/// Vector table (i key over `domain`, val) holding x[i] for every i with
/// `present(i)`.
template <typename Present>
void AddVector(Catalog* catalog, const std::string& name,
               const std::string& domain, const std::vector<double>& x,
               Present&& present) {
  Table* t = catalog
                 ->CreateTable(TableSchema(
                     name, {ColumnSpec::Key("i", ValueType::kInt64, domain),
                            ColumnSpec::Annotation("val", ValueType::kDouble)}))
                 .ValueOrDie();
  for (size_t i = 0; i < x.size(); ++i) {
    if (!present(i)) continue;
    ASSERT_TRUE(
        t->AppendRow({Value::Int(static_cast<int64_t>(i)), Value::Real(x[i])})
            .ok());
  }
}

std::vector<double> RandomValues(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> v(n);
  for (double& d : v) d = rng.UniformDouble(-1, 1);
  return v;
}

std::string SmvSql(const std::string& m, const std::string& x) {
  return "SELECT m.r, sum(m.v * x.val) FROM " + m + " m, " + x +
         " x WHERE m.c = x.i GROUP BY m.r";
}

std::string SmmSql(const std::string& m) {
  return "SELECT m1.r, m2.c, sum(m1.v * m2.v) FROM " + m + " m1, " + m +
         " m2 WHERE m1.c = m2.r GROUP BY m1.r, m2.c";
}

class DenseElisionTest : public ::testing::Test {
 protected:
  static constexpr int64_t kN = 300;       // domain "d"
  static constexpr int64_t kSmall = 60;    // matrix "ml" in domain "dl"
  static constexpr int64_t kLarge = 150;   // vector "xl" in domain "dl"
  static constexpr int64_t kDense = 24;    // DMM side
  static constexpr int64_t kWide = 4096;   // matrix "mw" in domain "dw"
  static constexpr int kNations = 25;

  void SetUp() override {
    full_ = RandomMatrix(kN, 9, 0, 11);
    holes_ = RandomMatrix(kN, 7, 5, 12);
    small_ = RandomMatrix(kSmall, 6, 0, 13);
    wide_ = RandomMatrix(kWide, 2, 0, 14);
    x_ = RandomValues(kN, 21);
    xl_ = RandomValues(kLarge, 22);
    ASSERT_TRUE(AddMatrixTable(&catalog_, "m", "d", {"m", full_}).ok());
    ASSERT_TRUE(AddMatrixTable(&catalog_, "me", "d", {"me", holes_}).ok());
    AddVector(&catalog_, "x", "d", x_, [](size_t) { return true; });
    AddVector(&catalog_, "xh", "d", x_, [](size_t i) { return i % 3 != 1; });
    ASSERT_TRUE(AddMatrixTable(&catalog_, "ml", "dl", {"ml", small_}).ok());
    AddVector(&catalog_, "xl", "dl", xl_, [](size_t) { return true; });
    ASSERT_TRUE(AddMatrixTable(&catalog_, "mw", "dw", {"mw", wide_}).ok());
    AddDense("da", 31);
    AddDense("db", 32);
    AddNationAndCustomers();
    ASSERT_TRUE(catalog_.Finalize().ok());
  }

  void TearDown() override { ThreadPool::SetGlobalThreadsForTesting(0); }

  void AddDense(const std::string& name, uint64_t seed) {
    Table* t = catalog_
                   .CreateTable(TableSchema(
                       name, {ColumnSpec::Key("r", ValueType::kInt64, "dd"),
                              ColumnSpec::Key("c", ValueType::kInt64, "dd"),
                              ColumnSpec::Annotation("v", ValueType::kDouble)}))
                   .ValueOrDie();
    std::vector<double>& vals = dense_[name];
    vals = RandomValues(static_cast<size_t>(kDense * kDense), seed);
    for (int64_t r = 0; r < kDense; ++r) {
      for (int64_t c = 0; c < kDense; ++c) {
        ASSERT_TRUE(t->AppendRow({Value::Int(r), Value::Int(c),
                                  Value::Real(vals[r * kDense + c])})
                        .ok());
      }
    }
  }

  /// A nation-like dimension table covering its whole key domain, and a
  /// fact table referencing it.
  void AddNationAndCustomers() {
    Table* nation =
        catalog_
            .CreateTable(TableSchema(
                "nation",
                {ColumnSpec::Key("n_nationkey", ValueType::kInt64, "nationkey"),
                 ColumnSpec::Annotation("n_name", ValueType::kString),
                 ColumnSpec::Annotation("n_weight", ValueType::kDouble)}))
            .ValueOrDie();
    for (int n = 0; n < kNations; ++n) {
      ASSERT_TRUE(nation
                      ->AppendRow({Value::Int(n),
                                   Value::Str("NATION_" + std::to_string(n)),
                                   Value::Real(1.0 + n / 8.0)})
                      .ok());
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
    Rng rng(0xD1);
    for (int c = 0; c < 400; ++c) {
      ASSERT_TRUE(
          customer
              ->AppendRow({Value::Int(c),
                           Value::Int(static_cast<int64_t>(rng.Uniform(20))),
                           Value::Real(rng.UniformDouble(-100, 900))})
              .ok());
    }
  }

  /// Runs `sql` with a profile; returns the result and its counters.
  std::pair<QueryResult, obs::StatsSnapshot> Analyze(
      Engine* engine, const std::string& sql,
      const QueryOptions& options = QueryOptions()) {
    auto r = engine->QueryAnalyze(sql, options);
    EXPECT_TRUE(r.ok()) << sql << ": " << r.status().ToString();
    if (!r.ok()) return {};
    obs::StatsSnapshot counters = r.value().profile->counters;
    return {std::move(r).value(), counters};
  }

  /// The engine's SMV result must equal SpMVNaive bit for bit on every
  /// row the join produces (rows whose entries all miss x are absent).
  void ExpectSmvMatchesNaive(const QueryResult& r, const CooMatrix& m,
                             const std::vector<double>& x,
                             const std::vector<bool>& present) {
    CooMatrix kept = m;
    kept.rows.clear();
    kept.cols.clear();
    kept.values.clear();
    for (size_t i = 0; i < m.nnz(); ++i) {
      if (!present[m.cols[i]]) continue;
      kept.rows.push_back(m.rows[i]);
      kept.cols.push_back(m.cols[i]);
      kept.values.push_back(m.values[i]);
    }
    const CsrMatrix csr = CooToCsr(kept);
    std::vector<double> y(static_cast<size_t>(csr.num_rows));
    SpMVNaive(csr, x.data(), y.data());
    std::vector<int64_t> rows;
    for (int64_t i = 0; i < csr.num_rows; ++i) {
      if (csr.row_ptr[i + 1] > csr.row_ptr[i]) rows.push_back(i);
    }
    ASSERT_EQ(r.num_rows, rows.size());
    for (size_t i = 0; i < r.num_rows; ++i) {
      ASSERT_EQ(r.columns[0].ints[i], rows[i]);
      EXPECT_EQ(Bits(r.columns[1].reals[i]), Bits(y[rows[i]]))
          << "row " << rows[i];
    }
  }

  Catalog catalog_;
  CooMatrix full_, holes_, small_, wide_;
  std::vector<double> x_, xl_;
  std::map<std::string, std::vector<double>> dense_;
};

TEST_F(DenseElisionTest, SmvOverFullVectorMatchesNaiveBitwise) {
  Engine engine(&catalog_);
  auto [r, c] = Analyze(&engine, SmvSql("m", "x"));
  ExpectSmvMatchesNaive(r, full_, x_, std::vector<bool>(kN, true));
  // One skipped intersection per matrix row, and no kernel call at all.
  EXPECT_EQ(c.TotalIntersections(), 0u);
  EXPECT_EQ(c.intersect_elided, static_cast<uint64_t>(kN));
}

TEST_F(DenseElisionTest, SmvOverVectorWithHolesIntersects) {
  Engine engine(&catalog_);
  auto [r, c] = Analyze(&engine, SmvSql("m", "xh"));
  std::vector<bool> present(kN);
  for (int64_t i = 0; i < kN; ++i) present[i] = i % 3 != 1;
  ExpectSmvMatchesNaive(r, full_, x_, present);
  EXPECT_EQ(c.intersect_elided, 0u);
  EXPECT_EQ(c.TotalIntersections(), static_cast<uint64_t>(kN));
}

TEST_F(DenseElisionTest, SmvOverLargerVectorDomainMatchesNaiveBitwise) {
  Engine engine(&catalog_);
  auto [r, c] = Analyze(&engine, SmvSql("ml", "xl"));
  ExpectSmvMatchesNaive(r, small_, xl_, std::vector<bool>(kLarge, true));
  EXPECT_EQ(c.TotalIntersections(), 0u);
  EXPECT_GT(c.intersect_elided, 0u);
}

// "mw" has two entries per row spread over a wide domain, so its output
// rows are hypersparse: few touched values spread over many bitmap words.
TEST_F(DenseElisionTest, SmmMatchesSpGemmAndIsThreadAndShardInvariant) {
  for (const std::string m : {"m", "me", "mw"}) {
    const CooMatrix& coo = m == "m" ? full_ : m == "me" ? holes_ : wide_;
    ThreadPool::SetGlobalThreadsForTesting(1);
    QueryResult reference;
    obs::StatsSnapshot counters;
    {
      Engine engine(&catalog_);
      std::tie(reference, counters) = Analyze(&engine, SmmSql(m));
    }
    if (m != "me") {
      // Every row non-empty: m2's root level is full, so the k loop
      // iterates m1's row with no intersection and no Rank() probe.
      EXPECT_EQ(counters.TotalIntersections(), 0u);
      EXPECT_GT(counters.intersect_elided, 0u);
    } else {
      // Empty rows: the root level is not full and is intersected.
      EXPECT_EQ(counters.intersect_elided, 0u);
      EXPECT_GT(counters.TotalIntersections(), 0u);
    }
    // Gustavson's loop sums in the same order as the engine; whether the
    // compiler fuses a multiply-add differs between the two loops, so the
    // values agree to rounding, not bitwise.
    const CsrMatrix csr = CooToCsr(coo);
    const CsrMatrix c = SpGEMM(csr, csr);
    ASSERT_EQ(reference.num_rows, c.nnz()) << m;
    size_t k = 0;
    for (int64_t row = 0; row < c.num_rows; ++row) {
      for (int64_t j = c.row_ptr[row]; j < c.row_ptr[row + 1]; ++j, ++k) {
        ASSERT_EQ(reference.columns[0].ints[k], row) << m;
        ASSERT_EQ(reference.columns[1].ints[k], c.col_idx[j]) << m;
        ASSERT_NEAR(reference.columns[2].reals[k], c.values[j], 1e-12)
            << m << " (" << row << "," << c.col_idx[j] << ")";
      }
    }
    for (int threads : {2, 8}) {
      ThreadPool::SetGlobalThreadsForTesting(threads);
      Engine engine(&catalog_);
      auto r = engine.Query(SmmSql(m));
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      ExpectBitIdentical(reference, r.value(),
                         m + " @ " + std::to_string(threads) + " threads");
    }
  }
}

TEST_F(DenseElisionTest, JoinOnFullDimensionTableMatchesPairwise) {
  const std::string sql =
      "SELECT n_name, sum(c_acctbal * n_weight), count(*) "
      "FROM customer, nation WHERE c_nationkey = n_nationkey GROUP BY n_name";
  Engine engine(&catalog_);
  auto [r, c] = Analyze(&engine, sql);
  EXPECT_GT(c.intersect_elided, 0u);
  PairwiseEngine pairwise(&catalog_, BaselineMode::kVectorized);
  auto expected = pairwise.Query(sql);
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();
  ExpectResultsMatch(r, expected.value(), sql);
}

TEST_F(DenseElisionTest, DmmWithoutBlasMatchesGemm) {
  QueryOptions options;
  options.enable_blas = false;
  Engine engine(&catalog_);
  auto [r, c] = Analyze(&engine,
                        "SELECT a.r, b.c, sum(a.v * b.v) FROM da a, db b "
                        "WHERE a.c = b.r GROUP BY a.r, b.c",
                        options);
  // Every level of both tries is full: nothing is intersected.
  EXPECT_EQ(c.TotalIntersections(), 0u);
  EXPECT_GT(c.intersect_elided, 0u);
  std::vector<double> expected(static_cast<size_t>(kDense * kDense));
  Gemm(kDense, kDense, kDense, dense_["da"].data(), dense_["db"].data(),
       expected.data());
  ASSERT_EQ(r.num_rows, expected.size());
  for (size_t i = 0; i < r.num_rows; ++i) {
    const int64_t row = r.columns[0].ints[i];
    const int64_t col = r.columns[1].ints[i];
    ASSERT_EQ(row * kDense + col, static_cast<int64_t>(i));
    EXPECT_NEAR(r.columns[2].reals[i], expected[i], 1e-12)
        << "(" << row << "," << col << ")";
  }
}

// A full level spans [0, full_size()); the rank arithmetic is only in
// bounds because no join partner can hold a larger code. That holds
// because a catalog's domains are built once, by Finalize: a domain
// cannot grow under a cached full trie.
TEST_F(DenseElisionTest, DomainCannotGrowUnderCachedFullTrie) {
  Engine engine(&catalog_);
  auto before = engine.Query(SmvSql("m", "x"));
  ASSERT_TRUE(before.ok());
  const size_t domain = catalog_.GetDomain("d")->size();
  EXPECT_FALSE(catalog_.Finalize().ok());
  EXPECT_EQ(catalog_.GetDomain("d")->size(), domain);
  auto after = engine.Query(SmvSql("m", "x"));
  ASSERT_TRUE(after.ok());
  ExpectBitIdentical(before.value(), after.value(), "cached SMV re-run");
}

}  // namespace
}  // namespace levelheaded
