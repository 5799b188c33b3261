// Differential tests for the typed expression bytecode VM (core/expr_vm.h),
// the engine's only row evaluator, and the fused scan kernels built on it
// (core/expr_kernels.h).
//
// Oracles: the tree-walking evaluator for single expressions — randomized
// trees compiled to ExprProgram bytecode must match the walker BIT FOR BIT,
// including NaN/inf produced by division and NaN-holding columns — and the
// brute-force reference executor (tests/reference_executor.h) for whole
// queries: fused scans, and 2–3-relation joins whose aggregate arguments
// and GROUP BY dimensions run as leaf programs (rank cursors, lookup
// relations, subrow-mode relations) over data with NaN, ±inf and 0
// divisors, at LH_THREADS 1 and 4.
//
// Registered under the `concurrency` ctest label so the TSan preset runs it.

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "baseline/expr_walker.h"
#include "core/engine.h"
#include "core/expr_eval.h"
#include "core/expr_vm.h"
#include "core/plan.h"
#include "obs/profile.h"
#include "reference_executor.h"
#include "sql/ast.h"
#include "sql/binder.h"
#include "sql/parser.h"
#include "util/date.h"
#include "util/like_matcher.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace levelheaded {
namespace {

using ::levelheaded::testing::ReferenceExecute;

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

uint64_t Bits(double v) {
  uint64_t b;
  std::memcpy(&b, &v, sizeof(b));
  return b;
}

/// The bits of `v`, with every NaN mapped to one pattern. IEEE leaves the
/// sign and payload of an operation on two NaNs unspecified (a compiler may
/// commute the operands), and no result depends on them: NaN is one value
/// under the total order.
uint64_t ValueBits(double v) {
  return std::isnan(v) ? Bits(kNaN) : Bits(v);
}

/// Parses and binds `sql`, then runs the reference executor on it.
QueryResult Reference(const std::string& sql, const Catalog& catalog) {
  auto parsed = ParseSelect(sql);
  EXPECT_TRUE(parsed.ok()) << sql << ": " << parsed.status().ToString();
  auto bound = Bind(parsed.TakeValue(), catalog);
  EXPECT_TRUE(bound.ok()) << sql << ": " << bound.status().ToString();
  return ReferenceExecute(bound.value());
}

// ---------------------------------------------------------------------------
// Randomized differential fuzz: ExprProgram vs the tree walker.

/// Row-indexed cell accessor over one table — the walker sees exactly what
/// the VM's typed loads see.
class RowCells : public CellAccessor {
 public:
  explicit RowCells(const Table& t) : t_(t) {}
  void set_row(uint32_t row) { row_ = row; }

  double Number(int, int col) const override {
    const ColumnData& c = t_.column(col);
    if (!c.ints.empty()) return static_cast<double>(c.ints[row_]);
    if (!c.reals.empty()) return c.reals[row_];
    return static_cast<double>(c.codes[row_]);
  }
  int64_t Code(int, int col) const override {
    return Dict(0, col) == nullptr ? -1 : t_.column(col).codes[row_];
  }
  const Dictionary* Dict(int, int col) const override {
    const ColumnData& c = t_.column(col);
    return c.dict != nullptr && c.dict->type() == ValueType::kString ? c.dict
                                                                     : nullptr;
  }

 private:
  const Table& t_;
  uint32_t row_ = 0;
};

class ExprVmFuzzTest : public ::testing::Test {
 protected:
  static constexpr uint32_t kRows = 1000;

  void SetUp() override {
    Table* t =
        catalog_
            .CreateTable(TableSchema(
                "s", {ColumnSpec::Key("k", ValueType::kInt64),
                      ColumnSpec::Annotation("qty", ValueType::kInt64),
                      ColumnSpec::Annotation("price", ValueType::kDouble),
                      ColumnSpec::Annotation("disc", ValueType::kDouble),
                      ColumnSpec::Annotation("day", ValueType::kDate),
                      ColumnSpec::Annotation("name", ValueType::kString),
                      ColumnSpec::Annotation("wild", ValueType::kDouble),
                      ColumnSpec::Annotation("tag", ValueType::kString),
                      // Two string keys over one domain share a dictionary.
                      ColumnSpec::Key("c1", ValueType::kString, "color"),
                      ColumnSpec::Key("c2", ValueType::kString, "color")}))
            .ValueOrDie();
    Rng rng(0xF00D);
    const char* names[] = {"forest green", "royal blue", "light green",
                           "dim grey",     "hot pink",   "navy"};
    const char* tags[] = {"apple", "dim grey", "navy", "zebra"};
    const double wild[] = {kNaN, -kNaN, kInf, -kInf, 0.0, -0.0, 1.5, -2.0};
    const int32_t epoch = ParseDate("1994-01-01").ValueOrDie();
    for (uint32_t i = 0; i < kRows; ++i) {
      // Zeros in qty/disc make division produce inf and NaN, and `wild`
      // holds NaN/±inf/±0 outright — the VM must agree with the walker on
      // those bit patterns and on every comparison over them.
      ASSERT_TRUE(
          t->AppendRow(
               {Value::Int(i), Value::Int(rng.Uniform(50)),
                Value::Real(rng.UniformDouble(-100, 100000)),
                Value::Real(rng.Bernoulli(0.1) ? 0.0
                                               : rng.UniformDouble(0, 0.1)),
                Value::Int(epoch + static_cast<int32_t>(rng.Uniform(2000))),
                Value::Str(names[rng.Uniform(6)]),
                Value::Real(wild[rng.Uniform(8)]),
                Value::Str(tags[rng.Uniform(4)]),
                Value::Str(names[rng.Uniform(6)]),
                Value::Str(names[rng.Uniform(6)])})
              .ok());
    }
    ASSERT_TRUE(catalog_.Finalize().ok());
    table_ = catalog_.GetTable("s");
  }

  ExprPtr Col(const char* name) {
    ExprPtr c = MakeColumnRef("", name);
    c->bound_rel = 0;
    c->bound_col = table_->schema().FindColumn(name);
    return c;
  }

  ExprPtr RandNum(Rng& rng, int depth) {
    if (depth <= 0 || rng.Bernoulli(0.3)) {
      switch (rng.Uniform(6)) {
        case 0:
          return MakeIntLiteral(static_cast<int64_t>(rng.Uniform(21)) - 10);
        case 1:
          return MakeRealLiteral(rng.UniformDouble(-5, 5));
        case 2:
          return Col("qty");
        case 3:
          return Col("price");
        case 4:
          return Col("wild");
        default:
          return Col("disc");
      }
    }
    switch (rng.Uniform(8)) {
      case 0:
        return MakeBinary(BinOp::kAdd, RandNum(rng, depth - 1),
                          RandNum(rng, depth - 1));
      case 1:
        return MakeBinary(BinOp::kSub, RandNum(rng, depth - 1),
                          RandNum(rng, depth - 1));
      case 2:
        return MakeBinary(BinOp::kMul, RandNum(rng, depth - 1),
                          RandNum(rng, depth - 1));
      case 3:
        // Division by qty/disc hits 0 on some rows: inf and 0/0 NaN.
        return MakeBinary(BinOp::kDiv, RandNum(rng, depth - 1),
                          RandNum(rng, depth - 1));
      case 4: {
        auto e = std::make_unique<Expr>(Expr::Kind::kUnaryMinus);
        e->children.push_back(RandNum(rng, depth - 1));
        return e;
      }
      case 5: {
        auto e = std::make_unique<Expr>(Expr::Kind::kCase);
        const int whens = 1 + static_cast<int>(rng.Uniform(3));
        for (int i = 0; i < whens; ++i) {
          e->children.push_back(RandBool(rng, depth - 1));
          e->children.push_back(RandNum(rng, depth - 1));
        }
        e->case_has_else = rng.Bernoulli(0.7);
        if (e->case_has_else) e->children.push_back(RandNum(rng, depth - 1));
        return e;
      }
      case 6: {
        auto e = std::make_unique<Expr>(Expr::Kind::kExtractYear);
        e->children.push_back(Col("day"));
        return e;
      }
      default:
        return RandBool(rng, depth - 1);
    }
  }

  ExprPtr RandString(Rng& rng) {
    static const char* kLiterals[] = {"dim grey", "absent", "m",  "navy",
                                      "zzz",      "",       "hot pink"};
    switch (rng.Uniform(4)) {
      case 0:
        return Col("name");
      case 1:
        return Col("tag");
      case 2:
        return Col(rng.Bernoulli(0.5) ? "c1" : "c2");
      default:
        return MakeStringLiteral(kLiterals[rng.Uniform(7)]);
    }
  }

  ExprPtr RandBool(Rng& rng, int depth) {
    static const BinOp kCmps[] = {BinOp::kEq, BinOp::kNe, BinOp::kLt,
                                  BinOp::kLe, BinOp::kGt, BinOp::kGe};
    if (depth <= 0 || rng.Bernoulli(0.25)) {
      return MakeBinary(kCmps[rng.Uniform(6)], RandNum(rng, 1),
                        RandNum(rng, 1));
    }
    switch (rng.Uniform(6)) {
      case 0:
        return MakeBinary(BinOp::kAnd, RandBool(rng, depth - 1),
                          RandBool(rng, depth - 1));
      case 1:
        return MakeBinary(BinOp::kOr, RandBool(rng, depth - 1),
                          RandBool(rng, depth - 1));
      case 2: {
        auto e = std::make_unique<Expr>(Expr::Kind::kNot);
        e->children.push_back(RandBool(rng, depth - 1));
        return e;
      }
      case 3: {
        auto e = std::make_unique<Expr>(Expr::Kind::kBetween);
        e->children.push_back(RandNum(rng, depth - 1));
        e->children.push_back(RandNum(rng, depth - 1));
        e->children.push_back(RandNum(rng, depth - 1));
        return e;
      }
      case 4:
        // Every string comparison shape: column vs literal (dictionary
        // codes), columns over one dictionary (code compare), columns over
        // different dictionaries (decode and compare), literal vs literal.
        return MakeBinary(kCmps[rng.Uniform(6)], RandString(rng),
                          RandString(rng));
      default: {
        auto e = std::make_unique<Expr>(Expr::Kind::kLike);
        e->children.push_back(rng.Bernoulli(0.8) ? Col("name")
                                                 : MakeStringLiteral("forest"));
        e->str_value = rng.Bernoulli(0.5) ? "%green%" : "%o%";
        e->compiled_like = std::make_shared<const LikeMatcher>(e->str_value);
        return e;
      }
    }
  }

  /// Compiles `e` (which must compile) and checks every row bit for bit
  /// against the walker through EvalRange, EvalAt and EvalGather.
  void ExpectMatchesWalker(const Expr& e, Rng& rng, const std::string& what) {
    ExprProgram prog;
    const Status s = ExprProgram::Compile(e, TableResolver(*table_), &prog);
    ASSERT_TRUE(s.ok()) << what << " " << e.ToString() << ": "
                        << s.ToString();
    RowCells cells(*table_);
    std::vector<double> got(kRows);
    for (uint32_t base = 0; base < kRows; base += ExprProgram::kBatch) {
      const int n = static_cast<int>(
          std::min<uint32_t>(ExprProgram::kBatch, kRows - base));
      prog.EvalRange(base, n, got.data() + base);
    }
    for (uint32_t r = 0; r < kRows; ++r) {
      cells.set_row(r);
      const double want = EvalNumber(e, cells);
      ASSERT_EQ(ValueBits(got[r]), ValueBits(want))
          << what << " row " << r << " expr " << e.ToString()
          << " vm=" << got[r] << " walker=" << want;
      // The width-1 entry point (the WCOJ leaf's) agrees with the batch one.
      ASSERT_EQ(ValueBits(prog.EvalAt(&r)), ValueBits(want)) << e.ToString();
    }
    // Gathered evaluation over a random row subset matches the dense run.
    std::vector<uint32_t> rows;
    for (uint32_t r = 0; r < kRows; ++r) {
      if (rng.Bernoulli(0.2)) rows.push_back(r);
    }
    std::vector<double> gathered;
    for (size_t base = 0; base < rows.size(); base += ExprProgram::kBatch) {
      const int n = static_cast<int>(
          std::min<size_t>(ExprProgram::kBatch, rows.size() - base));
      gathered.resize(n);
      prog.EvalGather(rows.data() + base, n, gathered.data());
      for (int j = 0; j < n; ++j) {
        ASSERT_EQ(ValueBits(gathered[j]), ValueBits(got[rows[base + j]]))
            << e.ToString();
      }
    }
  }

  Catalog catalog_;
  const Table* table_ = nullptr;
};

TEST_F(ExprVmFuzzTest, VmMatchesTreeWalkerBitForBit) {
  // The compiler is total: every generated (well-typed) tree compiles.
  Rng rng(0xE5901);
  for (int iter = 0; iter < 300; ++iter) {
    ExprPtr e = rng.Bernoulli(0.5) ? RandNum(rng, 4) : RandBool(rng, 3);
    ExpectMatchesWalker(*e, rng, "iter " + std::to_string(iter));
    if (HasFatalFailure()) return;
  }
}

TEST_F(ExprVmFuzzTest, DeepProgramsSpillTheValueStack) {
  // Right-nested arithmetic needs one stack slot per level, far past the
  // on-stack depth; a long CASE chain stays shallow. Both compile and match
  // the walker (the old compiler rejected both shapes).
  Rng rng(0xDEE9);
  ExprPtr deep = Col("qty");
  for (int i = 0; i < 40; ++i) {
    deep = MakeBinary(i % 2 == 0 ? BinOp::kAdd : BinOp::kMul,
                      Col(i % 3 == 0 ? "wild" : "price"), std::move(deep));
  }
  ExpectMatchesWalker(*deep, rng, "right-nested");
  auto chain = std::make_unique<Expr>(Expr::Kind::kCase);
  for (int i = 0; i < 30; ++i) {
    chain->children.push_back(
        MakeBinary(BinOp::kLt, Col("qty"), MakeIntLiteral(i + 5)));
    chain->children.push_back(MakeIntLiteral(i));
  }
  chain->case_has_else = true;
  chain->children.push_back(Col("wild"));
  ExpectMatchesWalker(*chain, rng, "30-WHEN CASE");
}

TEST_F(ExprVmFuzzTest, FilterRangeMatchesEvalBool) {
  Rng rng(0xF117E5);
  RowCells cells(*table_);
  std::vector<uint8_t> mask;
  for (int iter = 0; iter < 100; ++iter) {
    ExprPtr e = RandBool(rng, 3);
    ExprProgram prog;
    ASSERT_TRUE(
        ExprProgram::Compile(*e, TableResolver(*table_), &prog).ok())
        << e->ToString();
    for (uint32_t base = 0; base < kRows; base += ExprProgram::kBatch) {
      const int n = static_cast<int>(
          std::min<uint32_t>(ExprProgram::kBatch, kRows - base));
      mask.assign(n, 1);
      prog.FilterRange(base, n, mask.data());
      for (int j = 0; j < n; ++j) {
        cells.set_row(base + j);
        ASSERT_EQ(mask[j] != 0, EvalBool(*e, cells))
            << "iter " << iter << " row " << base + j << " expr "
            << e->ToString();
      }
    }
  }
}

TEST_F(ExprVmFuzzTest, RowFilterMatchesTreeWalker) {
  // Conjunctions mixing RowFilter's typed predicates — column vs literal
  // compares in both operand orders, BETWEEN, over columns holding NaN,
  // ±inf and ±0, including NaN and infinite thresholds — with general
  // programs. SelectedRows must equal the walker's per-row verdict.
  Rng rng(0xAB5EED);
  static const BinOp kCmps[] = {BinOp::kEq, BinOp::kNe, BinOp::kLt,
                                BinOp::kLe, BinOp::kGt, BinOp::kGe};
  const double thresholds[] = {0.0, -0.0, 1.5, -2.0, kInf, -kInf, kNaN, 50};
  const char* cols[] = {"wild", "price", "qty", "disc"};
  auto literal = [&] { return MakeRealLiteral(thresholds[rng.Uniform(8)]); };
  RowCells cells(*table_);
  for (int iter = 0; iter < 200; ++iter) {
    std::vector<ExprPtr> owned;
    const int n = 1 + static_cast<int>(rng.Uniform(3));
    for (int c = 0; c < n; ++c) {
      switch (rng.Uniform(4)) {
        case 0:
          owned.push_back(MakeBinary(kCmps[rng.Uniform(6)],
                                     Col(cols[rng.Uniform(4)]), literal()));
          break;
        case 1:
          owned.push_back(MakeBinary(kCmps[rng.Uniform(6)], literal(),
                                     Col(cols[rng.Uniform(4)])));
          break;
        case 2: {
          auto e = std::make_unique<Expr>(Expr::Kind::kBetween);
          e->children.push_back(Col(cols[rng.Uniform(4)]));
          e->children.push_back(literal());
          e->children.push_back(literal());
          owned.push_back(std::move(e));
          break;
        }
        default:
          owned.push_back(RandBool(rng, 2));
          break;
      }
    }
    std::vector<const Expr*> conjuncts;
    std::string what;
    for (const ExprPtr& e : owned) {
      conjuncts.push_back(e.get());
      what += e->ToString() + " AND ";
    }
    auto filter = RowFilter::Compile(conjuncts, *table_);
    ASSERT_TRUE(filter.ok()) << what << ": " << filter.status().ToString();
    std::vector<uint32_t> want;
    for (uint32_t r = 0; r < kRows; ++r) {
      cells.set_row(r);
      bool pass = true;
      for (const Expr* e : conjuncts) pass = pass && EvalBool(*e, cells);
      if (pass) want.push_back(r);
    }
    ASSERT_EQ(filter.value().SelectedRows(), want) << what;
  }
}

// ---------------------------------------------------------------------------
// Engine-level: fused scan kernels vs the reference executor, and across
// threads.

/// Bitwise result comparison — a last-ulp difference from reordered
/// floating-point accumulation fails the test.
void ExpectBitIdentical(const QueryResult& x, const QueryResult& y,
                        const std::string& what) {
  ASSERT_EQ(x.num_rows, y.num_rows) << what;
  ASSERT_EQ(x.columns.size(), y.columns.size()) << what;
  for (size_t c = 0; c < x.columns.size(); ++c) {
    const ResultColumn& xc = x.columns[c];
    const ResultColumn& yc = y.columns[c];
    EXPECT_EQ(xc.ints, yc.ints) << what << " column " << xc.name;
    EXPECT_EQ(xc.strs, yc.strs) << what << " column " << xc.name;
    EXPECT_EQ(xc.codes, yc.codes) << what << " column " << xc.name;
    ASSERT_EQ(xc.reals.size(), yc.reals.size()) << what;
    for (size_t i = 0; i < xc.reals.size(); ++i) {
      ASSERT_EQ(Bits(xc.reals[i]), Bits(yc.reals[i]))
          << what << " column " << xc.name << " row " << i << " ("
          << xc.reals[i] << " vs " << yc.reals[i] << ")";
    }
  }
}

class FusedScanTest : public ::testing::Test {
 protected:
  static constexpr int kRows = 20000;

  // TPC-H lineitem-shaped table at a size that spans many executor chunks,
  // so the thread-count runs genuinely merge parallel partials.
  void SetUp() override {
    Table* t =
        catalog_
            .CreateTable(TableSchema(
                "item",
                {ColumnSpec::Key("k", ValueType::kInt64),
                 ColumnSpec::Annotation("qty", ValueType::kDouble),
                 ColumnSpec::Annotation("price", ValueType::kDouble),
                 ColumnSpec::Annotation("disc", ValueType::kDouble),
                 ColumnSpec::Annotation("tax", ValueType::kDouble),
                 ColumnSpec::Annotation("day", ValueType::kDate),
                 ColumnSpec::Annotation("flag", ValueType::kString),
                 ColumnSpec::Annotation("status", ValueType::kString)}))
            .ValueOrDie();
    Rng rng(20260809);
    const char* flags[] = {"A", "N", "R"};
    const char* statuses[] = {"F", "O"};
    const int32_t base = ParseDate("1992-01-01").ValueOrDie();
    for (int i = 0; i < kRows; ++i) {
      ASSERT_TRUE(
          t->AppendRow(
               {Value::Int(i), Value::Real(1 + rng.Uniform(50)),
                // Magnitude-varying prices: accumulation order shows up in
                // the sum's low bits, so reordering cannot hide.
                Value::Real(rng.UniformDouble(900, 105000)),
                Value::Real(rng.Uniform(11) / 100.0),
                Value::Real(rng.Uniform(9) / 100.0),
                Value::Int(base + static_cast<int32_t>(rng.Uniform(2500))),
                Value::Str(flags[rng.Uniform(3)]),
                Value::Str(statuses[rng.Uniform(2)])})
              .ok());
    }
    ASSERT_TRUE(catalog_.Finalize().ok());
  }

  void TearDown() override {
    ThreadPool::SetGlobalThreadsForTesting(0);  // back to the default
  }

  static std::vector<std::string> Queries() {
    return {
        // TPC-H Q1 shape: string dims, shared arithmetic across aggregates.
        "SELECT flag, status, SUM(qty), SUM(price), "
        "SUM(price * (1 - disc)), SUM(price * (1 - disc) * (1 + tax)), "
        "AVG(qty), AVG(price), AVG(disc), COUNT(*) "
        "FROM item WHERE day <= date '1998-09-02' GROUP BY flag, status",
        // TPC-H Q6 shape: scalar aggregate under range + BETWEEN filters.
        "SELECT SUM(price * disc) FROM item "
        "WHERE day >= date '1994-01-01' AND day < date '1995-01-01' "
        "AND disc BETWEEN 0.05 AND 0.07 AND qty < 24",
        // Dimension needing per-row evaluation (EXTRACT) plus a filter.
        "SELECT EXTRACT(YEAR FROM day), COUNT(*), SUM(price) FROM item "
        "WHERE disc > 0.02 GROUP BY EXTRACT(YEAR FROM day)",
        // String orderings (dictionary code ranges) in a filter and a CASE.
        "SELECT status, SUM(CASE WHEN flag >= 'N' THEN price ELSE 0 END), "
        "MIN(qty) FROM item WHERE flag < 'R' OR status > 'F' GROUP BY status",
    };
  }

  Catalog catalog_;
};

/// Row-by-row comparison with a relative tolerance on numbers: the engine
/// and the reference sum in different orders. Rows pair up by sorting,
/// which orders them by their leading (exact) group columns.
void ExpectRowsNear(QueryResult actual, QueryResult expected,
                    const std::string& what) {
  ASSERT_EQ(actual.num_rows, expected.num_rows) << what;
  ASSERT_EQ(actual.columns.size(), expected.columns.size()) << what;
  actual.SortRows();
  expected.SortRows();
  for (size_t r = 0; r < actual.num_rows; ++r) {
    for (size_t c = 0; c < actual.columns.size(); ++c) {
      const Value a = actual.GetValue(r, static_cast<int>(c));
      const Value e = expected.GetValue(r, static_cast<int>(c));
      if (a.kind() == Value::Kind::kString) {
        EXPECT_EQ(a.AsStr(), e.AsStr()) << what << " row " << r;
      } else {
        EXPECT_NEAR(a.AsReal(), e.AsReal(), 1e-9 * std::abs(e.AsReal()))
            << what << " row " << r << " column " << c;
      }
    }
  }
}

TEST_F(FusedScanTest, CompiledScanMatchesReferenceExecutor) {
  Engine engine(&catalog_);
  for (const std::string& q : Queries()) {
    auto r = engine.Query(q);
    ASSERT_TRUE(r.ok()) << q << ": " << r.status().ToString();
    ExpectRowsNear(r.value(), Reference(q, catalog_), q);
  }
}

TEST_F(FusedScanTest, AttributeEliminationArmIsBitIdentical) {
  // The -Attr.Elim arm reads every column of each surviving row inside the
  // fused kernel; the extra reads must not change a single result bit.
  Engine engine(&catalog_);
  QueryOptions no_elim;
  no_elim.use_attribute_elimination = false;
  for (const std::string& q : Queries()) {
    auto a = engine.Query(q);
    auto b = engine.Query(q, no_elim);
    ASSERT_TRUE(a.ok()) << q << ": " << a.status().ToString();
    ASSERT_TRUE(b.ok()) << q << ": " << b.status().ToString();
    ExpectBitIdentical(a.value(), b.value(), q);
  }
}

TEST_F(FusedScanTest, FusedKernelEngagesAndCounts) {
  Engine engine(&catalog_);
  for (const std::string& q : Queries()) {
    auto r = engine.QueryAnalyze(q);
    ASSERT_TRUE(r.ok()) << q << ": " << r.status().ToString();
    ASSERT_NE(r.value().profile, nullptr);
    const obs::StatsSnapshot& c = r.value().profile->counters;
    EXPECT_GT(c.expr_fused_rows, 0u) << q;
    EXPECT_GT(c.expr_programs, 0u) << q;
    EXPECT_EQ(c.expr_fallbacks, 0u) << q;
    ExpectRowsNear(r.value(), Reference(q, catalog_), q);
  }
}

TEST_F(FusedScanTest, ResultsBitIdenticalAcrossThreadCounts) {
  // Reference at one thread, then wider pools must reproduce it bit for
  // bit: the fused kernel applies surviving rows in row order per chunk and
  // chunk partials merge in chunk order, so the floating-point fold never
  // moves with the pool size.
  std::vector<QueryResult> reference;
  ThreadPool::SetGlobalThreadsForTesting(1);
  {
    Engine engine(&catalog_);
    for (const std::string& q : Queries()) {
      auto r = engine.Query(q);
      ASSERT_TRUE(r.ok()) << q << ": " << r.status().ToString();
      r.value().SortRows();
      reference.push_back(std::move(r).value());
    }
  }
  for (int threads : {2, 8}) {
    ThreadPool::SetGlobalThreadsForTesting(threads);
    Engine engine(&catalog_);
    for (size_t i = 0; i < Queries().size(); ++i) {
      auto r = engine.Query(Queries()[i]);
      ASSERT_TRUE(r.ok()) << Queries()[i] << ": " << r.status().ToString();
      r.value().SortRows();
      ExpectBitIdentical(reference[i], r.value(),
                         Queries()[i] + " @ " + std::to_string(threads) +
                             " threads");
    }
  }
}

// ---------------------------------------------------------------------------
// Join-leaf differential fuzz: leaf programs vs the reference executor.

/// One result row as canonical strings. Numbers print exactly (%.17g);
/// every NaN prints as "nan" and -0 as 0, since the engine and the
/// reference may fold the same values in different orders.
std::vector<std::string> CanonicalRow(const QueryResult& r, size_t row) {
  std::vector<std::string> out;
  for (size_t c = 0; c < r.columns.size(); ++c) {
    const Value v = r.GetValue(row, static_cast<int>(c));
    if (v.kind() == Value::Kind::kString) {
      out.push_back("s:" + v.AsStr());
      continue;
    }
    const double d = v.AsReal();
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", d == 0 ? 0.0 : d);
    out.push_back(std::isnan(d) ? "nan" : buf);
  }
  return out;
}

void ExpectSameRows(const QueryResult& actual, const QueryResult& expected,
                    const std::string& what) {
  ASSERT_EQ(actual.columns.size(), expected.columns.size()) << what;
  std::vector<std::vector<std::string>> a, b;
  for (size_t r = 0; r < actual.num_rows; ++r) {
    a.push_back(CanonicalRow(actual, r));
  }
  for (size_t r = 0; r < expected.num_rows; ++r) {
    b.push_back(CanonicalRow(expected, r));
  }
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  ASSERT_EQ(a, b) << what;
}

class JoinLeafFuzzTest : public ::testing::Test {
 protected:
  // Numerators and power-of-two divisors keep every sum, product and
  // quotient exact, so folding order cannot change a result; NaN, ±inf,
  // ±0 and the 0 divisors exercise the comparison rule.
  static constexpr double kNums[] = {0,    1,    -3,   2.5, 0.25,
                                     6,    kNaN, kInf, -kInf, -0.0};
  static constexpr double kDivs[] = {0,    2,    -4,   0.5,
                                     1,    kInf, -kInf, kNaN, -0.0};

  void SetUp() override {
    Rng rng(0x1EAF);
    auto num = [&] { return Value::Real(kNums[rng.Uniform(10)]); };
    auto div = [&] { return Value::Real(kDivs[rng.Uniform(9)]); };
    const char* kS[] = {"ant", "bee", "cat", "dog"};
    const char* kT[] = {"bee", "cow", "dog", "eel"};
    Table* a = catalog_
                   .CreateTable(TableSchema(
                       "a", {ColumnSpec::Key("k", ValueType::kInt64, "k"),
                             ColumnSpec::Annotation("v", ValueType::kDouble),
                             ColumnSpec::Annotation("n", ValueType::kInt64),
                             ColumnSpec::Annotation("s", ValueType::kString)}))
                   .ValueOrDie();
    for (int k = 0; k < 24; ++k) {
      ASSERT_TRUE(a->AppendRow({Value::Int(k), num(),
                                Value::Int(rng.Uniform(6)),
                                Value::Str(kS[rng.Uniform(4)])})
                      .ok());
    }
    // b(k, j) joins a on k and c on j; several j per k, so a query that
    // does not join on j must enumerate b's rows (subrow mode).
    Table* b = catalog_
                   .CreateTable(TableSchema(
                       "b", {ColumnSpec::Key("k", ValueType::kInt64, "k"),
                             ColumnSpec::Key("j", ValueType::kInt64, "j"),
                             ColumnSpec::Annotation("w", ValueType::kDouble)}))
                   .ValueOrDie();
    for (int k = 0; k < 24; ++k) {
      for (int j = 0; j < 12; ++j) {
        if (rng.Bernoulli(0.15)) {
          ASSERT_TRUE(b->AppendRow({Value::Int(k), Value::Int(j), div()}).ok());
        }
      }
    }
    Table* c = catalog_
                   .CreateTable(TableSchema(
                       "c", {ColumnSpec::Key("j", ValueType::kInt64, "j"),
                             ColumnSpec::Key("m", ValueType::kInt64, "m"),
                             ColumnSpec::Annotation("x", ValueType::kDouble),
                             ColumnSpec::Annotation("t", ValueType::kString)}))
                   .ValueOrDie();
    for (int j = 0; j < 12; ++j) {
      ASSERT_TRUE(c->AppendRow({Value::Int(j), Value::Int(rng.Uniform(5)),
                                div(), Value::Str(kT[rng.Uniform(4)])})
                      .ok());
    }
    // e(m) hangs off c: a filtered e makes {c, e} a semijoin child whose
    // columns the root reads through lookups.
    Table* e = catalog_
                   .CreateTable(TableSchema(
                       "e", {ColumnSpec::Key("m", ValueType::kInt64, "m"),
                             ColumnSpec::Annotation("z", ValueType::kDouble)}))
                   .ValueOrDie();
    for (int m = 0; m < 5; ++m) {
      ASSERT_TRUE(e->AppendRow({Value::Int(m), num()}).ok());
    }
    // d: duplicate keys with differing values (subrow mode when d.y is
    // read at the leaf).
    Table* d = catalog_
                   .CreateTable(TableSchema(
                       "d", {ColumnSpec::Key("k", ValueType::kInt64, "k"),
                             ColumnSpec::Annotation("y", ValueType::kDouble)}))
                   .ValueOrDie();
    for (int i = 0; i < 30; ++i) {
      ASSERT_TRUE(
          d->AppendRow({Value::Int(rng.Uniform(12)), num()}).ok());
    }
    ASSERT_TRUE(catalog_.Finalize().ok());
  }

  void TearDown() override { ThreadPool::SetGlobalThreadsForTesting(0); }

  struct Shape {
    std::string from;  // FROM ... WHERE <joins>
    std::vector<std::string> nums, divs, strs;
    // Non-empty: the GROUP BY candidates (else strings, a.n and quotients).
    std::vector<std::string> dims = {};
    // COUNT(*) keeps a plan single-node (semijoin children drop
    // multiplicities), so the lookup shape leaves it out.
    bool count_star = true;
  };

  static std::string Pick(Rng& rng, const std::vector<std::string>& v) {
    return v[rng.Uniform(v.size())];
  }

  std::string Num(Rng& rng, const Shape& s, int depth) {
    static const char* kLits[] = {"0", "1", "2", "-1.5", "0.25", "3"};
    if (depth <= 0 || rng.Bernoulli(0.25)) {
      return rng.Bernoulli(0.75) ? Pick(rng, s.nums) : kLits[rng.Uniform(6)];
    }
    switch (rng.Uniform(6)) {
      case 0:
        return "(" + Num(rng, s, depth - 1) + " + " + Num(rng, s, depth - 1) +
               ")";
      case 1:
        return "(" + Num(rng, s, depth - 1) + " - " + Num(rng, s, depth - 1) +
               ")";
      case 2:
        return "(" + Num(rng, s, depth - 1) + " * " + Num(rng, s, depth - 1) +
               ")";
      case 3:
        return "(" + Num(rng, s, depth - 1) + " / " + Pick(rng, s.divs) + ")";
      case 4:
        return "(CASE WHEN " + Bool(rng, s, depth - 1) + " THEN " +
               Num(rng, s, depth - 1) + " ELSE " + Num(rng, s, depth - 1) +
               " END)";
      default:
        return "(-(" + Num(rng, s, depth - 1) + "))";
    }
  }

  std::string Bool(Rng& rng, const Shape& s, int depth) {
    static const char* kCmps[] = {"=", "<>", "<", "<=", ">", ">="};
    static const char* kLits[] = {"'bee'", "'cat'", "'zzz'", "'a'"};
    switch (depth <= 0 ? rng.Uniform(2) : rng.Uniform(7)) {
      case 0:
        return Num(rng, s, 1) + " " + kCmps[rng.Uniform(6)] + " " +
               Num(rng, s, 1);
      case 1:
        return Pick(rng, s.strs) + " " + kCmps[rng.Uniform(6)] + " " +
               (rng.Bernoulli(0.5) ? Pick(rng, s.strs) : kLits[rng.Uniform(4)]);
      case 2:
        return Pick(rng, s.strs) + " LIKE '%e%'";
      case 3:
        return Num(rng, s, depth - 1) + " BETWEEN " + Num(rng, s, 0) +
               " AND " + Num(rng, s, 0);
      case 4:
        return "NOT (" + Bool(rng, s, depth - 1) + ")";
      case 5:
        return "(" + Bool(rng, s, depth - 1) + " AND " +
               Bool(rng, s, depth - 1) + ")";
      default:
        return "(" + Bool(rng, s, depth - 1) + " OR " +
               Bool(rng, s, depth - 1) + ")";
    }
  }

  std::string RandomQuery(Rng& rng, const Shape& s) {
    std::vector<std::string> dims;
    const int ndims = static_cast<int>(rng.Uniform(3));
    for (int i = 0; i < ndims || (i == 0 && !s.dims.empty()); ++i) {
      if (!s.dims.empty()) {
        dims.push_back(Pick(rng, s.dims));
        if (dims.size() == 2 && dims[0] == dims[1]) dims.pop_back();
        continue;
      }
      switch (rng.Uniform(3)) {
        case 0:
          dims.push_back(Pick(rng, s.strs));  // string code dimension
          break;
        case 1:
          dims.push_back("a.n");  // integer dimension
          break;
        default:  // real, may be NaN, ±inf or -0
          dims.push_back("(" + Pick(rng, s.nums) + " / " + Pick(rng, s.divs) +
                         ")");
          break;
      }
    }
    std::string select, group;
    for (const std::string& d : dims) {
      select += d + ", ";
      group += (group.empty() ? " GROUP BY " : ", ") + d;
    }
    select += "SUM(" + Num(rng, s, 3) + "), MIN(" + Num(rng, s, 2) +
              "), MAX(" + Num(rng, s, 2) + "), AVG(" + Num(rng, s, 2) + ")";
    if (s.count_star) select += ", COUNT(*)";
    return "SELECT " + select + " FROM " + s.from + group;
  }

  Catalog catalog_;
};

TEST_F(JoinLeafFuzzTest, LeafProgramsMatchReferenceExecutor) {
  const std::vector<Shape> shapes = {
      // Two relations; b is iterated (subrow mode) whenever b.w is read.
      {"a, b WHERE a.k = b.k", {"a.v", "a.n", "b.w"}, {"b.w"}, {"a.s"}},
      // Three relations, every leaf load a rank cursor.
      {"a, b, c WHERE a.k = b.k AND b.j = c.j",
       {"a.v", "a.n", "b.w", "c.x"},
       {"b.w", "c.x"},
       {"a.s", "c.t"}},
      // The filtered {c, e} branch becomes a semijoin child; the group
      // dimensions read c's columns through a lookup on its root rank.
      {"a, b, c, e WHERE a.k = b.k AND b.j = c.j AND c.m = e.m AND e.z >= 0",
       {"a.v", "a.n", "b.w"},
       {"b.w"},
       {"a.s"},
       {"c.t", "(c.x / 2)", "(a.v * c.x)", "a.s"},
       /*count_star=*/false},
      // Duplicate keys with differing values: d is enumerated per row.
      {"a, d WHERE a.k = d.k AND a.v <> 1", {"a.v", "a.n", "d.y"}, {}, {"a.s"}},
  };
  Rng rng(0x5EED);
  Engine engine(&catalog_);
  int lookups = 0;
  for (size_t si = 0; si < shapes.size(); ++si) {
    Shape shape = shapes[si];
    if (shape.divs.empty()) shape.divs = {"2", "0"};
    for (int iter = 0; iter < 40; ++iter) {
      const std::string sql = RandomQuery(rng, shape);
      const QueryResult expected = Reference(sql, catalog_);
      auto bound = Bind(ParseSelect(sql).TakeValue(), catalog_);
      ASSERT_TRUE(bound.ok()) << sql;
      auto plan = BuildPlan(bound.TakeValue(), catalog_, QueryOptions());
      ASSERT_TRUE(plan.ok()) << sql << ": " << plan.status().ToString();
      if (!plan.value().nodes.empty() &&
          !plan.value().nodes[0].lookups.empty()) {
        ++lookups;
      }
      for (int threads : {1, 4}) {
        ThreadPool::SetGlobalThreadsForTesting(threads);
        auto r = engine.QueryAnalyze(sql);
        ASSERT_TRUE(r.ok()) << sql << ": " << r.status().ToString();
        EXPECT_EQ(r.value().profile->counters.expr_fallbacks, 0u) << sql;
        ExpectSameRows(r.value(), expected,
                       sql + " @ " + std::to_string(threads) + " threads");
        if (HasFatalFailure()) return;
      }
    }
  }
  // The lookup shape must really plan lookups, or the fuzz lost coverage.
  EXPECT_GT(lookups, 0);
}

}  // namespace
}  // namespace levelheaded
