#include <algorithm>
#include <functional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "baseline/expr_walker.h"
#include "core/expr_eval.h"
#include "obs/stats.h"
#include "sql/binder.h"
#include "sql/parser.h"
#include "util/date.h"
#include "util/like_matcher.h"
#include "util/thread_pool.h"

namespace levelheaded {
namespace {

TEST(LikeMatcherTest, BackslashEscapes) {
  // Failing before: '%' and '_' were always wildcards, so a literal percent
  // or underscore was unmatchable. Backslash escapes the next character.
  EXPECT_TRUE(LikeMatcher("100\\%").Matches("100%"));
  EXPECT_FALSE(LikeMatcher("100\\%").Matches("100%%"));
  EXPECT_FALSE(LikeMatcher("100\\%").Matches("1000"));
  EXPECT_TRUE(LikeMatcher("a\\_b").Matches("a_b"));
  EXPECT_FALSE(LikeMatcher("a\\_b").Matches("axb"));
  // Escaped backslash is a literal backslash; the char after it keeps its
  // wildcard meaning.
  EXPECT_TRUE(LikeMatcher("a\\\\%").Matches("a\\anything"));
  EXPECT_FALSE(LikeMatcher("a\\\\%").Matches("ab"));
  // Escaping an ordinary character is that character.
  EXPECT_TRUE(LikeMatcher("\\a%").Matches("abc"));
  // A trailing lone backslash matches a literal backslash (no next char to
  // escape).
  EXPECT_TRUE(LikeMatcher("x\\").Matches("x\\"));
  EXPECT_FALSE(LikeMatcher("x\\").Matches("x"));
  // Escapes compose with real wildcards and backtracking.
  EXPECT_TRUE(LikeMatcher("%\\%off%").Matches("save 20%off today"));
  EXPECT_FALSE(LikeMatcher("%\\%off%").Matches("save 20 off today"));
  EXPECT_TRUE(LikeMatcher("%\\_%").Matches("snake_case"));
  EXPECT_FALSE(LikeMatcher("%\\_%").Matches("kebab-case"));
}

TEST(LikeMatcherTest, ExactAndWildcards) {
  EXPECT_TRUE(LikeMatcher("abc").Matches("abc"));
  EXPECT_FALSE(LikeMatcher("abc").Matches("abcd"));
  EXPECT_TRUE(LikeMatcher("%green%").Matches("forest green metal"));
  EXPECT_TRUE(LikeMatcher("%green%").Matches("green"));
  EXPECT_FALSE(LikeMatcher("%green%").Matches("gren"));
  EXPECT_TRUE(LikeMatcher("a%c").Matches("abbbbc"));
  EXPECT_TRUE(LikeMatcher("a%c").Matches("ac"));
  EXPECT_FALSE(LikeMatcher("a%c").Matches("acb"));
  EXPECT_TRUE(LikeMatcher("a_c").Matches("abc"));
  EXPECT_FALSE(LikeMatcher("a_c").Matches("ac"));
  EXPECT_TRUE(LikeMatcher("%").Matches(""));
  EXPECT_TRUE(LikeMatcher("").Matches(""));
  EXPECT_FALSE(LikeMatcher("").Matches("x"));
  EXPECT_TRUE(LikeMatcher("%%b%").Matches("ab"));
  // Backtracking case: first % match must retreat.
  EXPECT_TRUE(LikeMatcher("%ab%ab").Matches("abxabab"));
}

class RowFilterTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Table* t =
        catalog_
            .CreateTable(TableSchema(
                "t", {ColumnSpec::Key("k", ValueType::kInt64),
                      ColumnSpec::Annotation("num", ValueType::kDouble),
                      ColumnSpec::Annotation("day", ValueType::kDate),
                      ColumnSpec::Annotation("name", ValueType::kString)}))
            .ValueOrDie();
    const char* names[] = {"forest green", "royal blue", "light green",
                           "dim grey", "hot pink"};
    for (int i = 0; i < 5; ++i) {
      ASSERT_TRUE(t->AppendRow({Value::Int(i), Value::Real(i * 1.5),
                                Value::Int(ParseDate("1994-01-01")
                                               .ValueOrDie() +
                                           i * 100),
                                Value::Str(names[i])})
                      .ok());
    }
    ASSERT_TRUE(catalog_.Finalize().ok());
    table_ = catalog_.GetTable("t");
  }

  std::vector<uint32_t> Select(const std::string& predicate) {
    auto parsed =
        ParseSelect("SELECT k FROM t WHERE " + predicate);
    EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
    auto bound = Bind(parsed.TakeValue(), catalog_);
    EXPECT_TRUE(bound.ok()) << bound.status().ToString();
    bound_queries_.push_back(
        std::make_unique<LogicalQuery>(bound.TakeValue()));
    const LogicalQuery& q = *bound_queries_.back();
    std::vector<const Expr*> conjuncts;
    for (const ExprPtr& f : q.relations[0].filters) {
      conjuncts.push_back(f.get());
    }
    auto filter = RowFilter::Compile(conjuncts, *table_);
    EXPECT_TRUE(filter.ok());
    return filter.value().SelectedRows();
  }

  Catalog catalog_;
  const Table* table_ = nullptr;
  std::vector<std::unique_ptr<LogicalQuery>> bound_queries_;
};

TEST_F(RowFilterTest, NumericComparisons) {
  EXPECT_EQ(Select("num > 3"), (std::vector<uint32_t>{3, 4}));
  EXPECT_EQ(Select("num <= 1.5"), (std::vector<uint32_t>{0, 1}));
  EXPECT_EQ(Select("num = 3"), (std::vector<uint32_t>{2}));
  EXPECT_EQ(Select("num <> 3"), (std::vector<uint32_t>{0, 1, 3, 4}));
  EXPECT_EQ(Select("3 < num"), (std::vector<uint32_t>{3, 4}));  // flipped
}

TEST_F(RowFilterTest, BetweenAndDates) {
  EXPECT_EQ(Select("num BETWEEN 1.5 AND 4.5"),
            (std::vector<uint32_t>{1, 2, 3}));
  EXPECT_EQ(Select("day >= date '1994-07-01'"),
            (std::vector<uint32_t>{2, 3, 4}));
  EXPECT_EQ(Select("day < date '1994-01-01' + interval '150' day"),
            (std::vector<uint32_t>{0, 1}));
}

TEST_F(RowFilterTest, StringEqualityViaCodes) {
  EXPECT_EQ(Select("name = 'dim grey'"), (std::vector<uint32_t>{3}));
  EXPECT_EQ(Select("name <> 'dim grey'").size(), 4u);
  // Literal absent from the dictionary: never matches.
  EXPECT_TRUE(Select("name = 'nope'").empty());
  EXPECT_EQ(Select("name <> 'nope'").size(), 5u);
}

TEST_F(RowFilterTest, LikeUsesDictionaryBitmap) {
  EXPECT_EQ(Select("name LIKE '%green%'"), (std::vector<uint32_t>{0, 2}));
  EXPECT_EQ(Select("NOT name LIKE '%green%'"),
            (std::vector<uint32_t>{1, 3, 4}));
}

TEST_F(RowFilterTest, GenericFallbackOrAndCase) {
  EXPECT_EQ(Select("num > 4 OR name = 'royal blue'"),
            (std::vector<uint32_t>{1, 3, 4}));
  EXPECT_EQ(Select("num + k > 7"), (std::vector<uint32_t>{3, 4}));
}

TEST_F(RowFilterTest, ConjunctionShortCircuits) {
  EXPECT_EQ(Select("num > 1 AND name LIKE '%g%' AND day < "
                   "date '1995-01-01'"),
            (std::vector<uint32_t>{2, 3}));
}

TEST_F(RowFilterTest, BinderPrecompilesLikeMatchers) {
  // LIKE under an OR runs as a bytecode program. The binder attaches a
  // compiled matcher to the expression, so neither the program's bitmap
  // build nor the walker recompiles the pattern (expr.like_compiles counts
  // fallback compilations and must stay zero for bound queries).
  obs::ExecStats stats;
  {
    obs::StatsScope scope(&stats);
    EXPECT_EQ(Select("num > 100 OR name LIKE '%green%'"),
              (std::vector<uint32_t>{0, 2}));
  }
  EXPECT_EQ(stats.Snapshot().expr_like_compiles, 0u);
}

/// The tree walker's view of one table row.
class WalkerRowCells : public CellAccessor {
 public:
  explicit WalkerRowCells(const Table& t) : t_(t) {}
  uint32_t row = 0;

  double Number(int, int col) const override {
    const ColumnData& c = t_.column(col);
    if (!c.ints.empty()) return static_cast<double>(c.ints[row]);
    if (!c.reals.empty()) return c.reals[row];
    return static_cast<double>(c.codes[row]);
  }
  int64_t Code(int, int col) const override {
    return Dict(0, col) == nullptr ? -1 : t_.column(col).codes[row];
  }
  const Dictionary* Dict(int, int col) const override {
    const ColumnData& c = t_.column(col);
    return c.dict != nullptr && c.dict->type() == ValueType::kString ? c.dict
                                                                     : nullptr;
  }

 private:
  const Table& t_;
};

TEST_F(RowFilterTest, UncompiledLikeFallsBackOncePerRow) {
  // Strip the binder's precompiled matcher: the tree walker (the pairwise
  // baseline's evaluator and the tests' oracle) falls back to compiling the
  // pattern on every row and reports each compile. This is the per-row
  // cost the eager binder compilation removes. RowFilter's bytecode builds
  // its LIKE bitmap once at compile time, so it never recompiles.
  auto parsed = ParseSelect(
      "SELECT k FROM t WHERE num > 100 OR name LIKE '%green%'");
  ASSERT_TRUE(parsed.ok());
  auto bound = Bind(parsed.TakeValue(), catalog_);
  ASSERT_TRUE(bound.ok()) << bound.status().ToString();
  LogicalQuery q = bound.TakeValue();
  std::function<void(Expr*)> strip = [&strip](Expr* e) {
    e->compiled_like = nullptr;
    for (ExprPtr& c : e->children) strip(c.get());
  };
  std::vector<const Expr*> conjuncts;
  for (const ExprPtr& f : q.relations[0].filters) {
    strip(f.get());
    conjuncts.push_back(f.get());
  }
  obs::ExecStats stats;
  {
    obs::StatsScope scope(&stats);
    auto filter = RowFilter::Compile(conjuncts, *table_);
    ASSERT_TRUE(filter.ok());
    EXPECT_EQ(filter.value().SelectedRows(), (std::vector<uint32_t>{0, 2}));
  }
  EXPECT_EQ(stats.Snapshot().expr_like_compiles, 0u);
  {
    obs::StatsScope scope(&stats);
    WalkerRowCells cells(*table_);
    std::vector<uint32_t> selected;
    for (cells.row = 0; cells.row < table_->num_rows(); ++cells.row) {
      if (EvalBool(*conjuncts[0], cells)) selected.push_back(cells.row);
    }
    EXPECT_EQ(selected, (std::vector<uint32_t>{0, 2}));
  }
  // One fallback compile per evaluated row (the OR's left arm never
  // short-circuits for this data), versus zero when bound normally.
  EXPECT_EQ(stats.Snapshot().expr_like_compiles, 5u);
}

// ---------------------------------------------------------------------------
// Regression tests: type-confusion bugs fixed in this PR.
// ---------------------------------------------------------------------------

/// Cell accessor for expressions with no column references.
class NullCells : public CellAccessor {
 public:
  double Number(int, int) const override { return 0; }
  int64_t Code(int, int) const override { return -1; }
  const Dictionary* Dict(int, int) const override { return nullptr; }
};

TEST(EvalValueTest, IntervalLiteralRendersAsInt) {
  // Interval literals are integral day counts; EvalValue used to omit them
  // from the integral-render list and materialize them as Real.
  Expr e(Expr::Kind::kIntervalLiteral);
  e.int_value = 90;
  NullCells cells;
  Value v = EvalValue(e, cells);
  ASSERT_EQ(v.kind(), Value::Kind::kInt);
  EXPECT_EQ(v.AsInt(), 90);
}

// SelectedRows cuts a table of several chunks across the pool; their
// concatenation must equal one serial FilterRange sweep, row for row. A
// typed compare, the LIKE bitmap and the program path each lead once.
TEST(RowFilterChunkTest, ChunkedSelectionEqualsSerialSweep) {
  const int kRows = static_cast<int>(3 * RowFilter::kMinChunkRows + 123);
  Catalog catalog;
  Table* t = catalog
                 .CreateTable(TableSchema(
                     "big", {ColumnSpec::Key("k", ValueType::kInt64),
                             ColumnSpec::Annotation("num", ValueType::kDouble),
                             ColumnSpec::Annotation("name",
                                                    ValueType::kString)}))
                 .ValueOrDie();
  const char* names[] = {"forest green", "royal blue", "light green",
                         "dim grey"};
  for (int i = 0; i < kRows; ++i) {
    ASSERT_TRUE(t->AppendRow({Value::Int(i),
                              Value::Real(i % 997 / 10.0),
                              Value::Str(names[(i / 3) % 4])})
                    .ok());
  }
  ASSERT_TRUE(catalog.Finalize().ok());
  const Table* big = catalog.GetTable("big");
  ThreadPool::SetGlobalThreadsForTesting(4);
  for (const char* predicate :
       {"num < 50", "name LIKE '%green%' AND num >= 20",
        "num < 10 OR name = 'dim grey'"}) {
    auto parsed = ParseSelect(std::string("SELECT k FROM big WHERE ") +
                              predicate);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    auto bound = Bind(parsed.TakeValue(), catalog);
    ASSERT_TRUE(bound.ok()) << bound.status().ToString();
    std::vector<const Expr*> conjuncts;
    for (const ExprPtr& f : bound.value().relations[0].filters) {
      conjuncts.push_back(f.get());
    }
    auto filter = RowFilter::Compile(conjuncts, *big);
    ASSERT_TRUE(filter.ok()) << filter.status().ToString();
    std::vector<uint32_t> serial;
    uint32_t sel[ExprProgram::kBatch];
    for (int base = 0; base < kRows; base += ExprProgram::kBatch) {
      const int m = std::min(ExprProgram::kBatch, kRows - base);
      const int kept =
          filter.value().FilterRange(static_cast<uint32_t>(base), m, sel);
      serial.insert(serial.end(), sel, sel + kept);
    }
    EXPECT_GT(serial.size(), 0u) << predicate;
    EXPECT_LT(serial.size(), static_cast<size_t>(kRows)) << predicate;
    EXPECT_EQ(filter.value().SelectedRows(), serial) << predicate;
  }
  ThreadPool::SetGlobalThreadsForTesting(0);
}

TEST_F(RowFilterTest, CompileRejectsStringBetweenBounds) {
  // name BETWEEN 1 AND 'zzz': the old fast path validated only the low
  // bound's kind, then read the *uninitialized* int_value of the string
  // high bound as a numeric threshold — silently wrong rows. Both bounds
  // (and a string test operand) must now fail cleanly at compile time.
  auto between = [&](ExprPtr arg, ExprPtr lo, ExprPtr hi) {
    auto e = std::make_unique<Expr>(Expr::Kind::kBetween);
    e->children.push_back(std::move(arg));
    e->children.push_back(std::move(lo));
    e->children.push_back(std::move(hi));
    return e;
  };
  auto col = [&](const char* name) {
    ExprPtr c = MakeColumnRef("", name);
    c->bound_rel = 0;
    c->bound_col = table_->schema().FindColumn(name);
    return c;
  };

  // String high bound (the original bug shape).
  ExprPtr bad_hi =
      between(col("num"), MakeIntLiteral(1), MakeStringLiteral("zzz"));
  std::vector<const Expr*> conjuncts = {bad_hi.get()};
  auto r = RowFilter::Compile(conjuncts, *table_);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);

  // String low bound.
  ExprPtr bad_lo =
      between(col("num"), MakeStringLiteral("a"), MakeIntLiteral(9));
  conjuncts = {bad_lo.get()};
  r = RowFilter::Compile(conjuncts, *table_);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);

  // String test operand with numeric bounds.
  ExprPtr bad_arg =
      between(col("name"), MakeIntLiteral(1), MakeIntLiteral(9));
  conjuncts = {bad_arg.get()};
  r = RowFilter::Compile(conjuncts, *table_);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(RowFilterTest, CompileRejectsMixedStringNumericCompare) {
  // name > 5 used to fall into the generic evaluator whose EvalNumber
  // LH_CHECK-aborts on a string literal at row-evaluation time.
  ExprPtr colref = MakeColumnRef("", "name");
  colref->bound_rel = 0;
  colref->bound_col = table_->schema().FindColumn("name");
  ExprPtr cmp =
      MakeBinary(BinOp::kGt, std::move(colref), MakeIntLiteral(5));
  std::vector<const Expr*> conjuncts = {cmp.get()};
  auto r = RowFilter::Compile(conjuncts, *table_);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

class BinderTypeCheckTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Table* t =
        catalog_
            .CreateTable(TableSchema(
                "t", {ColumnSpec::Key("k", ValueType::kInt64),
                      ColumnSpec::Annotation("num", ValueType::kDouble),
                      ColumnSpec::Annotation("name", ValueType::kString)}))
            .ValueOrDie();
    ASSERT_TRUE(
        t->AppendRow({Value::Int(1), Value::Real(1.5), Value::Str("a")})
            .ok());
    ASSERT_TRUE(catalog_.Finalize().ok());
  }

  Status BindStatus(const std::string& sql) {
    auto parsed = ParseSelect(sql);
    if (!parsed.ok()) return parsed.status();
    return Bind(parsed.TakeValue(), catalog_).status();
  }

  Catalog catalog_;
};

TEST_F(BinderTypeCheckTest, RejectsMixedAndStringShapes) {
  // Each of these used to bind fine and then LH_CHECK-abort (or read
  // garbage) during row evaluation. They must all fail at bind time with
  // kInvalidArgument so a serving process returns an error response.
  const char* bad[] = {
      "SELECT k FROM t WHERE name > 5",
      "SELECT k FROM t WHERE num = 'abc'",
      "SELECT k FROM t WHERE name BETWEEN 'a' AND 'z'",
      "SELECT k FROM t WHERE name BETWEEN 1 AND 'z'",
      "SELECT k FROM t WHERE num BETWEEN 1 AND 'z'",
      "SELECT k FROM t WHERE name + 1 > 2",
      "SELECT k FROM t WHERE -name > 0",
      "SELECT k FROM t WHERE num LIKE '%x%'",
      "SELECT SUM(CASE WHEN num > 1 THEN 'x' ELSE 'y' END) FROM t",
      "SELECT k FROM t WHERE EXTRACT(YEAR FROM name) = 1994",
  };
  for (const char* sql : bad) {
    Status s = BindStatus(sql);
    ASSERT_FALSE(s.ok()) << sql;
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << sql;
  }
}

TEST_F(BinderTypeCheckTest, AcceptsLegalStringShapes) {
  // String = / <> string, LIKE over a string column, string grouping, and
  // aggregates over bare string columns all stay legal.
  const char* good[] = {
      "SELECT k FROM t WHERE name = 'a'",
      "SELECT k FROM t WHERE name <> 'a'",
      "SELECT k FROM t WHERE name LIKE '%a%'",
      "SELECT name, COUNT(*) FROM t GROUP BY name",
      "SELECT MIN(name) FROM t",
  };
  for (const char* sql : good) {
    EXPECT_TRUE(BindStatus(sql).ok()) << sql;
  }
}

}  // namespace
}  // namespace levelheaded
