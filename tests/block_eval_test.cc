// BlockProgram (the vectorized baseline's compiled expressions) must agree
// with the generic tree-walking evaluator on every supported construct.

#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "baseline/block_eval.h"
#include "baseline/expr_walker.h"
#include "sql/binder.h"
#include "sql/parser.h"

namespace levelheaded {
namespace {

class BlockEvalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Table* t =
        catalog_
            .CreateTable(TableSchema(
                "t", {ColumnSpec::Key("k", ValueType::kInt64),
                      ColumnSpec::Annotation("a", ValueType::kDouble),
                      ColumnSpec::Annotation("b", ValueType::kDouble),
                      ColumnSpec::Annotation("day", ValueType::kDate),
                      ColumnSpec::Annotation("tag", ValueType::kString)}))
            .ValueOrDie();
    const char* tags[] = {"x", "y", "z", "x", "y", "w"};
    for (int i = 0; i < 6; ++i) {
      ASSERT_TRUE(t->AppendRow({Value::Int(i), Value::Real(i * 0.5),
                                Value::Real(10 - i), Value::Int(8000 + i * 400),
                                Value::Str(tags[i])})
                      .ok());
    }
    ASSERT_TRUE(catalog_.Finalize().ok());
  }

  /// Parses a SELECT item, binds it, compiles it, and checks the program
  /// against EvalNumber for every row.
  void CheckExpr(const std::string& expr_sql) {
    auto parsed = ParseSelect("SELECT " + expr_sql + " FROM t");
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    auto bound = Bind(parsed.TakeValue(), catalog_);
    ASSERT_TRUE(bound.ok()) << bound.status().ToString();
    queries_.push_back(std::make_unique<LogicalQuery>(bound.TakeValue()));
    const LogicalQuery& q = *queries_.back();
    const Expr& e = *q.outputs[0].expr;

    auto prog = BlockProgram::Compile(e, q);
    ASSERT_TRUE(prog.ok()) << expr_sql << ": " << prog.status().ToString();

    const Table* t = catalog_.GetTable("t");
    TupleBlock block;
    block.Reset(1);
    for (uint32_t r = 0; r < t->num_rows(); ++r) {
      block.rows[0].push_back(r);
    }
    block.n = t->num_rows();
    std::vector<double> out(block.n);
    prog.value().Eval(block, out.data());

    // Reference: per-row generic evaluation.
    class Cells : public CellAccessor {
     public:
      const Table* t;
      uint32_t row = 0;
      double Number(int, int col) const override {
        const ColumnData& c = t->column(col);
        if (!c.ints.empty()) return static_cast<double>(c.ints[row]);
        if (!c.reals.empty()) return c.reals[row];
        return static_cast<double>(c.codes[row]);
      }
      int64_t Code(int, int col) const override {
        const ColumnData& c = t->column(col);
        return c.dict != nullptr ? c.codes[row] : -1;
      }
      const Dictionary* Dict(int, int col) const override {
        return t->column(col).dict;
      }
    } cells;
    cells.t = t;
    for (uint32_t r = 0; r < t->num_rows(); ++r) {
      cells.row = r;
      EXPECT_DOUBLE_EQ(out[r], EvalNumber(e, cells))
          << expr_sql << " at row " << r;
    }
  }

  Catalog catalog_;
  std::vector<std::unique_ptr<LogicalQuery>> queries_;
};

TEST_F(BlockEvalTest, Arithmetic) {
  CheckExpr("a + b");
  CheckExpr("a * (1 - b) * (1 + a)");
  CheckExpr("a / (b + 1)");
  CheckExpr("-a + 2.5");
}

TEST_F(BlockEvalTest, ComparisonsAndLogic) {
  CheckExpr("a > 1");
  CheckExpr("a >= 1 AND b < 9");
  CheckExpr("a = 1.5 OR a = 0");
  CheckExpr("NOT a > 1");
  CheckExpr("a BETWEEN 0.5 AND 2");
}

TEST_F(BlockEvalTest, CaseWhenAndStrings) {
  CheckExpr("CASE WHEN tag = 'x' THEN a ELSE 0 END");
  CheckExpr("CASE WHEN tag = 'x' THEN 1 WHEN tag = 'y' THEN 2 END");
  CheckExpr("CASE WHEN tag <> 'w' THEN b ELSE -b END");
  CheckExpr("CASE WHEN tag = 'nope' THEN 99 ELSE 1 END");
}

TEST_F(BlockEvalTest, ExtractYear) {
  CheckExpr("extract(year from day)");
  CheckExpr("extract(year from day) - 1990");
}

TEST_F(BlockEvalTest, UnsupportedConstructsFailCleanly) {
  auto parsed = ParseSelect("SELECT tag FROM t");
  ASSERT_TRUE(parsed.ok());
  auto bound = Bind(parsed.TakeValue(), catalog_);
  ASSERT_TRUE(bound.ok());
  // Bare string column in arithmetic position has no vector form.
  EXPECT_FALSE(BlockProgram::Compile(*bound.value().outputs[0].expr,
                                     bound.value())
                   .ok());

  auto like = ParseSelect("SELECT tag LIKE '%x%' FROM t");
  ASSERT_TRUE(like.ok());
  auto bound2 = Bind(like.TakeValue(), catalog_);
  ASSERT_TRUE(bound2.ok());
  EXPECT_FALSE(BlockProgram::Compile(*bound2.value().outputs[0].expr,
                                     bound2.value())
                   .ok());
}

}  // namespace
}  // namespace levelheaded
