// Test-only reference executor: evaluates a bound LogicalQuery by brute
// force (nested loops over decoded rows, hash grouping), independent of the
// trie/WCOJ machinery. Used to cross-check LevelHeaded end to end.

#ifndef LEVELHEADED_TESTS_REFERENCE_EXECUTOR_H_
#define LEVELHEADED_TESTS_REFERENCE_EXECUTOR_H_

#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "baseline/expr_walker.h"
#include "core/result.h"
#include "sql/logical_query.h"
#include "util/date.h"
#include "util/like_matcher.h"
#include "util/logging.h"
#include "util/total_order.h"

namespace levelheaded::testing {

/// CellAccessor over one row per relation.
class TupleCells : public CellAccessor {
 public:
  explicit TupleCells(const LogicalQuery& q) : rows_(q.relations.size()), q_(q) {}
  std::vector<uint32_t> rows_;

  double Number(int rel, int col) const override {
    const ColumnData& c = q_.relations[rel].table->column(col);
    const uint32_t row = rows_[rel];
    if (!c.ints.empty()) return static_cast<double>(c.ints[row]);
    if (!c.reals.empty()) return c.reals[row];
    return static_cast<double>(c.codes[row]);
  }
  int64_t Code(int rel, int col) const override {
    const ColumnData& c = q_.relations[rel].table->column(col);
    if (c.dict == nullptr || c.dict->type() != ValueType::kString) return -1;
    return c.codes[rows_[rel]];
  }
  const Dictionary* Dict(int rel, int col) const override {
    const ColumnData& c = q_.relations[rel].table->column(col);
    return c.dict != nullptr && c.dict->type() == ValueType::kString ? c.dict
                                                                     : nullptr;
  }

 private:
  const LogicalQuery& q_;
};

/// One group of the reference executor: per-aggregate main/aux and the
/// dimension values.
struct ReferenceGroup {
  std::vector<double> main;
  std::vector<double> aux;
  std::vector<Value> dim_values;
};

/// The text of `e` in a post-aggregation expression over one group: a
/// string literal, or a string GROUP BY dimension's decoded value; nullopt
/// for anything else. String comparisons and LIKE read text, never
/// dictionary codes, so the oracle does not depend on how dictionaries
/// order their codes.
inline std::optional<std::string> ReferenceGroupString(
    const Expr& e, const std::vector<const Expr*>& dims,
    const ReferenceGroup& acc) {
  if (e.kind == Expr::Kind::kStringLiteral) return e.str_value;
  for (size_t d = 0; d < dims.size(); ++d) {
    if (ExprEquals(e, *dims[d]) &&
        acc.dim_values[d].kind() == Value::Kind::kString) {
      return acc.dim_values[d].AsStr();
    }
  }
  return std::nullopt;
}

/// A post-aggregation expression (an output item or HAVING) over one group.
inline double EvalReferenceGroup(const Expr& e, const LogicalQuery& q,
                                 const std::vector<const Expr*>& dims,
                                 const ReferenceGroup& acc) {
  auto eval = [&](const Expr& x) {
    return EvalReferenceGroup(x, q, dims, acc);
  };
  auto text = [&](const Expr& x) { return ReferenceGroupString(x, dims, acc); };
  for (size_t d = 0; d < dims.size(); ++d) {
    if (!ExprEquals(e, *dims[d])) continue;
    if (acc.dim_values[d].kind() == Value::Kind::kString) {
      ADD_FAILURE() << "string dimension in arithmetic: " << e.ToString();
      return 0;
    }
    return acc.dim_values[d].AsReal();
  }
  switch (e.kind) {
    case Expr::Kind::kAggRef: {
      double val = acc.main[e.slot_index];
      if (q.aggregates[e.slot_index].func == AggFunc::kAvg) {
        val = acc.aux[e.slot_index] == 0 ? 0 : val / acc.aux[e.slot_index];
      }
      return val;
    }
    case Expr::Kind::kIntLiteral:
    case Expr::Kind::kDateLiteral:
    case Expr::Kind::kIntervalLiteral:
      return static_cast<double>(e.int_value);
    case Expr::Kind::kRealLiteral:
      return e.real_value;
    case Expr::Kind::kUnaryMinus:
      return -eval(*e.children[0]);
    case Expr::Kind::kNot:
      return eval(*e.children[0]) != 0 ? 0 : 1;
    case Expr::Kind::kBetween: {
      const double v = eval(*e.children[0]);
      return TotalLessEqual(eval(*e.children[1]), v) &&
                     TotalLessEqual(v, eval(*e.children[2]))
                 ? 1
                 : 0;
    }
    case Expr::Kind::kCase: {
      // The first true WHEN wins; no match and no ELSE is SQL NULL, which
      // the numeric model reads as 0.
      size_t i = 0;
      for (; i + 1 < e.children.size(); i += 2) {
        if (eval(*e.children[i]) != 0) return eval(*e.children[i + 1]);
      }
      return e.case_has_else ? eval(*e.children.back()) : 0;
    }
    case Expr::Kind::kExtractYear:
      return static_cast<double>(
          YearOfDays(static_cast<int32_t>(eval(*e.children[0]))));
    case Expr::Kind::kLike: {
      const std::optional<std::string> s = text(*e.children[0]);
      if (!s.has_value()) {
        ADD_FAILURE() << "LIKE over a non-string: " << e.ToString();
        return 0;
      }
      return LikeMatcher(e.str_value).Matches(*s) ? 1 : 0;
    }
    case Expr::Kind::kBinary: {
      const std::optional<std::string> ls = text(*e.children[0]);
      const std::optional<std::string> rs = text(*e.children[1]);
      if (ls.has_value() && rs.has_value()) {
        const int c = ls->compare(*rs);
        switch (e.bin_op) {
          case BinOp::kEq:
            return c == 0 ? 1 : 0;
          case BinOp::kNe:
            return c != 0 ? 1 : 0;
          case BinOp::kLt:
            return c < 0 ? 1 : 0;
          case BinOp::kLe:
            return c <= 0 ? 1 : 0;
          case BinOp::kGt:
            return c > 0 ? 1 : 0;
          case BinOp::kGe:
            return c >= 0 ? 1 : 0;
          default:
            ADD_FAILURE() << "string operands in " << e.ToString();
            return 0;
        }
      }
      double l = eval(*e.children[0]), r = eval(*e.children[1]);
      switch (e.bin_op) {
        case BinOp::kAdd:
          return l + r;
        case BinOp::kSub:
          return l - r;
        case BinOp::kMul:
          return l * r;
        case BinOp::kDiv:
          return l / r;
        case BinOp::kEq:
          return TotalEqual(l, r) ? 1 : 0;
        case BinOp::kNe:
          return TotalEqual(l, r) ? 0 : 1;
        case BinOp::kLt:
          return TotalLess(l, r) ? 1 : 0;
        case BinOp::kLe:
          return TotalLessEqual(l, r) ? 1 : 0;
        case BinOp::kGt:
          return TotalLess(r, l) ? 1 : 0;
        case BinOp::kGe:
          return TotalLessEqual(r, l) ? 1 : 0;
        case BinOp::kAnd:
          return l != 0 && r != 0 ? 1 : 0;
        case BinOp::kOr:
          return l != 0 || r != 0 ? 1 : 0;
      }
      ADD_FAILURE() << "bad output op";
      return 0;
    }
    default:
      ADD_FAILURE() << "bad output expr " << e.ToString();
      return 0;
  }
}

/// Brute-force evaluation. Exponential in the number of relations — use
/// tiny tables only.
inline QueryResult ReferenceExecute(const LogicalQuery& q) {
  TupleCells cells(q);
  const size_t nrels = q.relations.size();

  // Grouping dimensions (mirrors the planner's implicit-distinct rule).
  std::vector<const Expr*> dims;
  std::vector<std::string> dim_names;
  bool implicit_distinct = q.aggregates.empty() && q.group_by.empty();
  if (implicit_distinct) {
    for (const OutputItem& o : q.outputs) {
      dims.push_back(o.expr.get());
      dim_names.push_back(o.name);
    }
  } else {
    for (const GroupBySpec& g : q.group_by) {
      dims.push_back(g.expr.get());
      dim_names.push_back(g.name);
    }
  }

  using Acc = ReferenceGroup;
  std::map<std::string, Acc> groups;

  std::function<void(size_t)> recurse = [&](size_t rel) {
    if (rel == nrels) {
      // Join conditions: all columns of each vertex agree.
      for (const JoinVertex& v : q.vertices) {
        for (size_t i = 1; i < v.columns.size(); ++i) {
          const auto& a = v.columns[0];
          const auto& b = v.columns[i];
          if (q.relations[a.rel].table->CodeAt(cells.rows_[a.rel], a.col) !=
              q.relations[b.rel].table->CodeAt(cells.rows_[b.rel], b.col)) {
            return;
          }
        }
      }
      // Group key.
      std::string key;
      std::vector<Value> dim_values;
      for (const Expr* d : dims) {
        Value v = EvalValue(*d, cells);
        // Group under the total order: every NaN is one group, -0 is 0.
        const bool real = v.kind() == Value::Kind::kReal;
        key += real && std::isnan(v.AsReal()) ? "nan"
               : real && v.AsReal() == 0      ? "0"
                                              : v.ToString();
        key += '\x1f';
        dim_values.push_back(std::move(v));
      }
      Acc& acc = groups[key];
      if (acc.main.empty()) {
        acc.main.assign(std::max<size_t>(1, q.aggregates.size()), 0);
        acc.aux.assign(std::max<size_t>(1, q.aggregates.size()), 0);
        acc.dim_values = std::move(dim_values);
        for (size_t i = 0; i < q.aggregates.size(); ++i) {
          if (q.aggregates[i].func == AggFunc::kMin) {
            acc.main[i] = std::numeric_limits<double>::quiet_NaN();
          } else if (q.aggregates[i].func == AggFunc::kMax) {
            acc.main[i] = -std::numeric_limits<double>::infinity();
          }
        }
      }
      for (size_t i = 0; i < q.aggregates.size(); ++i) {
        const AggregateSpec& agg = q.aggregates[i];
        switch (agg.func) {
          case AggFunc::kCount:
            acc.main[i] += 1;
            break;
          case AggFunc::kSum:
            acc.main[i] += EvalNumber(*agg.arg, cells);
            break;
          case AggFunc::kAvg:
            acc.main[i] += EvalNumber(*agg.arg, cells);
            acc.aux[i] += 1;
            break;
          case AggFunc::kMin:
            acc.main[i] = TotalMin(acc.main[i], EvalNumber(*agg.arg, cells));
            break;
          case AggFunc::kMax:
            acc.main[i] = TotalMax(acc.main[i], EvalNumber(*agg.arg, cells));
            break;
        }
      }
      return;
    }
    const RelationRef& ref = q.relations[rel];
    for (uint32_t row = 0; row < ref.table->num_rows(); ++row) {
      cells.rows_[rel] = row;
      bool pass = true;
      for (const ExprPtr& f : ref.filters) {
        if (!EvalBool(*f, cells)) {
          pass = false;
          break;
        }
      }
      if (pass) recurse(rel + 1);
    }
  };
  if (!q.always_empty) recurse(0);

  // HAVING drops whole groups before any output.
  if (q.having != nullptr) {
    for (auto it = groups.begin(); it != groups.end();) {
      if (EvalReferenceGroup(*q.having, q, dims, it->second) != 0) {
        ++it;
      } else {
        it = groups.erase(it);
      }
    }
  }

  // Materialize outputs.
  QueryResult result;
  result.num_rows = groups.size();
  for (size_t i = 0; i < q.outputs.size(); ++i) {
    const OutputItem& o = q.outputs[i];
    ResultColumn col;
    col.name = o.name;
    size_t g = 0;
    for (const auto& [key, acc] : groups) {
      (void)key;
      Value v;
      if (implicit_distinct) {
        // Output i is dimension i, typed as its values (int64 for keys).
        v = acc.dim_values[i];
      } else if (o.direct_group_index >= 0) {
        v = acc.dim_values[o.direct_group_index];
      } else if (o.direct_agg_slot >= 0) {
        const int slot = o.direct_agg_slot;
        double val = acc.main[slot];
        if (q.aggregates[slot].func == AggFunc::kAvg) {
          val = acc.aux[slot] == 0 ? 0 : val / acc.aux[slot];
        }
        v = Value::Real(val);
      } else {
        // Post-aggregation scalar over slots and dims.
        v = Value::Real(EvalReferenceGroup(*o.expr, q, dims, acc));
      }
      // Typed append: the column's representation is fixed by the first
      // value, numeric values coerce to it, and a real-typed column is
      // real even when its first value is integral (EvalValue renders
      // integral reals as ints).
      if (g == 0) {
        const Expr& x = *o.expr;
        const bool real_column =
            x.kind == Expr::Kind::kColumnRef &&
            IsRealType(q.relations[x.bound_rel].table->schema().column(
                x.bound_col).type);
        col.type = v.kind() == Value::Kind::kString ? ValueType::kString
                   : v.kind() == Value::Kind::kInt && !real_column
                       ? ValueType::kInt64
                       : ValueType::kDouble;
      }
      if (col.type == ValueType::kString) {
        col.strs.push_back(v.AsStr());
      } else if (col.type == ValueType::kInt64) {
        col.ints.push_back(v.kind() == Value::Kind::kInt
                               ? v.AsInt()
                               : static_cast<int64_t>(v.AsReal()));
      } else {
        col.reals.push_back(v.AsReal());
      }
      ++g;
    }
    result.columns.push_back(std::move(col));
  }
  return result;
}

/// Renders one result row as comparable strings (numbers canonicalized).
inline std::vector<std::string> RowStrings(const QueryResult& r, size_t row) {
  std::vector<std::string> out;
  for (size_t c = 0; c < r.columns.size(); ++c) {
    Value v = r.GetValue(row, static_cast<int>(c));
    if (v.kind() == Value::Kind::kString) {
      out.push_back("s:" + v.AsStr());
    } else {
      char buf[40];
      std::snprintf(buf, sizeof(buf), "n:%.6g", v.AsReal());
      out.push_back(buf);
    }
  }
  return out;
}

/// Asserts two results hold the same multiset of rows (order-insensitive,
/// numeric values canonicalized to 9 significant digits).
inline void ExpectResultsMatch(const QueryResult& actual,
                               const QueryResult& expected,
                               const std::string& label) {
  ASSERT_EQ(actual.columns.size(), expected.columns.size()) << label;
  ASSERT_EQ(actual.num_rows, expected.num_rows) << label;
  std::vector<std::vector<std::string>> a, b;
  for (size_t r = 0; r < actual.num_rows; ++r) {
    a.push_back(RowStrings(actual, r));
  }
  for (size_t r = 0; r < expected.num_rows; ++r) {
    b.push_back(RowStrings(expected, r));
  }
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  EXPECT_EQ(a, b) << label;
}

}  // namespace levelheaded::testing

#endif  // LEVELHEADED_TESTS_REFERENCE_EXECUTOR_H_
