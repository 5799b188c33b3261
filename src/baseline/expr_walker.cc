#include "baseline/expr_walker.h"

#include <cmath>
#include <string>

#include "obs/stats.h"
#include "util/date.h"
#include "util/like_matcher.h"
#include "util/logging.h"
#include "util/total_order.h"

namespace levelheaded {

bool IsStringExpr(const Expr& e, const CellAccessor& cells) {
  if (e.kind == Expr::Kind::kStringLiteral) return true;
  if (e.kind == Expr::Kind::kColumnRef) {
    return cells.Dict(e.bound_rel, e.bound_col) != nullptr;
  }
  return false;
}

namespace {

std::string StringOf(const Expr& e, const CellAccessor& cells) {
  if (e.kind == Expr::Kind::kStringLiteral) return e.str_value;
  LH_CHECK(e.kind == Expr::Kind::kColumnRef) << "not a string expression";
  const Dictionary* dict = cells.Dict(e.bound_rel, e.bound_col);
  LH_CHECK(dict != nullptr);
  int64_t code = cells.Code(e.bound_rel, e.bound_col);
  LH_CHECK(code >= 0);
  return dict->DecodeString(static_cast<uint32_t>(code));
}

bool CompareOp(BinOp op, int cmp) {
  switch (op) {
    case BinOp::kEq:
      return cmp == 0;
    case BinOp::kNe:
      return cmp != 0;
    case BinOp::kLt:
      return cmp < 0;
    case BinOp::kLe:
      return cmp <= 0;
    case BinOp::kGt:
      return cmp > 0;
    case BinOp::kGe:
      return cmp >= 0;
    default:
      LH_CHECK(false) << "not a comparison";
      return false;
  }
}

}  // namespace

double EvalNumber(const Expr& e, const CellAccessor& cells) {
  switch (e.kind) {
    case Expr::Kind::kColumnRef:
      return cells.Number(e.bound_rel, e.bound_col);
    case Expr::Kind::kIntLiteral:
    case Expr::Kind::kDateLiteral:
    case Expr::Kind::kIntervalLiteral:
      return static_cast<double>(e.int_value);
    case Expr::Kind::kRealLiteral:
      return e.real_value;
    case Expr::Kind::kUnaryMinus:
      return -EvalNumber(*e.children[0], cells);
    case Expr::Kind::kBinary:
      switch (e.bin_op) {
        case BinOp::kAdd:
          return EvalNumber(*e.children[0], cells) +
                 EvalNumber(*e.children[1], cells);
        case BinOp::kSub:
          return EvalNumber(*e.children[0], cells) -
                 EvalNumber(*e.children[1], cells);
        case BinOp::kMul:
          return EvalNumber(*e.children[0], cells) *
                 EvalNumber(*e.children[1], cells);
        case BinOp::kDiv:
          return EvalNumber(*e.children[0], cells) /
                 EvalNumber(*e.children[1], cells);
        default:
          return EvalBool(e, cells) ? 1.0 : 0.0;
      }
    case Expr::Kind::kCase: {
      size_t i = 0;
      for (; i + 1 < e.children.size(); i += 2) {
        if (EvalBool(*e.children[i], cells)) {
          return EvalNumber(*e.children[i + 1], cells);
        }
      }
      if (e.case_has_else) return EvalNumber(*e.children.back(), cells);
      return 0.0;  // SQL NULL; LevelHeaded's numeric model treats it as 0
    }
    case Expr::Kind::kExtractYear:
      return static_cast<double>(YearOfDays(
          static_cast<int32_t>(EvalNumber(*e.children[0], cells))));
    case Expr::Kind::kNot:
    case Expr::Kind::kLike:
    case Expr::Kind::kBetween:
      return EvalBool(e, cells) ? 1.0 : 0.0;
    default:
      LH_CHECK(false) << "cannot evaluate " << e.ToString() << " as number";
      return 0;
  }
}

bool EvalBool(const Expr& e, const CellAccessor& cells) {
  switch (e.kind) {
    case Expr::Kind::kBinary:
      switch (e.bin_op) {
        case BinOp::kAnd:
          return EvalBool(*e.children[0], cells) &&
                 EvalBool(*e.children[1], cells);
        case BinOp::kOr:
          return EvalBool(*e.children[0], cells) ||
                 EvalBool(*e.children[1], cells);
        case BinOp::kEq:
        case BinOp::kNe:
        case BinOp::kLt:
        case BinOp::kLe:
        case BinOp::kGt:
        case BinOp::kGe: {
          const Expr& l = *e.children[0];
          const Expr& r = *e.children[1];
          if (IsStringExpr(l, cells) || IsStringExpr(r, cells)) {
            int cmp = StringOf(l, cells).compare(StringOf(r, cells));
            return CompareOp(e.bin_op, cmp);
          }
          return CompareOp(e.bin_op, TotalCompare(EvalNumber(l, cells),
                                                  EvalNumber(r, cells)));
        }
        default:
          return EvalNumber(e, cells) != 0;
      }
    case Expr::Kind::kNot:
      return !EvalBool(*e.children[0], cells);
    case Expr::Kind::kLike: {
      // Binder-compiled matcher (one per expression). The fallback below
      // only runs for expressions that never went through the binder; it is
      // counted so EXPLAIN ANALYZE exposes any per-tuple recompilation.
      if (e.compiled_like != nullptr) {
        return e.compiled_like->Matches(StringOf(*e.children[0], cells));
      }
      if (obs::ExecStats* stats = obs::ActiveStats()) {
        stats->CountLikeCompile();
      }
      LikeMatcher matcher(e.str_value);
      return matcher.Matches(StringOf(*e.children[0], cells));
    }
    case Expr::Kind::kBetween: {
      const double v = EvalNumber(*e.children[0], cells);
      return TotalLessEqual(EvalNumber(*e.children[1], cells), v) &&
             TotalLessEqual(v, EvalNumber(*e.children[2], cells));
    }
    default:
      return EvalNumber(e, cells) != 0;
  }
}

Value EvalValue(const Expr& e, const CellAccessor& cells) {
  if (IsStringExpr(e, cells)) return Value::Str(StringOf(e, cells));
  double v = EvalNumber(e, cells);
  // Integral expressions over integer inputs render as integers. Interval
  // literals are day counts (EvalNumber reads int_value), so they belong
  // here too — omitting them materialized intervals as Real.
  if (e.kind == Expr::Kind::kIntLiteral ||
      e.kind == Expr::Kind::kDateLiteral ||
      e.kind == Expr::Kind::kIntervalLiteral ||
      e.kind == Expr::Kind::kExtractYear) {
    return Value::Int(static_cast<int64_t>(v));
  }
  if (e.kind == Expr::Kind::kColumnRef) {
    // Integer-typed columns keep integer identity.
    if (v == std::floor(v) && std::abs(v) < 9.0e15 &&
        cells.Dict(e.bound_rel, e.bound_col) == nullptr) {
      return Value::Int(static_cast<int64_t>(v));
    }
  }
  return Value::Real(v);
}

}  // namespace levelheaded
