#include "core/expr_vm.h"

#include <algorithm>
#include <string>
#include <utility>

#include "obs/stats.h"
#include "util/date.h"
#include "util/like_matcher.h"
#include "util/logging.h"
#include "util/thread_pool.h"
#include "util/total_order.h"

namespace levelheaded {

namespace {

bool IsComparison(BinOp op) {
  return op == BinOp::kEq || op == BinOp::kNe || op == BinOp::kLt ||
         op == BinOp::kLe || op == BinOp::kGt || op == BinOp::kGe;
}

/// `op` applied to a three-way string compare result.
bool StringCompareHolds(BinOp op, int cmp) {
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
    default:
      return cmp >= 0;
  }
}

Status StringNumericMix(const Expr& e) {
  return Status::InvalidArgument(
      "cannot compare string and numeric operands in '" + e.ToString() + "'");
}

}  // namespace

std::vector<uint8_t> LikeBitmap(const LikeMatcher& matcher,
                                const Dictionary& dict) {
  const int64_t n = dict.size();
  std::vector<uint8_t> bitmap(static_cast<size_t>(n));
  // A match costs ~60 ns (Q9's '%green%' over ~50k part names), so chunks
  // of 1024 codes amortize a dispatch; the cuts depend on the dictionary
  // size alone.
  ThreadPool::Global().ParallelChunks(
      0, n, AdaptiveGrain(n, 1024), [&](int, int64_t lo, int64_t hi) {
        for (int64_t c = lo; c < hi; ++c) {
          bitmap[c] =
              matcher.Matches(dict.DecodeString(static_cast<uint32_t>(c)))
                  ? 1
                  : 0;
        }
      });
  return bitmap;
}

ColumnSource TableColumn(const Table& table, int c) {
  const ColumnData& data = table.column(c);
  const ValueType type = table.schema().column(c).type;
  ColumnSource col;
  if (type == ValueType::kString) {
    col.type = ColumnSource::Type::kString;
    col.codes = data.codes.data();
    col.dict = data.dict;
  } else if (IsRealType(type)) {
    col.type = ColumnSource::Type::kReal;
    col.reals = data.reals.data();
  } else {
    col.type = ColumnSource::Type::kInt;
    col.ints = data.ints.data();
  }
  return col;
}

ColumnResolver TableResolver(const Table& table) {
  return [&table](int, int col, ColumnSource* out) {
    *out = TableColumn(table, col);
    return true;
  };
}

Status ExprProgram::Compile(const Expr& e, const ColumnResolver& resolve,
                            ExprProgram* out) {
  *out = ExprProgram();
  Status s = out->CompileNode(e, resolve);
  if (s.ok()) s = out->CheckStack();
  if (!s.ok()) *out = ExprProgram();
  if (obs::ExecStats* stats = obs::ActiveStats()) {
    if (s.ok()) {
      stats->CountExprProgram();
    } else {
      stats->CountExprFallback();
    }
  }
  return s;
}

void ExprProgram::PushConst(double v) {
  Instr in;
  in.op = Op::kConst;
  in.imm = v;
  instrs_.push_back(in);
}

Status ExprProgram::CompileNode(const Expr& e,
                                const ColumnResolver& resolve) {
  switch (e.kind) {
    case Expr::Kind::kIntLiteral:
    case Expr::Kind::kDateLiteral:
    case Expr::Kind::kIntervalLiteral:
      PushConst(static_cast<double>(e.int_value));
      return Status::OK();
    case Expr::Kind::kRealLiteral:
      PushConst(e.real_value);
      return Status::OK();
    case Expr::Kind::kColumnRef: {
      ColumnSource col;
      if (!resolve(e.bound_rel, e.bound_col, &col)) {
        return Status::Internal("column " + e.ToString() +
                                " is not readable here");
      }
      Instr in;
      in.source = col.source;
      switch (col.type) {
        case ColumnSource::Type::kInt:
          in.op = Op::kLoadInt;
          in.ints = col.ints;
          break;
        case ColumnSource::Type::kReal:
          in.op = Op::kLoadReal;
          in.reals = col.reals;
          break;
        case ColumnSource::Type::kString:
          // A bare string column in a numeric context (MIN/MAX over a
          // string column) reads its dictionary codes.
          in.op = Op::kLoadCode;
          in.codes = col.codes;
          break;
      }
      instrs_.push_back(in);
      return Status::OK();
    }
    case Expr::Kind::kUnaryMinus:
      LH_RETURN_NOT_OK(CompileNode(*e.children[0], resolve));
      Push(Op::kNeg);
      return Status::OK();
    case Expr::Kind::kNot:
      LH_RETURN_NOT_OK(CompileNode(*e.children[0], resolve));
      Push(Op::kNot);
      return Status::OK();
    case Expr::Kind::kExtractYear:
      LH_RETURN_NOT_OK(CompileNode(*e.children[0], resolve));
      Push(Op::kYear);
      return Status::OK();
    case Expr::Kind::kBetween:
      for (int i = 0; i < 3; ++i) {
        LH_RETURN_NOT_OK(CompileNode(*e.children[i], resolve));
      }
      Push(Op::kBetween);
      return Status::OK();
    case Expr::Kind::kLike: {
      const Expr& arg = *e.children[0];
      const LikeMatcher local(e.compiled_like == nullptr ? e.str_value : "");
      const LikeMatcher& matcher =
          e.compiled_like != nullptr ? *e.compiled_like : local;
      if (arg.kind == Expr::Kind::kStringLiteral) {
        PushConst(matcher.Matches(arg.str_value) ? 1.0 : 0.0);
        return Status::OK();
      }
      ColumnSource col;
      if (arg.kind != Expr::Kind::kColumnRef ||
          !resolve(arg.bound_rel, arg.bound_col, &col) ||
          col.type != ColumnSource::Type::kString || col.dict == nullptr) {
        return Status::InvalidArgument("LIKE requires a string column in '" +
                                       e.ToString() + "'");
      }
      // One bitmap per LIKE site over the column's dictionary.
      std::vector<uint8_t> bitmap = LikeBitmap(matcher, *col.dict);
      Instr in;
      in.op = Op::kDictBitmap;
      in.aux = static_cast<int>(bitmaps_.size());
      in.source = col.source;
      in.codes = col.codes;
      instrs_.push_back(in);
      bitmaps_.push_back(std::move(bitmap));
      return Status::OK();
    }
    case Expr::Kind::kCase: {
      // An accumulator chain: acc = ELSE, then acc = cond_i ? then_i : acc
      // from the last WHEN to the first, so the first true condition wins
      // (the walker's order) and the chain holds at most three values on
      // the stack however many WHENs there are.
      const size_t pairs = e.children.size() / 2;
      if (e.case_has_else) {
        LH_RETURN_NOT_OK(CompileNode(*e.children.back(), resolve));
      } else {
        PushConst(0.0);  // SQL NULL; the numeric model treats it as 0
      }
      for (size_t i = pairs; i-- > 0;) {
        LH_RETURN_NOT_OK(CompileNode(*e.children[2 * i], resolve));
        LH_RETURN_NOT_OK(CompileNode(*e.children[2 * i + 1], resolve));
        Push(Op::kSelect);
      }
      return Status::OK();
    }
    case Expr::Kind::kBinary: {
      if (IsComparison(e.bin_op)) return CompileCompare(e, resolve);
      LH_RETURN_NOT_OK(CompileNode(*e.children[0], resolve));
      LH_RETURN_NOT_OK(CompileNode(*e.children[1], resolve));
      Push(e.bin_op == BinOp::kAdd   ? Op::kAdd
           : e.bin_op == BinOp::kSub ? Op::kSub
           : e.bin_op == BinOp::kMul ? Op::kMul
           : e.bin_op == BinOp::kDiv ? Op::kDiv
           : e.bin_op == BinOp::kAnd ? Op::kAnd
                                     : Op::kOr);
      return Status::OK();
    }
    case Expr::Kind::kStringLiteral:
      return Status::InvalidArgument("string operand not allowed in '" +
                                     e.ToString() + "'");
    default:
      return Status::Internal("cannot compile " + e.ToString() +
                              " as a row expression");
  }
}

Status ExprProgram::CompileCompare(const Expr& e,
                                   const ColumnResolver& resolve) {
  auto is_string = [&](const Expr& x) {
    if (x.kind == Expr::Kind::kStringLiteral) return true;
    ColumnSource col;
    return x.kind == Expr::Kind::kColumnRef &&
           resolve(x.bound_rel, x.bound_col, &col) &&
           col.type == ColumnSource::Type::kString;
  };
  const bool ls = is_string(*e.children[0]);
  const bool rs = is_string(*e.children[1]);
  if (ls != rs) return StringNumericMix(e);
  if (ls) return CompileStringCompare(e, resolve);
  // a > b is b < a and a >= b is b <= a: evaluation order is unobservable
  // (no side effects), and the ISA needs only two ordering ops.
  const bool swap = e.bin_op == BinOp::kGt || e.bin_op == BinOp::kGe;
  LH_RETURN_NOT_OK(CompileNode(*e.children[swap ? 1 : 0], resolve));
  LH_RETURN_NOT_OK(CompileNode(*e.children[swap ? 0 : 1], resolve));
  Push(e.bin_op == BinOp::kEq   ? Op::kCmpEq
       : e.bin_op == BinOp::kNe ? Op::kCmpNe
       : e.bin_op == BinOp::kLt || e.bin_op == BinOp::kGt ? Op::kCmpLt
                                                          : Op::kCmpLe);
  return Status::OK();
}

Status ExprProgram::CompileStringCompare(const Expr& e,
                                         const ColumnResolver& resolve) {
  const Expr* l = e.children[0].get();
  const Expr* r = e.children[1].get();
  BinOp op = e.bin_op;
  if (l->kind == Expr::Kind::kStringLiteral &&
      r->kind == Expr::Kind::kStringLiteral) {
    PushConst(StringCompareHolds(op, l->str_value.compare(r->str_value))
                  ? 1.0
                  : 0.0);
    return Status::OK();
  }
  if (l->kind == Expr::Kind::kStringLiteral) {
    std::swap(l, r);  // column on the left: mirror the ordering
    op = op == BinOp::kLt   ? BinOp::kGt
         : op == BinOp::kLe ? BinOp::kGe
         : op == BinOp::kGt ? BinOp::kLt
         : op == BinOp::kGe ? BinOp::kLe
                            : op;
  }
  ColumnSource lc;
  if (!resolve(l->bound_rel, l->bound_col, &lc) || lc.dict == nullptr) {
    return Status::Internal("string column " + l->ToString() +
                            " has no dictionary here");
  }
  auto load_codes = [&](const ColumnSource& c) {
    Instr in;
    in.op = Op::kLoadCode;
    in.source = c.source;
    in.codes = c.codes;
    instrs_.push_back(in);
  };
  if (r->kind == Expr::Kind::kStringLiteral) {
    const std::string& lit = r->str_value;
    if (op == BinOp::kEq || op == BinOp::kNe) {
      const int64_t code = lc.dict->TryEncodeString(lit);
      Instr in;
      in.op = Op::kCodeEq;
      in.source = lc.source;
      in.codes = lc.codes;
      // Absent literal: a sentinel no row's code can equal.
      in.imm_code = code < 0 ? 0xFFFFFFFFu : static_cast<uint32_t>(code);
      instrs_.push_back(in);
      if (op == BinOp::kNe) Push(Op::kNot);
      return Status::OK();
    }
    // Dictionaries are sorted, so an ordering against a literal is a code
    // range: codes below `lb` hold strings < lit, and `hi` = lb, plus one
    // when lit itself is present, splits the strings <= lit from the rest.
    const uint32_t lb = lc.dict->LowerBoundString(lit);
    const uint32_t hi =
        lb + (lb < lc.dict->size() && lc.dict->DecodeString(lb) == lit ? 1
                                                                       : 0);
    switch (op) {
      case BinOp::kLt:  // code < lb
      case BinOp::kLe:  // code < hi
        load_codes(lc);
        PushConst(op == BinOp::kLt ? lb : hi);
        Push(Op::kCmpLt);
        break;
      default:  // kGt: hi <= code; kGe: lb <= code
        PushConst(op == BinOp::kGt ? hi : lb);
        load_codes(lc);
        Push(Op::kCmpLe);
        break;
    }
    return Status::OK();
  }
  ColumnSource rc;
  if (!resolve(r->bound_rel, r->bound_col, &rc) || rc.dict == nullptr) {
    return Status::Internal("string column " + r->ToString() +
                            " has no dictionary here");
  }
  if (lc.dict == rc.dict) {
    // One sorted dictionary: codes order like their strings.
    const bool swap = op == BinOp::kGt || op == BinOp::kGe;
    load_codes(swap ? rc : lc);
    load_codes(swap ? lc : rc);
    Push(op == BinOp::kEq   ? Op::kCmpEq
         : op == BinOp::kNe ? Op::kCmpNe
         : op == BinOp::kLt || op == BinOp::kGt ? Op::kCmpLt
                                                : Op::kCmpLe);
    return Status::OK();
  }
  Instr in;
  in.op = Op::kStrCompare;
  in.aux = static_cast<int>(str_compares_.size());
  instrs_.push_back(in);
  str_compares_.push_back({lc, rc, op});
  return Status::OK();
}

Status ExprProgram::CheckStack() {
  int depth = 0;
  max_depth_ = 0;
  for (const Instr& in : instrs_) {
    int pops;
    switch (in.op) {
      case Op::kConst:
      case Op::kLoadInt:
      case Op::kLoadReal:
      case Op::kLoadCode:
      case Op::kCodeEq:
      case Op::kDictBitmap:
      case Op::kStrCompare:
        pops = 0;
        break;
      case Op::kNeg:
      case Op::kNot:
      case Op::kYear:
        pops = 1;
        break;
      case Op::kSelect:
      case Op::kBetween:
        pops = 3;
        break;
      default:
        pops = 2;
        break;
    }
    if (depth < pops) return Status::Internal("expression stack underflow");
    depth += 1 - pops;
    max_depth_ = std::max(max_depth_, depth);
  }
  if (depth != 1) return Status::Internal("expression stack imbalance");
  return Status::OK();
}

template <int kWidth, typename Index>
[[gnu::aligned(64)]] void ExprProgram::Eval(Index index, int n,
                                             double* out) const {
  if (max_depth_ <= kMaxStack) {
    Run<kWidth, /*kHeapStack=*/false>(index, n, out);
  } else {
    Run<kWidth, /*kHeapStack=*/true>(index, n, out);
  }
}

// One dispatch switch, instantiated at batch width (scans, filters) and at
// width 1 (the WCOJ leaf). `index(source, i)` is the buffer index of lane
// i's load through `source`. The value stack is a local array the compiler
// can see aliases no operand (a pointer that might reach the heap costs the
// gather loops about a quarter of their speed); only programs deeper than
// kMaxStack take the heap-backed instantiation.
template <int kWidth, bool kHeapStack, typename Index>
[[gnu::aligned(64)]] void ExprProgram::Run(Index index, int n,
                                            double* out) const {
  LH_DCHECK(n <= kWidth);
  const int m = kWidth == 1 ? 1 : n;
  double local[kHeapStack ? 1 : kMaxStack * kWidth];
  // Every program's first op writes slot 0; the store only keeps GCC's
  // -Wmaybe-uninitialized quiet on the inlined width-1 instantiation.
  if constexpr (kWidth == 1) local[0] = 0;
  std::vector<double> heap;
  double* stack = local;
  if constexpr (kHeapStack) {
    heap.resize(static_cast<size_t>(max_depth_) * kWidth);
    stack = heap.data();
  }
  int top = -1;
  auto push = [&] { return stack + (++top) * kWidth; };
  auto unary = [&](auto f) {
    double* a = stack + top * kWidth;
    for (int i = 0; i < m; ++i) a[i] = f(a[i]);
  };
  auto binary = [&](auto f) {
    const double* b = stack + (top--) * kWidth;
    double* a = stack + top * kWidth;
    for (int i = 0; i < m; ++i) a[i] = f(a[i], b[i]);
  };
  auto ternary = [&](auto f) {
    const double* c = stack + (top--) * kWidth;
    const double* b = stack + (top--) * kWidth;
    double* a = stack + top * kWidth;
    for (int i = 0; i < m; ++i) a[i] = f(a[i], b[i], c[i]);
  };
  auto flag = [](bool v) { return v ? 1.0 : 0.0; };
  for (const Instr& in : instrs_) {
    switch (in.op) {
      case Op::kConst: {
        double* d = push();
        for (int i = 0; i < m; ++i) d[i] = in.imm;
        break;
      }
      case Op::kLoadInt: {
        double* d = push();
        for (int i = 0; i < m; ++i) {
          d[i] = static_cast<double>(in.ints[index(in.source, i)]);
        }
        break;
      }
      case Op::kLoadReal: {
        double* d = push();
        for (int i = 0; i < m; ++i) d[i] = in.reals[index(in.source, i)];
        break;
      }
      case Op::kLoadCode: {
        double* d = push();
        for (int i = 0; i < m; ++i) {
          d[i] = static_cast<double>(in.codes[index(in.source, i)]);
        }
        break;
      }
      case Op::kCodeEq: {
        double* d = push();
        for (int i = 0; i < m; ++i) {
          d[i] = flag(in.codes[index(in.source, i)] == in.imm_code);
        }
        break;
      }
      case Op::kDictBitmap: {
        double* d = push();
        const uint8_t* bitmap = bitmaps_[in.aux].data();
        for (int i = 0; i < m; ++i) {
          d[i] = flag(bitmap[in.codes[index(in.source, i)]] != 0);
        }
        break;
      }
      case Op::kStrCompare: {
        double* d = push();
        const StrCompare& sc = str_compares_[in.aux];
        for (int i = 0; i < m; ++i) {
          const std::string& a =
              sc.l.dict->DecodeString(sc.l.codes[index(sc.l.source, i)]);
          const std::string& b =
              sc.r.dict->DecodeString(sc.r.codes[index(sc.r.source, i)]);
          d[i] = flag(StringCompareHolds(sc.op, a.compare(b)));
        }
        break;
      }
      case Op::kNeg:
        unary([](double a) { return -a; });
        break;
      case Op::kNot:
        unary([&](double a) { return flag(a == 0); });
        break;
      case Op::kYear:
        unary([](double a) {
          return static_cast<double>(YearOfDays(static_cast<int32_t>(a)));
        });
        break;
      case Op::kAdd:
        binary([](double a, double b) { return a + b; });
        break;
      case Op::kSub:
        binary([](double a, double b) { return a - b; });
        break;
      case Op::kMul:
        binary([](double a, double b) { return a * b; });
        break;
      case Op::kDiv:
        binary([](double a, double b) { return a / b; });
        break;
      case Op::kCmpEq:
        binary([&](double a, double b) { return flag(TotalEqual(a, b)); });
        break;
      case Op::kCmpNe:
        binary([&](double a, double b) { return flag(!TotalEqual(a, b)); });
        break;
      case Op::kCmpLt:
        binary([&](double a, double b) { return flag(TotalLess(a, b)); });
        break;
      case Op::kCmpLe:
        binary(
            [&](double a, double b) { return flag(TotalLessEqual(a, b)); });
        break;
      case Op::kAnd:
        binary([&](double a, double b) { return flag(a != 0 && b != 0); });
        break;
      case Op::kOr:
        binary([&](double a, double b) { return flag(a != 0 || b != 0); });
        break;
      case Op::kSelect:
        ternary([](double acc, double cond, double thn) {
          return cond != 0 ? thn : acc;
        });
        break;
      case Op::kBetween:
        ternary([&](double v, double lo, double hi) {
          return flag(TotalLessEqual(lo, v) && TotalLessEqual(v, hi));
        });
        break;
    }
  }
  for (int i = 0; i < m; ++i) out[i] = stack[i];
}

double ExprProgram::EvalAt(const uint32_t* sources) const {
  double out;
  Eval<1>([sources](int s, int) { return sources[s]; }, 1, &out);
  return out;
}

void ExprProgram::EvalRange(uint32_t first, int n, double* out) const {
  Eval<kBatch>(
      [first](int, int i) { return first + static_cast<uint32_t>(i); }, n,
      out);
  if (obs::ExecStats* stats = obs::ActiveStats()) {
    stats->CountExprVmRows(static_cast<uint64_t>(n));
  }
}

void ExprProgram::EvalGather(const uint32_t* rows, int n, double* out) const {
  Eval<kBatch>([rows](int, int i) { return rows[i]; }, n, out);
  if (obs::ExecStats* stats = obs::ActiveStats()) {
    stats->CountExprVmRows(static_cast<uint64_t>(n));
  }
}

void ExprProgram::FilterRange(uint32_t first, int n, uint8_t* mask) const {
  double vals[kBatch];
  Eval<kBatch>(
      [first](int, int i) { return first + static_cast<uint32_t>(i); }, n,
      vals);
  for (int i = 0; i < n; ++i) mask[i] &= vals[i] != 0 ? 1 : 0;
  if (obs::ExecStats* stats = obs::ActiveStats()) {
    stats->CountExprVmRows(static_cast<uint64_t>(n));
  }
}

bool ExprProgram::AsRealProduct(int* source_a, const double** a,
                                int* source_b, const double** b) const {
  if (instrs_.size() != 3 || instrs_[0].op != Op::kLoadReal ||
      instrs_[1].op != Op::kLoadReal || instrs_[2].op != Op::kMul) {
    return false;
  }
  *source_a = instrs_[0].source;
  *a = instrs_[0].reals;
  *source_b = instrs_[1].source;
  *b = instrs_[1].reals;
  return true;
}

}  // namespace levelheaded
