#include "core/expr_eval.h"

#include <algorithm>
#include <cmath>
#include <memory>

#include "util/like_matcher.h"
#include "util/thread_pool.h"

namespace levelheaded {

// ---------------------------------------------------------------------------
// RowFilter
// ---------------------------------------------------------------------------

namespace {

bool IsLiteral(const Expr& e) {
  switch (e.kind) {
    case Expr::Kind::kIntLiteral:
    case Expr::Kind::kRealLiteral:
    case Expr::Kind::kDateLiteral:
    case Expr::Kind::kStringLiteral:
      return true;
    default:
      return false;
  }
}

double LiteralNumber(const Expr& e) {
  return e.kind == Expr::Kind::kRealLiteral
             ? e.real_value
             : static_cast<double>(e.int_value);
}

BinOp FlipCmp(BinOp op) {
  switch (op) {
    case BinOp::kLt:
      return BinOp::kGt;
    case BinOp::kLe:
      return BinOp::kGe;
    case BinOp::kGt:
      return BinOp::kLt;
    case BinOp::kGe:
      return BinOp::kLe;
    default:
      return op;
  }
}

}  // namespace

Result<RowFilter> RowFilter::Compile(
    const std::vector<const Expr*>& conjuncts, const Table& table) {
  RowFilter filter;
  filter.table_ = &table;
  for (const Expr* e : conjuncts) {
    Pred pred;

    // <colref> <cmp> <literal>  (either side)
    if (e->kind == Expr::Kind::kBinary && e->children.size() == 2) {
      const Expr* col = e->children[0].get();
      const Expr* lit = e->children[1].get();
      BinOp op = e->bin_op;
      if (IsLiteral(*col) && lit->kind == Expr::Kind::kColumnRef) {
        std::swap(col, lit);
        op = FlipCmp(op);
      }
      if (col->kind == Expr::Kind::kColumnRef && IsLiteral(*lit) &&
          (op == BinOp::kEq || op == BinOp::kNe || op == BinOp::kLt ||
           op == BinOp::kLe || op == BinOp::kGt || op == BinOp::kGe)) {
        const ColumnData& cd = table.column(col->bound_col);
        const bool is_string =
            cd.dict != nullptr && cd.dict->type() == ValueType::kString;
        const bool lit_string = lit->kind == Expr::Kind::kStringLiteral;
        // A string/numeric type mismatch has no meaning; fail the compile.
        // The binder rejects such queries up front — this guards direct
        // RowFilter users.
        if (is_string != lit_string) {
          return Status::InvalidArgument(
              "cannot compare string and numeric operands in '" +
              e->ToString() + "'");
        }
        if (is_string && lit_string &&
            (op == BinOp::kEq || op == BinOp::kNe)) {
          pred.kind = op == BinOp::kEq ? Pred::Kind::kCodeEq
                                       : Pred::Kind::kCodeNe;
          pred.col = col->bound_col;
          pred.rhs_code = cd.dict->TryEncodeString(lit->str_value);
          filter.preds_.push_back(std::move(pred));
          continue;
        }
        // A NaN threshold takes the program path below.
        if (!is_string && !lit_string && !std::isnan(LiteralNumber(*lit))) {
          pred.kind = Pred::Kind::kNumCmp;
          pred.col = col->bound_col;
          pred.op = op;
          pred.lo = LiteralNumber(*lit);
          filter.preds_.push_back(std::move(pred));
          continue;
        }
      }
    }
    // <colref> BETWEEN <num> AND <num>. Both bounds must be validated:
    // checking only the low bound let a string high bound flow through
    // LiteralNumber, which reads int_value (default 0) off a string
    // literal and silently compiled the wrong range.
    if (e->kind == Expr::Kind::kBetween &&
        e->children[0]->kind == Expr::Kind::kColumnRef &&
        IsLiteral(*e->children[1]) && IsLiteral(*e->children[2])) {
      const ColumnData& cd = table.column(e->children[0]->bound_col);
      const bool is_string =
          cd.dict != nullptr && cd.dict->type() == ValueType::kString;
      const bool lo_string =
          e->children[1]->kind == Expr::Kind::kStringLiteral;
      const bool hi_string =
          e->children[2]->kind == Expr::Kind::kStringLiteral;
      if (is_string || lo_string || hi_string) {
        return Status::InvalidArgument(
            "BETWEEN over string operands is not supported: '" +
            e->ToString() + "'");
      }
      pred.lo = LiteralNumber(*e->children[1]);
      pred.hi = LiteralNumber(*e->children[2]);
      // NaN bounds take the program path below.
      if (!std::isnan(pred.lo) && !std::isnan(pred.hi)) {
        pred.kind = Pred::Kind::kNumBetween;
        pred.col = e->children[0]->bound_col;
        filter.preds_.push_back(std::move(pred));
        continue;
      }
    }
    // <string colref> LIKE '<pattern>' -> dictionary bitmap
    if (e->kind == Expr::Kind::kLike &&
        e->children[0]->kind == Expr::Kind::kColumnRef) {
      const ColumnData& cd = table.column(e->children[0]->bound_col);
      if (cd.dict != nullptr && cd.dict->type() == ValueType::kString) {
        // One matcher per Compile() — prefer the binder's precompiled one.
        const std::shared_ptr<const LikeMatcher> matcher =
            e->compiled_like != nullptr
                ? e->compiled_like
                : std::make_shared<const LikeMatcher>(e->str_value);
        pred.kind = Pred::Kind::kDictBitmap;
        pred.col = e->children[0]->bound_col;
        pred.bitmap = LikeBitmap(*matcher, *cd.dict);
        filter.preds_.push_back(std::move(pred));
        continue;
      }
    }
    // Everything else runs as bytecode, vectorized.
    LH_RETURN_NOT_OK(
        ExprProgram::Compile(*e, TableResolver(table), &pred.prog));
    filter.preds_.push_back(std::move(pred));
  }
  return filter;
}

// Cache-line aligned, as are the scan and VM loops (expr_kernels.cc,
// expr_vm.cc): their timing then does not move with the size of unrelated
// code linked before them.
[[gnu::aligned(64)]] int RowFilter::CompactPred(const Pred& p, uint32_t base,
                                                const uint32_t* sel_in,
                                                int n,
                                                uint32_t* sel_out) const {
  int k = 0;
  // `body` is instantiated twice — once streaming the dense range, once
  // gathering through sel_in — so each predicate loop stays tight with no
  // per-row mode branch.
  auto body = [&](auto row_at) {
    switch (p.kind) {
      case Pred::Kind::kNumCmp: {
        const ColumnData& c = table_->column(p.col);
        const int64_t* ints = c.ints.empty() ? nullptr : c.ints.data();
        const double* reals = c.reals.empty() ? nullptr : c.reals.data();
        const double t = p.lo;
        // Comparison hoisted out of the row loop: six tight keep-if loops
        // instead of a per-row op switch.
        // Branchless keep: unconditional store, conditional advance —
        // mid-selectivity predicates cost no branch mispredictions.
        auto compact = [&](auto cmp) {
          for (int j = 0; j < n; ++j) {
            const uint32_t row = row_at(j);
            const double v = ints != nullptr
                                 ? static_cast<double>(ints[row])
                                 : reals[row];
            sel_out[k] = row;
            k += cmp(v) ? 1 : 0;
          }
        };
        switch (p.op) {
          case BinOp::kEq:
            compact([t](double v) { return v == t; });
            break;
          case BinOp::kNe:
            compact([t](double v) { return v != t; });
            break;
          case BinOp::kLt:
            compact([t](double v) { return v < t; });
            break;
          case BinOp::kLe:
            compact([t](double v) { return v <= t; });
            break;
          // The total order puts NaN above every (non-NaN) threshold, so
          // v > t is !(v <= t) and v >= t is !(v < t).
          case BinOp::kGt:
            compact([t](double v) { return !(v <= t); });
            break;
          default:
            compact([t](double v) { return !(v < t); });
            break;
        }
        break;
      }
      case Pred::Kind::kNumBetween: {
        const ColumnData& c = table_->column(p.col);
        const int64_t* ints = c.ints.empty() ? nullptr : c.ints.data();
        const double* reals = c.reals.empty() ? nullptr : c.reals.data();
        for (int j = 0; j < n; ++j) {
          const uint32_t row = row_at(j);
          const double v = ints != nullptr ? static_cast<double>(ints[row])
                                           : reals[row];
          // With non-NaN bounds this is the total order as written: a
          // NaN value sits above hi.
          sel_out[k] = row;
          k += (v >= p.lo && v <= p.hi) ? 1 : 0;
        }
        break;
      }
      case Pred::Kind::kCodeEq: {
        if (p.rhs_code < 0) return;  // absent literal: no match
        const uint32_t* codes = table_->column(p.col).codes.data();
        const uint32_t rhs = static_cast<uint32_t>(p.rhs_code);
        for (int j = 0; j < n; ++j) {
          const uint32_t row = row_at(j);
          sel_out[k] = row;
          k += codes[row] == rhs ? 1 : 0;
        }
        break;
      }
      case Pred::Kind::kCodeNe: {
        const uint32_t* codes = table_->column(p.col).codes.data();
        const uint32_t rhs = static_cast<uint32_t>(p.rhs_code);
        for (int j = 0; j < n; ++j) {
          const uint32_t row = row_at(j);
          // rhs_code < 0 (absent literal) never equals a valid code, so
          // everything passes without a special case.
          sel_out[k] = row;
          k += codes[row] != rhs ? 1 : 0;
        }
        break;
      }
      case Pred::Kind::kDictBitmap: {
        const uint32_t* codes = table_->column(p.col).codes.data();
        const uint8_t* bitmap = p.bitmap.data();
        for (int j = 0; j < n; ++j) {
          const uint32_t row = row_at(j);
          sel_out[k] = row;
          k += bitmap[codes[row]] != 0 ? 1 : 0;
        }
        break;
      }
      case Pred::Kind::kProgram: {
        if (sel_in == nullptr) {
          uint8_t mask[ExprProgram::kBatch];
          std::fill(mask, mask + n, static_cast<uint8_t>(1));
          p.prog.FilterRange(base, n, mask);  // ANDs into mask
          for (int j = 0; j < n; ++j) {
            sel_out[k] = base + static_cast<uint32_t>(j);
            k += mask[j] != 0 ? 1 : 0;
          }
        } else {
          double buf[ExprProgram::kBatch];
          p.prog.EvalGather(sel_in, n, buf);
          for (int j = 0; j < n; ++j) {
            sel_out[k] = sel_in[j];
            k += buf[j] != 0 ? 1 : 0;
          }
        }
        break;
      }
    }
  };
  if (sel_in == nullptr) {
    body([base](int j) { return base + static_cast<uint32_t>(j); });
  } else {
    body([sel_in](int j) { return sel_in[j]; });
  }
  return k;
}

std::vector<uint32_t> RowFilter::SelectedRows() const {
  const int64_t n = static_cast<int64_t>(table_->num_rows());
  constexpr int kB = ExprProgram::kBatch;
  // Whole batches per chunk, cut by the row count alone; the chunks'
  // selections concatenate in chunk order, so the result is ascending and
  // the same at every thread count.
  const int64_t grain = (AdaptiveGrain(n, kMinChunkRows) + kB - 1) / kB * kB;
  const int64_t num_chunks = (n + grain - 1) / grain;
  std::vector<std::vector<uint32_t>> parts(num_chunks);
  ThreadPool& pool = ThreadPool::Global();
  pool.ParallelFor(0, num_chunks, 1, [&](int, int64_t c) {
    const int64_t hi = std::min(n, (c + 1) * grain);
    uint32_t sel[kB];
    // A chunk-local vector: neighbouring chunks' headers share cache lines.
    std::vector<uint32_t> out;
    for (int64_t base = c * grain; base < hi; base += kB) {
      const int m = static_cast<int>(std::min<int64_t>(kB, hi - base));
      const int kept = FilterRange(static_cast<uint32_t>(base), m, sel);
      out.insert(out.end(), sel, sel + kept);
    }
    parts[c] = std::move(out);
  });
  return ConcatInOrder(&parts, pool);
}

}  // namespace levelheaded
