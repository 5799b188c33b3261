// RowFilter: a compiled row predicate used for selection pushdown ahead of
// trie construction and in fused scans (hot path). Its typed predicates and
// its general case, an ExprProgram (core/expr_vm.h), compare numbers under
// util/total_order.h.

#ifndef LEVELHEADED_CORE_EXPR_EVAL_H_
#define LEVELHEADED_CORE_EXPR_EVAL_H_

#include <cstdint>
#include <vector>

#include "core/expr_vm.h"
#include "sql/ast.h"
#include "storage/table.h"
#include "util/status.h"

namespace levelheaded {

/// A compiled conjunction of single-relation predicates over a table.
/// Typed fast paths cover the common TPC-H filter shapes (numeric/date
/// comparisons, string equality, BETWEEN, LIKE via a dictionary bitmap);
/// anything else runs as an ExprProgram.
class RowFilter {
 public:
  /// Compiles `conjuncts` (bound, all referencing the same relation whose
  /// table is `table`). Conjuncts mixing string and numeric operands in a
  /// comparison or BETWEEN fail with kInvalidArgument.
  [[nodiscard]] static Result<RowFilter> Compile(
      const std::vector<const Expr*>& conjuncts, const Table& table);

  /// All matching row ids, ascending. Evaluates batch-at-a-time through
  /// FilterRange, so typed predicates run vectorized and each predicate
  /// only touches the prior predicates' survivors; chunks of whole batches
  /// run in parallel on the global pool.
  std::vector<uint32_t> SelectedRows() const;

  /// Minimum rows per SelectedRows chunk (~0.3 ms of typed predicates):
  /// smaller tables filter on the calling thread. A pool chunk delays the
  /// chunks of concurrent queries, so finer cuts of a table this size cost
  /// them more than they save this one.
  static constexpr int64_t kMinChunkRows = 1 << 18;

  bool empty() const { return preds_.empty(); }

  /// Writes the ids of rows in [base, base + n) passing every predicate
  /// into sel (ascending); returns the surviving count. n must be
  /// <= ExprProgram::kBatch. The leading predicate streams the dense range
  /// (no row-id indirection) and later predicates compact its survivors,
  /// giving batched evaluation the same short-circuit economics as the
  /// per-row walk: a selective leading predicate shields the rest. Batch
  /// building block shared with the fused scan kernel
  /// (core/expr_kernels.h).
  int FilterRange(uint32_t base, int n, uint32_t* sel) const {
    if (preds_.empty()) {
      for (int i = 0; i < n; ++i) sel[i] = base + static_cast<uint32_t>(i);
      return n;
    }
    int k = CompactPred(preds_[0], base, /*sel_in=*/nullptr, n, sel);
    for (size_t i = 1; i < preds_.size() && k > 0; ++i) {
      k = CompactPred(preds_[i], base, sel, k, sel);
    }
    return k;
  }

 private:
  struct Pred {
    enum class Kind : uint8_t {
      kNumCmp,      // Number(col) <op> threshold
      kNumBetween,  // lo <= Number(col) <= hi
      kCodeEq,      // code == rhs_code (rhs_code < 0 => never matches)
      kCodeNe,
      kDictBitmap,  // bitmap[code] (LIKE and other dict predicates)
      kProgram,     // compiled ExprProgram (vectorized general case)
    };
    Kind kind = Kind::kProgram;
    int col = -1;
    BinOp op = BinOp::kEq;
    double lo = 0, hi = 0;
    int64_t rhs_code = -1;
    std::vector<uint8_t> bitmap;
    ExprProgram prog;
  };

  /// Writes the rows passing predicate `p` into sel_out (ascending) and
  /// returns the surviving count. Input rows are the dense range
  /// [base, base + n) when sel_in is null, else the id list sel_in[0..n)
  /// (sel_out may alias sel_in — compaction never overtakes the read
  /// cursor). n <= ExprProgram::kBatch.
  int CompactPred(const Pred& p, uint32_t base, const uint32_t* sel_in,
                  int n, uint32_t* sel_out) const;

  const Table* table_ = nullptr;
  std::vector<Pred> preds_;
};

}  // namespace levelheaded

#endif  // LEVELHEADED_CORE_EXPR_EVAL_H_
