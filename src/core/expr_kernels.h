// Fused filter+aggregate kernel: the scan path (join-free queries) runs
// only this. Filters run through RowFilter's typed batched predicates
// (numeric compare/BETWEEN/code-equality fast paths, ExprProgram for the
// general case), and every GROUP BY dimension and aggregate argument is an
// ExprProgram executed batch-at-a-time over the base table's columns, so a
// Q1/Q6-shaped query does typed column loads, a predicate bitmap, a
// surviving-row gather, and SUM/AVG/COUNT accumulation in one pass.
//
// Surviving rows are applied in row order with GroupAccum::Apply's per-slot
// semiring ops, and chunk partials merge in chunk order, so results are
// bit-identical to a row-at-a-time evaluation at any thread count.

#ifndef LEVELHEADED_CORE_EXPR_KERNELS_H_
#define LEVELHEADED_CORE_EXPR_KERNELS_H_

#include <functional>
#include <memory>
#include <vector>

#include "core/expr_eval.h"
#include "core/expr_vm.h"
#include "core/group_accum.h"
#include "core/plan.h"

namespace levelheaded {

class CompiledScan {
 public:
  /// Compiles the whole scan shape (filters, dims, aggregate args) of a
  /// scan-only plan. Mistyped filters fail with kInvalidArgument; any
  /// other failure is an engine bug (kInternal).
  [[nodiscard]] static Result<std::shared_ptr<const CompiledScan>> Compile(
      const PhysicalPlan& plan, const Catalog& catalog);

  /// Processes rows [lo, hi) into `groups`. `poll`, when non-null, is
  /// invoked every 1024 rows; returning false stops the chunk early
  /// (cooperative abort — the caller discards the partial). Returns a fold
  /// of every column of the surviving rows under the -Attr.Elim arm (its
  /// row-store reads, which the caller must keep observable), else 0.
  uint64_t ExecuteChunk(int64_t lo, int64_t hi, GroupAccum* groups,
                        const std::function<bool()>& poll) const;

 private:
  struct DimSpec {
    DimKind kind = DimKind::kReal;
    const uint32_t* codes = nullptr;  // kStringCode: direct code loads
    ExprProgram prog;                 // all other kinds
  };
  struct AggSpec {
    AggFunc func = AggFunc::kSum;
    bool constant_one = false;  // COUNT(*) / argument-free slots
    // Accumulation plan, precomputed so the per-row loop replicates
    // GroupAccum::Apply's semantics without re-dispatching on func:
    // min/max update the main slot; everything else adds main and a
    // constant aux increment (1 for AVG's divisor count, else 0 — the 0
    // add is kept for bit-identity with Apply).
    bool minmax = false;
    bool is_min = false;
    double aux_inc = 0;
    ExprProgram prog;
  };

  /// Conjunct filters with their typed batched fast paths.
  RowFilter filter_;
  std::vector<DimSpec> dims_;
  std::vector<AggSpec> aggs_;
  /// Dense group-ordinal cache shape: when every dim is a string code
  /// over a small dictionary, a combo index (sum of code * stride) maps
  /// to a cached GroupAccum ordinal, bypassing the per-row hashed key
  /// lookup. 0 disables the cache. Group creation still goes through
  /// FindOrCreateOrdinal on first encounter, so insertion order (and
  /// therefore output order) is first-arrival order either way.
  uint32_t dense_total_ = 0;
  std::vector<uint32_t> dense_stride_;
  /// -Attr.Elim arm: every column, read for each surviving row (the
  /// row-store emulation of Table III); empty otherwise.
  std::vector<ColumnSource> touch_;
};

}  // namespace levelheaded

#endif  // LEVELHEADED_CORE_EXPR_KERNELS_H_
