// Typed bytecode for bound expressions — the engine's only row evaluator
// (the "generated code" half of the paper's compiled kernels, without a
// C++-compiler dependency). An ExprProgram is compiled once, at plan time
// or at node setup, from a bound expression tree into postfix
// instructions over typed column buffers, then executed by a value-stack
// VM: batch-at-a-time over base-table rows in scans and filters, and one
// value at a time at every WCOJ leaf.
//
// Index sources: a load reads its buffer at an index the caller supplies
// per evaluation. In scans, filters and per-row aggregate arguments there
// is one source, the base row. At a WCOJ leaf each source is a relation's
// rank cursor, a lookup relation's root rank, or an iterated relation's
// subrow (the executor fills them; DESIGN.md §15).
//
// Semantics: one IEEE operation per tree-walker operation, in the walker's
// order, so results are bit-identical to EvalNumber/EvalBool
// (baseline/expr_walker.h, the test oracle). Every comparison follows the
// total order of util/total_order.h, which is the IEEE result on non-NaN
// operands.
// AND/OR/CASE evaluate both branches where the walker short-circuits; the
// discarded value is never observable.
//
// Compilation is total over binder-typed expressions: string/numeric type
// mixes fail with kInvalidArgument (only hand-built trees reach that), and
// any other rejection is an engine bug reported as kInternal.

#ifndef LEVELHEADED_CORE_EXPR_VM_H_
#define LEVELHEADED_CORE_EXPR_VM_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "sql/ast.h"
#include "storage/table.h"
#include "util/status.h"

namespace levelheaded {

class LikeMatcher;

/// One byte per code of `dict`: 1 where the code's string matches
/// `matcher`. Filled in parallel chunks over the dictionary. Every LIKE over
/// a dictionary column compiles to this bitmap (the VM's kDictBitmap and
/// RowFilter's typed LIKE predicate).
std::vector<uint8_t> LikeBitmap(const LikeMatcher& matcher,
                                const Dictionary& dict);

/// A column as a program reads it: one typed buffer and the index source
/// that addresses it.
struct ColumnSource {
  enum class Type : uint8_t { kInt, kReal, kString };
  Type type = Type::kReal;
  const int64_t* ints = nullptr;     // kInt
  const double* reals = nullptr;     // kReal
  const uint32_t* codes = nullptr;   // kString: dictionary codes
  const Dictionary* dict = nullptr;  // kString: sorted (order-preserving)
  int source = 0;
};

/// Resolves bound column reference (rel, col) to its buffer and source;
/// false when the column is not readable in the caller's context.
using ColumnResolver = std::function<bool(int rel, int col, ColumnSource*)>;

/// Column `c` of `table` at source 0 (the base row).
ColumnSource TableColumn(const Table& table, int c);

/// Every column of `table` at source 0, whatever the relation index.
ColumnResolver TableResolver(const Table& table);

class ExprProgram {
 public:
  /// Rows evaluated per VM dispatch; batch entry points accept at most
  /// this many rows per call.
  static constexpr int kBatch = 256;
  /// Value-stack depth kept on the machine stack; deeper programs run
  /// with a heap-backed value stack.
  static constexpr int kMaxStack = 16;

  /// Compiles bound expression `e`. The resolver's buffers must outlive
  /// the program; `e` and the resolver are not retained. On failure *out
  /// is left empty.
  [[nodiscard]] static Status Compile(const Expr& e,
                                      const ColumnResolver& resolve,
                                      ExprProgram* out);

  /// Evaluates once, with source s at index sources[s] (the WCOJ leaf).
  double EvalAt(const uint32_t* sources) const;

  /// Evaluates base rows [first, first + n) into out[0..n). n <= kBatch.
  void EvalRange(uint32_t first, int n, double* out) const;

  /// Evaluates the gathered base rows[0..n) into out[0..n). n <= kBatch.
  void EvalGather(const uint32_t* rows, int n, double* out) const;

  /// ANDs the predicate value (!= 0) over base rows [first, first + n)
  /// into mask[0..n). n <= kBatch.
  void FilterRange(uint32_t first, int n, uint8_t* mask) const;

  /// True when the program is exactly real-load * real-load; exposes both
  /// operands so callers can run the multiply as a direct array kernel.
  bool AsRealProduct(int* source_a, const double** a, int* source_b,
                     const double** b) const;

 private:
  // Postfix ops. Every enumerator must have a `case Op::k...` in the
  // expr_vm.cc dispatch switch — machine-checked by the `vm-op-coverage`
  // lint rule (tools/lint.py).
  enum class Op : uint8_t {
    kConst,       // push imm
    kLoadInt,     // push (double)ints[index]
    kLoadReal,    // push reals[index]
    kLoadCode,    // push (double)codes[index] (same-dictionary compares)
    kCodeEq,      // push codes[index] == imm_code (string equality)
    kDictBitmap,  // push bitmaps_[aux][codes[index]] (LIKE)
    kStrCompare,  // push decoded-string compare (different dictionaries)
    kAdd,         // binary arithmetic...
    kSub,
    kMul,
    kDiv,
    kNeg,         // unary minus
    kNot,         // logical not
    kYear,        // EXTRACT(YEAR FROM days)
    kCmpEq,       // comparisons under the total order -> 0/1...
    kCmpNe,
    kCmpLt,
    kCmpLe,
    kAnd,         // both-sides logical and/or -> 0/1
    kOr,
    kSelect,      // (else, cond, then) -> cond ? then : else (CASE chains)
    kBetween,     // lo <= v && v <= hi under the total order
  };

  struct Instr {
    Op op = Op::kConst;
    int source = 0;  // loads: index source
    int aux = -1;    // kDictBitmap / kStrCompare: side-table entry
    uint32_t imm_code = 0;
    double imm = 0;
    const int64_t* ints = nullptr;
    const double* reals = nullptr;
    const uint32_t* codes = nullptr;
  };

  /// kStrCompare operands: two string columns over different dictionaries.
  struct StrCompare {
    ColumnSource l, r;
    BinOp op = BinOp::kEq;
  };

  Status CompileNode(const Expr& e, const ColumnResolver& resolve);
  Status CompileCompare(const Expr& e, const ColumnResolver& resolve);
  Status CompileStringCompare(const Expr& e, const ColumnResolver& resolve);
  void Push(Op op) { instrs_.push_back(Instr{op}); }
  void PushConst(double v);
  /// Validates stack discipline and records the maximum depth.
  Status CheckStack();

  /// Runs the program over n <= kWidth lanes into out[0..n).
  template <int kWidth, typename Index>
  void Eval(Index index, int n, double* out) const;
  template <int kWidth, bool kHeapStack, typename Index>
  void Run(Index index, int n, double* out) const;

  std::vector<Instr> instrs_;
  /// Dictionary-code bitmaps for kDictBitmap (one per LIKE site).
  std::vector<std::vector<uint8_t>> bitmaps_;
  std::vector<StrCompare> str_compares_;
  int max_depth_ = 0;
};

}  // namespace levelheaded

#endif  // LEVELHEADED_CORE_EXPR_VM_H_
