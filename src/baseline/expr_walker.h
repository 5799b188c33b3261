// The tree-walking expression evaluator: a recursive walk of a bound
// expression over an abstract cell accessor. The pairwise baseline's
// interpreted mode stands in for tree-walking engines through it, and the
// tests use it as the oracle of the compiled ExprProgram VM
// (core/expr_vm.h). The engine never walks: it compiles every expression
// to an ExprProgram. Numbers compare under util/total_order.h, as in the
// VM.

#ifndef LEVELHEADED_BASELINE_EXPR_WALKER_H_
#define LEVELHEADED_BASELINE_EXPR_WALKER_H_

#include <cstdint>

#include "sql/ast.h"
#include "storage/table.h"

namespace levelheaded {

/// Cell access for the generic evaluator. Implementations resolve a bound
/// column reference (relation, column) in their own context: a joined
/// tuple of the pairwise baseline, or a test's row.
class CellAccessor {
 public:
  virtual ~CellAccessor() = default;
  /// Numeric value (ints and dates as their integer value; dict-encoded
  /// strings as their code — callers needing string semantics use Code()).
  virtual double Number(int rel, int col) const = 0;
  /// Dictionary code of a string column; -1 when not dict-encoded.
  virtual int64_t Code(int rel, int col) const = 0;
  /// Dictionary of a string column; nullptr when not dict-encoded.
  virtual const Dictionary* Dict(int rel, int col) const = 0;
};

/// True when the bound column reference denotes a string-typed column.
bool IsStringExpr(const Expr& e, const CellAccessor& cells);

/// Evaluates a bound scalar expression (aggregate args, CASE, EXTRACT,
/// arithmetic). kAggRef nodes are not allowed here.
double EvalNumber(const Expr& e, const CellAccessor& cells);

/// Evaluates a bound predicate (comparisons, AND/OR/NOT, LIKE, BETWEEN).
bool EvalBool(const Expr& e, const CellAccessor& cells);

/// Evaluates a bound expression to a dynamic Value (decodes strings; the
/// tests' reference executor groups by it).
Value EvalValue(const Expr& e, const CellAccessor& cells);

}  // namespace levelheaded

#endif  // LEVELHEADED_BASELINE_EXPR_WALKER_H_
