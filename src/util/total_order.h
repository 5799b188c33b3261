// The engine's one comparison rule for doubles: PostgreSQL's total order.
// NaN equals NaN and sorts above every number, +inf included; -0 equals +0.
// On NaN-free operands each helper is exactly the IEEE comparison, so
// results over NaN-free data do not depend on which helper a path uses.
//
// Every numeric comparison goes through here: the tree walker, the
// expression VM's compare and BETWEEN ops, RowFilter's typed predicates,
// post-aggregation outputs and HAVING, ORDER BY, QueryResult::SortRows,
// and every MIN/MAX fold. TotalLess is a strict weak ordering over all
// doubles (std::sort needs one; IEEE `<` is not one once NaN appears).

#ifndef LEVELHEADED_UTIL_TOTAL_ORDER_H_
#define LEVELHEADED_UTIL_TOTAL_ORDER_H_

namespace levelheaded {

/// a == b under the total order.
inline bool TotalEqual(double a, double b) {
  return a == b || (a != a && b != b);
}

/// a < b under the total order: a number is below NaN.
inline bool TotalLess(double a, double b) {
  return a < b || (b != b && a == a);
}

/// a <= b under the total order: everything is at or below NaN.
inline bool TotalLessEqual(double a, double b) { return a <= b || b != b; }

/// Three-way compare under the total order: -1, 0 or 1.
inline int TotalCompare(double a, double b) {
  return TotalLess(a, b) ? -1 : (TotalLess(b, a) ? 1 : 0);
}

/// MIN / MAX folds under the total order (std::min/std::max are not: their
/// result over a NaN depends on fold order). MAX over a NaN is NaN; MIN
/// passes NaN over, so NaN is MIN's identity and an all-NaN MIN is NaN.
inline double TotalMin(double a, double b) { return TotalLess(b, a) ? b : a; }
inline double TotalMax(double a, double b) { return TotalLess(a, b) ? b : a; }

}  // namespace levelheaded

#endif  // LEVELHEADED_UTIL_TOTAL_ORDER_H_
