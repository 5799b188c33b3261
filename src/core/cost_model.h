// The cost-based attribute-order optimizer of §V: the first cost model for
// generic worst-case-optimal join execution. For each GHD node it assigns
//   cost(order) = Σ_i icost(v_i) × weight(v_i)
// where icost models set-intersection layouts under Observation 5.1 (first
// trie level is likely a bitset, deeper levels likely uint arrays) and
// weight models cardinalities under Observation 5.2 (process the highest-
// cardinality attributes first), with equality selections promoting the
// heaviest relation's score (§V-B).

#ifndef LEVELHEADED_CORE_COST_MODEL_H_
#define LEVELHEADED_CORE_COST_MODEL_H_

#include <cstdint>
#include <string>
#include <vector>

namespace levelheaded {

/// Figure 5a-derived intersection costs.
inline constexpr double kIcostBsBs = 1;
inline constexpr double kIcostBsUint = 10;
inline constexpr double kIcostUintUint = 50;

/// One relation participating in a GHD node, as the cost model sees it.
struct CostRelation {
  std::vector<int> vertices;  ///< local vertex ids it spans
  uint64_t cardinality = 0;
  /// Completely dense relations skip intersections entirely: icost 0
  /// (§V-A1, "essential to estimate the cost of LA queries properly").
  bool completely_dense = false;

  bool Covers(int v) const {
    for (int x : vertices) {
      if (x == v) return true;
    }
    return false;
  }
};

/// Per-vertex planning facts.
struct CostVertex {
  std::string name;
  bool materialized = false;  ///< output attribute of this node
  bool has_equality_selection = false;
};

/// A GHD node's cost-model view.
struct CostModelInput {
  std::vector<CostRelation> relations;
  std::vector<CostVertex> vertices;
};

/// A candidate attribute order with its cost estimate.
struct OrderCandidate {
  std::vector<int> order;  ///< vertex ids, processing order
  double cost = 0;
  /// §V-A2: the final two attributes are (projected, materialized) and the
  /// executor must 1-attribute-union the last level.
  bool union_relaxed = false;
};

/// Cardinality score of each relation: ceil(|r| / |r_heavy| × 100) (§V-B).
std::vector<int> CardinalityScores(const CostModelInput& input);

/// Weight of one vertex: the max member-relation score under an equality
/// selection, otherwise the min member-relation score.
int VertexWeight(const CostModelInput& input, int v);

/// icost of the vertex at `position` of `order` following Observation 5.1's
/// layout guessing and the N-way bitset-first combination rule.
double VertexICost(const CostModelInput& input, const std::vector<int>& order,
                   int position);

/// Total cost of an order.
double OrderCost(const CostModelInput& input, const std::vector<int>& order);

/// Every valid order (materialized attributes first, plus — when
/// `allow_relaxation`, at least three attributes exist, and exactly one is
/// projected away — the §V-A2 swapped variants, offered only when they
/// remove a uint∩uint intersection), sorted by cost ascending (ties:
/// lexicographic).
std::vector<OrderCandidate> EnumerateAttributeOrders(
    const CostModelInput& input, bool allow_relaxation);

}  // namespace levelheaded

#endif  // LEVELHEADED_CORE_COST_MODEL_H_
