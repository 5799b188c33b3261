#include "core/cost_model.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"

namespace levelheaded {

std::vector<int> CardinalityScores(const CostModelInput& input) {
  uint64_t heavy = 1;
  for (const CostRelation& r : input.relations) {
    heavy = std::max(heavy, r.cardinality);
  }
  std::vector<int> scores;
  scores.reserve(input.relations.size());
  for (const CostRelation& r : input.relations) {
    double s = static_cast<double>(r.cardinality) /
               static_cast<double>(heavy) * 100.0;
    scores.push_back(std::max(1, static_cast<int>(std::ceil(s))));
  }
  return scores;
}

int VertexWeight(const CostModelInput& input, int v) {
  std::vector<int> scores = CardinalityScores(input);
  const bool eq = input.vertices[v].has_equality_selection;
  int weight = -1;
  for (size_t r = 0; r < input.relations.size(); ++r) {
    if (!input.relations[r].Covers(v)) continue;
    if (weight < 0) {
      weight = scores[r];
    } else if (eq) {
      weight = std::max(weight, scores[r]);
    } else {
      weight = std::min(weight, scores[r]);
    }
  }
  return weight < 0 ? 1 : weight;
}

double VertexICost(const CostModelInput& input, const std::vector<int>& order,
                   int position) {
  const int v = order[position];
  // Layout guess per participating relation (Observation 5.1): bitset when
  // this is the relation's first attribute in the order, uint otherwise.
  // Completely dense relations need no intersection at all.
  int num_bs = 0, num_uint = 0;
  for (const CostRelation& rel : input.relations) {
    if (!rel.Covers(v)) continue;
    if (rel.completely_dense) continue;
    bool touched = false;
    for (int p = 0; p < position; ++p) {
      if (rel.Covers(order[p])) {
        touched = true;
        break;
      }
    }
    if (touched) {
      ++num_uint;
    } else {
      ++num_bs;
    }
  }
  const int n = num_bs + num_uint;
  if (n <= 1) return 0;
  // Combine pairwise, bitsets first; bs∩bs yields bs, anything with a uint
  // yields uint.
  double icost = 0;
  bool acc_is_bs = num_bs > 0;
  int remaining_bs = std::max(0, num_bs - 1);
  int remaining_uint = num_uint - (num_bs > 0 ? 0 : 1);
  for (int i = 0; i < remaining_bs; ++i) {
    icost += kIcostBsBs;  // acc stays bs
  }
  for (int i = 0; i < remaining_uint; ++i) {
    icost += acc_is_bs ? kIcostBsUint : kIcostUintUint;
    acc_is_bs = false;
  }
  return icost;
}

double OrderCost(const CostModelInput& input, const std::vector<int>& order) {
  double cost = 0;
  for (int i = 0; i < static_cast<int>(order.size()); ++i) {
    cost += VertexICost(input, order, i) * VertexWeight(input, order[i]);
  }
  return cost;
}

std::vector<OrderCandidate> EnumerateAttributeOrders(
    const CostModelInput& input, bool allow_relaxation) {
  const int k = static_cast<int>(input.vertices.size());
  std::vector<int> ids(k);
  for (int i = 0; i < k; ++i) ids[i] = i;

  int num_materialized = 0;
  for (const CostVertex& v : input.vertices) {
    num_materialized += v.materialized;
  }
  const int num_projected = k - num_materialized;

  std::vector<OrderCandidate> out;
  std::sort(ids.begin(), ids.end());
  do {
    // Validity: materialized attributes before projected ones.
    bool seen_projected = false;
    bool valid = true;
    for (int v : ids) {
      if (input.vertices[v].materialized) {
        if (seen_projected) {
          valid = false;
          break;
        }
      } else {
        seen_projected = true;
      }
    }
    if (!valid) continue;
    OrderCandidate base;
    base.order = ids;
    base.cost = OrderCost(input, ids);
    out.push_back(base);
    // §V-A2 relaxation: exactly one projected attribute, currently last,
    // with a materialized attribute before it -> try the swap. The union
    // machinery only pays for itself when it removes an expensive
    // uint ∩ uint intersection (Example 5.2's cost-50 case); cheaper last
    // levels keep the simpler plan.
    if (allow_relaxation && num_projected == 1 && k >= 3 &&
        !input.vertices[ids[k - 1]].materialized &&
        input.vertices[ids[k - 2]].materialized &&
        VertexICost(input, ids, k - 1) >= kIcostUintUint) {
      OrderCandidate relaxed;
      relaxed.order = ids;
      std::swap(relaxed.order[k - 1], relaxed.order[k - 2]);
      relaxed.cost = OrderCost(input, relaxed.order);
      relaxed.union_relaxed = true;
      // Condition 3: only offered when the icost actually improves.
      if (relaxed.cost < base.cost) out.push_back(std::move(relaxed));
    }
  } while (std::next_permutation(ids.begin(), ids.end()));

  std::sort(out.begin(), out.end(),
            [](const OrderCandidate& a, const OrderCandidate& b) {
              if (a.cost != b.cost) return a.cost < b.cost;
              if (a.union_relaxed != b.union_relaxed) {
                return !a.union_relaxed;  // ties prefer the simpler plan
              }
              return a.order < b.order;
            });
  return out;
}

}  // namespace levelheaded
