// Physical query plans: the bridge from a chosen GHD + attribute orders to
// executable trie traversals. Produced by BuildPlan (planner.cc), consumed
// by the executor and by Engine::Explain.

#ifndef LEVELHEADED_CORE_PLAN_H_
#define LEVELHEADED_CORE_PLAN_H_

#include <memory>
#include <string>
#include <vector>

#include "core/cost_model.h"
#include "core/options.h"
#include "query/decomposer.h"
#include "query/ghd.h"
#include "query/hypergraph.h"
#include "sql/logical_query.h"
#include "storage/table.h"

namespace levelheaded {

namespace obs {
class Trace;
}  // namespace obs

struct QueryGuard;
class CompiledScan;

/// One aggregate slot, execution view.
struct AggExec {
  AggFunc func = AggFunc::kSum;
  const Expr* arg = nullptr;  ///< null for COUNT(*)
  std::vector<int> arg_rels;
  /// When the argument touches exactly one relation, its expression is
  /// pre-evaluated per row and semiring-merged into that relation's trie
  /// (§IV-A Rule 3); this is the relation index, else -1.
  int single_rel = -1;
  /// Name of the computed annotation ("$agg<i>") when single_rel >= 0.
  std::string annot_name;
};

/// One GROUP BY dimension, execution view.
struct GroupDimExec {
  const Expr* expr = nullptr;
  int vertex = -1;  ///< >=0: a bare key vertex (materialized attribute)
  std::string name;
};

/// One relation participating in a GHD node.
struct RelationPlan {
  int rel = -1;         ///< LogicalQuery relation index; -1 for child result
  int child_node = -1;  ///< GHD node index when rel == -1
  /// Vertex id per trie level, in the relation's trie order (its vertices
  /// sorted by attribute-order position).
  std::vector<int> levels_vertex;
  /// Key column index (in the table schema) per trie level.
  std::vector<int> levels_col;
  /// Without attribute elimination: the table's remaining key columns,
  /// appended as extra (unjoined) trie levels.
  std::vector<int> extra_level_cols;
  bool filtered = false;
};

/// A relation consulted only for annotation lookups at the root (e.g. Q5's
/// nation: joined inside the child node, but its n_name annotation is read
/// while the root node runs — Figure 4). A one-level trie keyed by `vertex`
/// carries the referenced annotations.
struct LookupPlan {
  int rel = -1;
  int vertex = -1;
};

/// One GHD node, physical view.
struct NodePlan {
  std::vector<int> attr_order;  ///< global vertex ids, processing order
  std::vector<bool> materialized;  ///< per attr_order position
  bool union_relaxed = false;
  double cost = 0;
  std::vector<RelationPlan> relations;
  std::vector<LookupPlan> lookups;  ///< root node only
  /// All enumerated orders with costs (Explain / Figure 5 experiments).
  std::vector<OrderCandidate> candidates;
  /// Local-id -> global vertex id map used when interpreting `candidates`.
  std::vector<int> local_to_global;
};

/// Dense-dispatch classification (§III-D).
enum class DenseKernel { kNone, kGemm, kGemv };

/// The complete physical plan. Owns the bound LogicalQuery (whose
/// expression trees the exec structures point into).
struct PhysicalPlan {
  LogicalQuery query;
  Hypergraph hypergraph;
  Ghd ghd;
  QueryOptions options;

  bool scan_only = false;      ///< single-relation query: column-scan path
  DenseKernel dense = DenseKernel::kNone;

  std::vector<NodePlan> nodes;  ///< aligned with ghd.nodes (join plans)
  std::vector<AggExec> aggs;
  std::vector<GroupDimExec> dims;

  /// Compiled fused filter+aggregate kernel for the scan path, built once
  /// at plan time (core/expr_kernels.h). Set exactly when scan_only.
  std::shared_ptr<const CompiledScan> compiled_scan;

  /// Human-readable order of the root node, e.g. "orderkey,custkey,...".
  std::string RootOrderString() const;
};

/// Builds the physical plan: GHD choice, §V attribute ordering per node,
/// trie level assignment, aggregate/dimension execution specs, and dense
/// kernel detection. `trace`, when non-null, receives planning-phase spans
/// (hypergraph, GHD enumeration, attribute ordering). `guard`, when
/// non-null, is polled between planning phases so deadline/cancel unwinds
/// before expensive order enumeration.
[[nodiscard]] Result<PhysicalPlan> BuildPlan(LogicalQuery query, const Catalog& catalog,
                               const QueryOptions& options,
                               obs::Trace* trace = nullptr,
                               const QueryGuard* guard = nullptr);

}  // namespace levelheaded

#endif  // LEVELHEADED_CORE_PLAN_H_
