#include <algorithm>
#include <set>

#include "core/cancel.h"
#include "core/expr_kernels.h"
#include "core/plan.h"
#include "obs/trace.h"
#include "util/logging.h"

namespace levelheaded {

namespace {

/// Key-column index of `rel` mapped to vertex `v`; -2 when two columns of
/// the relation share the vertex (unsupported), -1 when absent.
int ColumnOfVertex(const RelationRef& rel, int v) {
  int found = -1;
  for (size_t c = 0; c < rel.vertex_of_col.size(); ++c) {
    if (rel.vertex_of_col[c] == v) {
      if (found >= 0) return -2;
      found = static_cast<int>(c);
    }
  }
  return found;
}

/// True when the relation instance is a completely dense array over its
/// queried key domains: every combination of domain values is present.
/// (Row count equals the product of domain sizes; keys are unique by the
/// data model.)
bool RelationIsDense(const RelationRef& rel, const Catalog& catalog,
                     const std::vector<int>& level_cols) {
  if (!rel.filters.empty()) return false;
  unsigned __int128 product = 1;
  for (int c : level_cols) {
    const ColumnSpec& spec = rel.table->schema().column(c);
    const Dictionary* dom = catalog.GetDomain(spec.domain);
    if (dom == nullptr || dom->size() == 0) return false;
    product *= dom->size();
    if (product > rel.table->num_rows()) return false;
  }
  return product == rel.table->num_rows();
}

/// Detects the dense GEMM/GEMV shapes (§III-D): a single-node plan over two
/// completely dense relations joined on one vertex, with a single
/// SUM(a.v * b.v) aggregate, key-vertex-only grouping, and outputs that are
/// bare keys or the bare SUM.
DenseKernel DetectDenseKernel(const PhysicalPlan& plan,
                              const Catalog& catalog) {
  if (!plan.options.enable_blas || !plan.options.use_attribute_elimination) {
    return DenseKernel::kNone;
  }
  if (plan.nodes.size() != 1 || plan.nodes[0].relations.size() != 2 ||
      !plan.nodes[0].lookups.empty()) {
    return DenseKernel::kNone;
  }
  if (plan.aggs.size() != 1 || plan.aggs[0].func != AggFunc::kSum ||
      plan.aggs[0].arg == nullptr || plan.query.having != nullptr) {
    return DenseKernel::kNone;
  }
  const Expr& arg = *plan.aggs[0].arg;
  if (arg.kind != Expr::Kind::kBinary || arg.bin_op != BinOp::kMul ||
      arg.children[0]->kind != Expr::Kind::kColumnRef ||
      arg.children[1]->kind != Expr::Kind::kColumnRef) {
    return DenseKernel::kNone;
  }
  for (const GroupDimExec& d : plan.dims) {
    if (d.vertex < 0) return DenseKernel::kNone;
  }
  // The kernel writes bare keys and the bare SUM; any other output (an
  // expression over the SUM) runs on the join path as a group program.
  for (const OutputItem& out : plan.query.outputs) {
    if (out.direct_group_index < 0 && out.direct_agg_slot != 0) {
      return DenseKernel::kNone;
    }
  }
  for (const RelationPlan& rp : plan.nodes[0].relations) {
    if (rp.rel < 0 || rp.filtered) return DenseKernel::kNone;
    if (!RelationIsDense(plan.query.relations[rp.rel], catalog,
                         rp.levels_col)) {
      return DenseKernel::kNone;
    }
  }
  const RelationPlan& r0 = plan.nodes[0].relations[0];
  const RelationPlan& r1 = plan.nodes[0].relations[1];
  const size_t v0 = r0.levels_vertex.size();
  const size_t v1 = r1.levels_vertex.size();
  if (v0 == 2 && v1 == 2 && plan.dims.size() == 2) return DenseKernel::kGemm;
  if (((v0 == 2 && v1 == 1) || (v0 == 1 && v1 == 2)) &&
      plan.dims.size() == 1) {
    return DenseKernel::kGemv;
  }
  return DenseKernel::kNone;
}

}  // namespace

std::string PhysicalPlan::RootOrderString() const {
  if (nodes.empty()) return "(scan)";
  std::string out;
  for (size_t i = 0; i < nodes[0].attr_order.size(); ++i) {
    if (i > 0) out += ",";
    out += query.vertices[nodes[0].attr_order[i]].name;
  }
  return out;
}

Result<PhysicalPlan> BuildPlan(LogicalQuery query, const Catalog& catalog,
                               const QueryOptions& options,
                               obs::Trace* trace, const QueryGuard* guard) {
  if (guard != nullptr) LH_RETURN_NOT_OK(guard->Check());
  PhysicalPlan plan;
  plan.options = options;
  plan.query = std::move(query);
  LogicalQuery& q = plan.query;

  // Aggregate execution specs (§IV-A Rule 3).
  for (size_t i = 0; i < q.aggregates.size(); ++i) {
    const AggregateSpec& spec = q.aggregates[i];
    AggExec agg;
    agg.func = spec.func;
    agg.arg = spec.arg.get();
    agg.arg_rels = spec.arg_relations;
    if (spec.arg != nullptr && spec.arg_relations.size() == 1) {
      agg.single_rel = spec.arg_relations[0];
      agg.annot_name = "$agg" + std::to_string(i);
    }
    plan.aggs.push_back(std::move(agg));
  }

  // Grouping dimensions. A query with neither aggregates nor GROUP BY is
  // executed with set semantics: its outputs become implicit dimensions.
  if (q.aggregates.empty() && q.group_by.empty()) {
    for (size_t i = 0; i < q.outputs.size(); ++i) {
      GroupDimExec dim;
      dim.expr = q.outputs[i].expr.get();
      dim.name = q.outputs[i].name;
      if (dim.expr->kind == Expr::Kind::kColumnRef) {
        int rel = dim.expr->bound_rel, col = dim.expr->bound_col;
        dim.vertex = q.relations[rel].vertex_of_col[col];
      }
      q.outputs[i].direct_group_index = static_cast<int>(i);
      plan.dims.push_back(std::move(dim));
    }
  } else {
    for (const GroupBySpec& g : q.group_by) {
      GroupDimExec dim;
      dim.expr = g.expr.get();
      dim.vertex = g.vertex;
      dim.name = g.name;
      plan.dims.push_back(std::move(dim));
    }
  }

  // Single-relation queries use the column-scan path (§VI: "although
  // LevelHeaded is designed for join queries, it can also compete on scan
  // queries").
  if (q.relations.size() == 1) {
    plan.scan_only = true;
    // Compile the fused filter+aggregate kernel once, at plan time.
    LH_ASSIGN_OR_RETURN(plan.compiled_scan,
                        CompiledScan::Compile(plan, catalog));
    return plan;
  }

  {
    obs::TraceSpan span(trace, "hypergraph");
    LH_ASSIGN_OR_RETURN(plan.hypergraph, BuildHypergraph(q));
    span.AddMetric("edges", static_cast<double>(plan.hypergraph.edges.size()));
  }
  {
    obs::TraceSpan span(trace, "ghd_enumeration");
    LH_ASSIGN_OR_RETURN(plan.ghd, ChooseGhd(q, plan.hypergraph));
    span.AddMetric("nodes", static_cast<double>(plan.ghd.nodes.size()));
    span.AddMetric("fhw", plan.ghd.fhw);
  }

  // Relaxation requires all grouping dimensions to be key vertices (the
  // flushed last level must itself be a group dimension).
  bool all_dims_keys = true;
  for (const GroupDimExec& d : plan.dims) {
    if (d.vertex < 0) all_dims_keys = false;
  }

  obs::TraceSpan order_span(trace, "attr_ordering");
  plan.nodes.resize(plan.ghd.nodes.size());
  for (size_t ni = 0; ni < plan.ghd.nodes.size(); ++ni) {
    // Order enumeration is factorial in bag width; poll per node so an
    // expired deadline unwinds before the next enumeration.
    if (guard != nullptr) LH_RETURN_NOT_OK(guard->Check());
    const GhdNode& gnode = plan.ghd.nodes[ni];
    NodePlan& np = plan.nodes[ni];

    // Interface vertex to the parent (child nodes).
    int parent_interface = -1;
    if (gnode.parent >= 0) {
      const GhdNode& pnode = plan.ghd.nodes[gnode.parent];
      std::vector<int> shared;
      std::set_intersection(gnode.bag.begin(), gnode.bag.end(),
                            pnode.bag.begin(), pnode.bag.end(),
                            std::back_inserter(shared));
      if (shared.size() != 1) {
        return Status::PlanError(
            "GHD child shares more than one vertex with its parent");
      }
      parent_interface = shared[0];
    }

    // Participating relations: the node's edges plus child-node results.
    for (int e : gnode.edges) {
      RelationPlan rp;
      rp.rel = plan.hypergraph.edges[e].relation;
      rp.filtered = !q.relations[rp.rel].filters.empty();
      np.relations.push_back(std::move(rp));
    }
    for (int c : gnode.children) {
      const GhdNode& cnode = plan.ghd.nodes[c];
      std::vector<int> shared;
      std::set_intersection(gnode.bag.begin(), gnode.bag.end(),
                            cnode.bag.begin(), cnode.bag.end(),
                            std::back_inserter(shared));
      if (shared.size() != 1) {
        return Status::PlanError(
            "GHD child shares more than one vertex with its parent");
      }
      RelationPlan rp;
      rp.rel = -1;
      rp.child_node = c;
      rp.levels_vertex = {shared[0]};
      np.relations.push_back(std::move(rp));
    }

    // Cost-model view of the node.
    np.local_to_global = gnode.bag;  // ascending
    auto local_of = [&](int g) {
      for (size_t i = 0; i < np.local_to_global.size(); ++i) {
        if (np.local_to_global[i] == g) return static_cast<int>(i);
      }
      LH_CHECK(false) << "vertex not in bag";
      return -1;
    };

    CostModelInput input;
    for (const RelationPlan& rp : np.relations) {
      CostRelation cr;
      if (rp.rel >= 0) {
        const RelationRef& rel = q.relations[rp.rel];
        std::vector<int> cols;
        for (int g : gnode.bag) {
          int c = ColumnOfVertex(rel, g);
          if (c == -2) {
            return Status::PlanError(
                "relation '" + rel.alias +
                "' maps two columns to one join vertex (self-equality "
                "within a relation is not supported)");
          }
          if (c >= 0) {
            cr.vertices.push_back(local_of(g));
            cols.push_back(c);
          }
        }
        cr.cardinality = rel.table->num_rows();
        cr.completely_dense = RelationIsDense(rel, catalog, cols);
      } else {
        // Child result: a unary relation on the interface vertex. Its
        // cardinality is bounded by the smallest relation in the child.
        cr.vertices.push_back(local_of(rp.levels_vertex[0]));
        uint64_t card = UINT64_MAX;
        for (int e : plan.ghd.nodes[rp.child_node].edges) {
          card = std::min(card, plan.hypergraph.edges[e].cardinality);
        }
        cr.cardinality = card == UINT64_MAX ? 1 : card;
      }
      input.relations.push_back(std::move(cr));
    }
    for (int g : gnode.bag) {
      CostVertex cv;
      cv.name = q.vertices[g].name;
      cv.has_equality_selection = q.vertices[g].has_equality_selection;
      cv.materialized = gnode.parent < 0 ? q.vertices[g].output
                                         : (g == parent_interface);
      input.vertices.push_back(std::move(cv));
    }

    const bool allow_relax = options.enable_union_relaxation &&
                             gnode.parent < 0 && all_dims_keys;
    np.candidates = EnumerateAttributeOrders(input, allow_relax);
    if (np.candidates.empty()) {
      return Status::PlanError("no valid attribute order for GHD node");
    }

    // Pick the order.
    const OrderCandidate* chosen = &np.candidates.front();
    if (gnode.parent < 0 && !options.force_attr_order.empty()) {
      chosen = nullptr;
      for (const OrderCandidate& cand : np.candidates) {
        if (cand.order.size() != options.force_attr_order.size()) continue;
        bool match = true;
        for (size_t i = 0; i < cand.order.size(); ++i) {
          const int g = np.local_to_global[cand.order[i]];
          if (q.vertices[g].name != options.force_attr_order[i]) {
            match = false;
            break;
          }
        }
        if (match) {
          chosen = &cand;
          break;
        }
      }
      if (chosen == nullptr) {
        return Status::PlanError(
            "forced attribute order is not a valid order for this query");
      }
    } else if (options.order_mode == OrderMode::kWorst) {
      // Highest-cost non-relaxed order (the Table III ablation arm).
      for (const OrderCandidate& cand : np.candidates) {
        if (!cand.union_relaxed) chosen = &cand;
      }
    } else if (options.order_mode == OrderMode::kAppearance) {
      // First valid order in vertex-id (appearance) order: candidates are
      // cost-sorted, so find the lexicographically-smallest order instead.
      const OrderCandidate* best = nullptr;
      for (const OrderCandidate& cand : np.candidates) {
        if (cand.union_relaxed) continue;
        if (best == nullptr || cand.order < best->order) best = &cand;
      }
      chosen = best;
    }

    np.union_relaxed = chosen->union_relaxed;
    np.cost = chosen->cost;
    for (int local : chosen->order) {
      const int g = np.local_to_global[local];
      np.attr_order.push_back(g);
      np.materialized.push_back(input.vertices[local].materialized);
    }

    // Trie level assignment: each relation's vertices sorted by position
    // in the node's attribute order.
    auto position_of = [&](int g) {
      for (size_t i = 0; i < np.attr_order.size(); ++i) {
        if (np.attr_order[i] == g) return static_cast<int>(i);
      }
      return -1;
    };
    for (RelationPlan& rp : np.relations) {
      if (rp.rel < 0) continue;  // child results stay unary
      const RelationRef& rel = q.relations[rp.rel];
      std::vector<std::pair<int, int>> ordered;  // (position, vertex)
      for (int g : gnode.bag) {
        int c = ColumnOfVertex(rel, g);
        if (c >= 0) ordered.push_back({position_of(g), g});
      }
      std::sort(ordered.begin(), ordered.end());
      rp.levels_vertex.clear();
      rp.levels_col.clear();
      for (const auto& [pos, g] : ordered) {
        rp.levels_vertex.push_back(g);
        rp.levels_col.push_back(ColumnOfVertex(rel, g));
      }
      if (!options.use_attribute_elimination) {
        // The no-elimination arm keys tries on every key column.
        for (size_t c = 0; c < rel.table->schema().num_columns(); ++c) {
          if (rel.table->schema().column(c).kind != AttrKind::kKey) continue;
          if (std::find(rp.levels_col.begin(), rp.levels_col.end(),
                        static_cast<int>(c)) == rp.levels_col.end()) {
            rp.extra_level_cols.push_back(static_cast<int>(c));
          }
        }
      }
    }
  }
  order_span.End();

  // Annotation lookups: relations referenced by dimensions or outputs but
  // not participating in the root node (they live in a child; Figure 4's
  // n_name access).
  {
    std::set<int> root_rels;
    for (const RelationPlan& rp : plan.nodes[0].relations) {
      if (rp.rel >= 0) root_rels.insert(rp.rel);
    }
    std::set<int> referenced;
    for (const GroupDimExec& d : plan.dims) {
      std::vector<int> rels = CollectRelations(*d.expr);
      referenced.insert(rels.begin(), rels.end());
    }
    for (const OutputItem& o : q.outputs) {
      std::vector<int> rels = CollectRelations(*o.expr);
      referenced.insert(rels.begin(), rels.end());
    }
    for (const AggExec& a : plan.aggs) {
      referenced.insert(a.arg_rels.begin(), a.arg_rels.end());
    }
    for (int rel : referenced) {
      if (root_rels.count(rel) > 0) continue;
      // Find the child node containing this relation and its interface.
      int vertex = -1;
      for (const RelationPlan& rp : plan.nodes[0].relations) {
        if (rp.rel != -1) continue;
        for (int e : plan.ghd.nodes[rp.child_node].edges) {
          if (plan.hypergraph.edges[e].relation == rel) {
            vertex = rp.levels_vertex[0];
          }
        }
      }
      if (vertex < 0 || ColumnOfVertex(q.relations[rel], vertex) < 0) {
        return Status::PlanError(
            "relation '" + q.relations[rel].alias +
            "' is referenced by the output but reachable from no root "
            "vertex");
      }
      plan.nodes[0].lookups.push_back({rel, vertex});
    }
  }

  plan.dense = DetectDenseKernel(plan, catalog);
  return plan;
}

}  // namespace levelheaded
