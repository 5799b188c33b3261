#include "full_decomposer.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <set>

#include "query/simplex.h"
#include "util/logging.h"

namespace levelheaded {

namespace {

/// A rooted decomposition fragment over a subset of edges. Node 0 is the
/// fragment's root.
struct Fragment {
  std::vector<GhdNode> nodes;
  double fhw = 0;

  int size() const { return static_cast<int>(nodes.size()); }
};

class Enumerator {
 public:
  Enumerator(const Hypergraph& h, const FullDecomposeOptions& options)
      : h_(h), options_(options) {}

  Result<std::vector<Ghd>> Run() {
    if (h_.edges.empty()) {
      return Status::InvalidArgument("hypergraph has no edges");
    }
    const uint32_t all = (1u << h_.edges.size()) - 1;
    std::vector<Fragment> fragments = Decompose(all, 0);
    std::vector<Ghd> out;
    for (Fragment& f : fragments) {
      Ghd ghd;
      ghd.nodes = std::move(f.nodes);
      ComputeWidths(h_, &ghd);
      if (!ValidateGhd(ghd, h_).ok()) continue;  // defensive
      out.push_back(std::move(ghd));
    }
    std::sort(out.begin(), out.end(), [](const Ghd& a, const Ghd& b) {
      if (a.fhw != b.fhw) return a.fhw < b.fhw;
      if (a.nodes.size() != b.nodes.size()) {
        return a.nodes.size() < b.nodes.size();
      }
      return a.depth() < b.depth();
    });
    return out;
  }

 private:
  /// Width of a bag: fractional cover by hypergraph edges contained in it.
  double BagWidth(const std::vector<int>& bag) {
    std::set<int> bag_set(bag.begin(), bag.end());
    std::vector<int> local_id(h_.num_vertices, -1);
    int next = 0;
    for (int v : bag) local_id[v] = next++;
    std::vector<std::vector<int>> local_edges;
    for (const Hyperedge& e : h_.edges) {
      bool inside = !e.vertices.empty();
      for (int v : e.vertices) {
        if (bag_set.find(v) == bag_set.end()) {
          inside = false;
          break;
        }
      }
      if (!inside) continue;
      std::vector<int> le;
      for (int v : e.vertices) le.push_back(local_id[v]);
      local_edges.push_back(std::move(le));
    }
    return FractionalEdgeCover(next, local_edges);
  }

  /// Decomposes the edges in `mask`; the fragment root's bag must contain
  /// the vertices of `required` (a vertex bitmask packed into u64).
  std::vector<Fragment> Decompose(uint32_t mask, uint64_t required) {
    const auto key = std::make_pair(mask, required);
    auto it = memo_.find(key);
    if (it != memo_.end()) return it->second;

    std::vector<Fragment> results;
    // Enumerate candidate root bags: unions of non-empty edge subsets of
    // the component, plus the required interface vertices.
    for (uint32_t sub = mask; sub != 0; sub = (sub - 1) & mask) {
      if (budget_exhausted_) break;
      std::set<int> bag_set;
      for (size_t e = 0; e < h_.edges.size(); ++e) {
        if (sub & (1u << e)) {
          bag_set.insert(h_.edges[e].vertices.begin(),
                         h_.edges[e].vertices.end());
        }
      }
      for (int v = 0; v < h_.num_vertices; ++v) {
        if (required & (1ull << v)) bag_set.insert(v);
      }
      std::vector<int> bag(bag_set.begin(), bag_set.end());
      const double width = BagWidth(bag);
      if (std::isinf(width)) continue;  // an interface vertex is uncovered

      // Edges of this component fully inside the bag.
      uint32_t placed = 0;
      for (size_t e = 0; e < h_.edges.size(); ++e) {
        if (!(mask & (1u << e))) continue;
        bool inside = true;
        for (int v : h_.edges[e].vertices) {
          if (bag_set.find(v) == bag_set.end()) {
            inside = false;
            break;
          }
        }
        if (inside) placed |= 1u << e;
      }
      LH_DCHECK((placed & sub) == sub);
      const uint32_t rest = mask & ~placed;

      // Split `rest` into components connected through vertices outside
      // the bag.
      std::vector<uint32_t> components = Components(rest, bag_set);

      // Recursively decompose each component; the child root must carry
      // the component's interface to this bag.
      std::vector<std::vector<Fragment>> child_choices;
      bool feasible = true;
      for (uint32_t comp : components) {
        uint64_t interface = 0;
        for (size_t e = 0; e < h_.edges.size(); ++e) {
          if (!(comp & (1u << e))) continue;
          for (int v : h_.edges[e].vertices) {
            if (bag_set.find(v) != bag_set.end()) {
              interface |= 1ull << v;
            }
          }
        }
        std::vector<Fragment> choices = Decompose(comp, interface);
        if (choices.empty()) {
          feasible = false;
          break;
        }
        child_choices.push_back(std::move(choices));
      }
      if (!feasible) continue;

      // Assemble: root node + one choice per component (cartesian product,
      // bounded by the candidate budget).
      std::vector<int> pick(child_choices.size(), 0);
      while (true) {
        Fragment f;
        GhdNode root;
        root.bag = bag;
        for (size_t e = 0; e < h_.edges.size(); ++e) {
          if (placed & (1u << e)) root.edges.push_back(static_cast<int>(e));
        }
        root.width = width;
        f.fhw = width;
        f.nodes.push_back(std::move(root));
        for (size_t c = 0; c < child_choices.size(); ++c) {
          const Fragment& child = child_choices[c][pick[c]];
          const int base = f.size();
          for (const GhdNode& n : child.nodes) {
            GhdNode copy = n;
            copy.parent = n.parent < 0 ? 0 : n.parent + base;
            f.nodes.push_back(std::move(copy));
          }
          f.nodes[0].children.push_back(base);
          for (int i = base; i < f.size(); ++i) {
            const int p = f.nodes[i].parent;
            if (p >= base) {
              // fix child lists lazily: rebuilt below
            }
          }
          f.fhw = std::max(f.fhw, child.fhw);
        }
        RebuildChildren(&f);
        results.push_back(std::move(f));
        ++produced_;
        if (options_.max_candidates > 0 &&
            produced_ >= options_.max_candidates) {
          budget_exhausted_ = true;
          break;
        }
        // Odometer over child choices.
        size_t d = 0;
        for (; d < pick.size(); ++d) {
          if (static_cast<size_t>(++pick[d]) < child_choices[d].size()) break;
          pick[d] = 0;
        }
        if (d == pick.size()) break;
      }
    }

    Prune(&results);
    memo_[key] = results;
    return results;
  }

  /// Connected components of the edges in `rest`, where connectivity is
  /// sharing a vertex outside `bag`.
  std::vector<uint32_t> Components(uint32_t rest,
                                   const std::set<int>& bag) const {
    std::vector<uint32_t> components;
    uint32_t remaining = rest;
    while (remaining != 0) {
      const uint32_t seed = remaining & (~remaining + 1);  // lowest bit
      uint32_t comp = seed;
      bool grew = true;
      while (grew) {
        grew = false;
        for (size_t e = 0; e < h_.edges.size(); ++e) {
          const uint32_t bit = 1u << e;
          if (!(remaining & bit) || (comp & bit)) continue;
          // Connected to comp through an out-of-bag vertex?
          bool connected = false;
          for (size_t f = 0; f < h_.edges.size() && !connected; ++f) {
            if (!(comp & (1u << f))) continue;
            for (int v : h_.edges[e].vertices) {
              if (bag.find(v) != bag.end()) continue;
              if (h_.edges[f].Covers(v)) {
                connected = true;
                break;
              }
            }
          }
          if (connected) {
            comp |= bit;
            grew = true;
          }
        }
      }
      components.push_back(comp);
      remaining &= ~comp;
    }
    return components;
  }

  void RebuildChildren(Fragment* f) const {
    for (GhdNode& n : f->nodes) n.children.clear();
    for (int i = 1; i < f->size(); ++i) {
      f->nodes[f->nodes[i].parent].children.push_back(i);
    }
  }

  /// Keeps the Pareto-best fragments per memo entry: lowest widths first,
  /// bounded count (the full space is exponential).
  void Prune(std::vector<Fragment>* results) const {
    if (results->empty()) return;
    double best = results->front().fhw;
    for (const Fragment& f : *results) best = std::min(best, f.fhw);
    std::vector<Fragment> kept;
    std::sort(results->begin(), results->end(),
              [](const Fragment& a, const Fragment& b) {
                if (a.fhw != b.fhw) return a.fhw < b.fhw;
                return a.nodes.size() < b.nodes.size();
              });
    for (Fragment& f : *results) {
      if (f.fhw > best * options_.width_slack + 1e-9) continue;
      kept.push_back(std::move(f));
      if (kept.size() >= 24) break;
    }
    *results = std::move(kept);
  }

  const Hypergraph& h_;
  const FullDecomposeOptions& options_;
  std::map<std::pair<uint32_t, uint64_t>, std::vector<Fragment>> memo_;
  size_t produced_ = 0;
  bool budget_exhausted_ = false;
};

}  // namespace

Result<std::vector<Ghd>> EnumerateAllGhds(
    const Hypergraph& h, const FullDecomposeOptions& options) {
  if (h.num_vertices > 63) {
    return Status::InvalidArgument("too many vertices for exhaustive GHDs");
  }
  if (h.edges.size() > 20) {
    return Status::InvalidArgument("too many edges for exhaustive GHDs");
  }
  Enumerator enumerator(h, options);
  return enumerator.Run();
}

Result<double> ExactFhw(const Hypergraph& h) {
  LH_ASSIGN_OR_RETURN(std::vector<Ghd> all, EnumerateAllGhds(h));
  if (all.empty()) return Status::Internal("no decomposition found");
  return all.front().fhw;
}

}  // namespace levelheaded
