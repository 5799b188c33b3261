#include "core/executor.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <set>
#include <unordered_map>

#include "core/cancel.h"
#include "core/expr_eval.h"
#include "core/expr_kernels.h"
#include "core/expr_vm.h"
#include "core/group_accum.h"
#include "obs/profile.h"
#include "obs/trace.h"
#include "util/date.h"
#include "la/dense.h"
#include "set/intersect.h"
#include "util/bits.h"
#include "util/logging.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"
#include "util/thread_pool.h"
#include "util/timer.h"
#include "util/total_order.h"

namespace levelheaded {
namespace {

// ---------------------------------------------------------------------------
// Built relations: a trie plus annotation bookkeeping.
// ---------------------------------------------------------------------------

struct BuiltRelation {
  std::shared_ptr<Trie> trie;
  const RelationRef* ref = nullptr;
  int num_query_levels = 0;  // trie levels participating in the join
  std::vector<int> annot_of_col;
  std::vector<AnnotationMerge> annot_merge;
  int count_annot = -1;
  std::vector<int> agg_annot;  // per aggregate slot
  bool unique_keys = true;
};

void CollectColumnsOf(const Expr& e, int rel, std::set<int>* cols) {
  if (e.kind == Expr::Kind::kColumnRef && e.bound_rel == rel) {
    cols->insert(e.bound_col);
  }
  for (const ExprPtr& c : e.children) {
    if (c != nullptr) CollectColumnsOf(*c, rel, cols);
  }
}

std::set<int> ReferencedColumns(const PhysicalPlan& plan, int rel) {
  std::set<int> cols;
  for (const GroupDimExec& d : plan.dims) {
    if (d.vertex < 0) CollectColumnsOf(*d.expr, rel, &cols);
  }
  for (const OutputItem& o : plan.query.outputs) {
    CollectColumnsOf(*o.expr, rel, &cols);
  }
  for (const AggExec& a : plan.aggs) {
    if (a.arg != nullptr && a.single_rel < 0) {
      CollectColumnsOf(*a.arg, rel, &cols);
    }
  }
  const RelationRef& ref = plan.query.relations[rel];
  for (auto it = cols.begin(); it != cols.end();) {
    if (ref.table->schema().column(*it).kind == AttrKind::kKey) {
      it = cols.erase(it);
    } else {
      ++it;
    }
  }
  return cols;
}

AnnotationMerge MergeForAgg(AggFunc f) {
  switch (f) {
    case AggFunc::kMin:
      return AnnotationMerge::kMin;
    case AggFunc::kMax:
      return AnnotationMerge::kMax;
    default:
      return AnnotationMerge::kSum;
  }
}

/// Evaluates a single-relation aggregate argument at the rows a trie build
/// reads: the selected rows, or every row when `selection` is null. The
/// result is indexed by row id; rows outside the selection stay 0 and are
/// never read. Chunks of whole batches, cut by the row count alone, run on
/// the global pool.
Result<std::vector<double>> ComputeRowExpr(
    const Expr& arg, const Table& table,
    const std::vector<uint32_t>* selection) {
  ExprProgram prog;
  LH_RETURN_NOT_OK(ExprProgram::Compile(arg, TableResolver(table), &prog));
  std::vector<double> out(table.num_rows());
  const int64_t m = static_cast<int64_t>(
      selection != nullptr ? selection->size() : table.num_rows());
  constexpr int kB = ExprProgram::kBatch;
  const int64_t grain = (AdaptiveGrain(m, 16384) + kB - 1) / kB * kB;
  ThreadPool::Global().ParallelChunks(
      0, m, grain, [&](int, int64_t lo, int64_t hi) {
        double buf[kB];
        for (int64_t r = lo; r < hi; r += kB) {
          const int k = static_cast<int>(std::min<int64_t>(kB, hi - r));
          if (selection == nullptr) {
            prog.EvalRange(static_cast<uint32_t>(r), k, out.data() + r);
            continue;
          }
          const uint32_t* rows = selection->data() + r;
          prog.EvalGather(rows, k, buf);
          for (int j = 0; j < k; ++j) out[rows[j]] = buf[j];
        }
      });
  return out;
}

/// An annotation buffer as an expression-program column (its index source
/// is set by the caller).
ColumnSource AnnotationColumn(const AnnotationBuffer& buf) {
  ColumnSource col;
  if (buf.type == ValueType::kString) {
    col.type = ColumnSource::Type::kString;
    col.codes = buf.codes.data();
    col.dict = buf.dict;
  } else if (IsRealType(buf.type)) {
    col.type = ColumnSource::Type::kReal;
    col.reals = buf.reals.data();
  } else {
    col.type = ColumnSource::Type::kInt;
    col.ints = buf.ints.data();
  }
  return col;
}

/// Each filtered relation's selected rows, indexed by relation: the first
/// trie build of a relation in a query runs its filter, and every later
/// build of it (another GHD node, another key order) reuses the rows.
using Selections = std::vector<std::optional<std::vector<uint32_t>>>;

/// Builds (or fetches from cache) the trie of one relation over the key
/// columns `level_cols` (query levels first, ablation extras last). The
/// span carries the build's layers: filter, aggregate-argument compute and
/// Trie::Build times, the rows selected and whether they came presorted.
Result<BuiltRelation> BuildRelationTrie(
    const PhysicalPlan& plan, const Catalog& catalog, int rel,
    const std::vector<int>& level_cols, int num_query_levels,
    bool attach_aggregates, TrieCache* cache, Selections* selections,
    QueryResult::Timing* timing, obs::QueryObs* qobs) {
  obs::TraceSpan span(qobs != nullptr ? &qobs->trace : nullptr, "trie_build");
  BuiltRelation out;
  const RelationRef& ref = plan.query.relations[rel];
  out.ref = &ref;
  out.num_query_levels = num_query_levels;

  TrieBuildSpec spec;
  std::string signature = ref.table->schema().name();
  for (int c : level_cols) {
    spec.key_codes.push_back(&ref.table->column(c).codes);
    const ColumnSpec& cs = ref.table->schema().column(c);
    const Dictionary* dom = catalog.GetDomain(cs.domain);
    spec.domain_sizes.push_back(dom == nullptr ? 0 : dom->size());
    signature += "|k" + std::to_string(c);
  }

  // Per-row aggregate arguments are computed inside build_trie below, so a
  // cache hit never evaluates them; the signature needs only their text.
  // `computed` is reserved up front so the annotation specs' pointers into
  // it stay valid.
  std::vector<const Expr*> computed_args;
  std::vector<std::vector<double>> computed;
  computed.reserve(plan.aggs.size());
  out.agg_annot.assign(plan.aggs.size(), -1);
  if (attach_aggregates) {
    for (size_t i = 0; i < plan.aggs.size(); ++i) {
      const AggExec& agg = plan.aggs[i];
      if (agg.single_rel != rel || agg.arg == nullptr) continue;
      if (agg.func == AggFunc::kCount) continue;
      computed_args.push_back(agg.arg);
      computed.emplace_back();
      TrieAnnotationSpec ann;
      ann.name = agg.annot_name;
      ann.type = ValueType::kDouble;
      ann.merge = MergeForAgg(agg.func);
      ann.reals = &computed.back();
      spec.annotations.push_back(ann);
      out.annot_merge.push_back(ann.merge);
      out.agg_annot[i] = static_cast<int>(spec.annotations.size()) - 1;
      signature += "|$" + std::to_string(i) + ":" + agg.arg->ToString();
    }
  }

  out.annot_of_col.assign(ref.table->schema().num_columns(), -1);
  for (int c : ReferencedColumns(plan, rel)) {
    const ColumnSpec& cs = ref.table->schema().column(c);
    const ColumnData& cd = ref.table->column(c);
    TrieAnnotationSpec ann;
    ann.name = cs.name;
    ann.type = cs.type;
    ann.merge = AnnotationMerge::kFirst;
    if (cs.type == ValueType::kString) {
      ann.codes = &cd.codes;
      ann.dict = cd.dict;
    } else if (IsRealType(cs.type)) {
      ann.reals = &cd.reals;
    } else {
      ann.ints = &cd.ints;
    }
    spec.annotations.push_back(ann);
    out.annot_merge.push_back(AnnotationMerge::kFirst);
    out.annot_of_col[c] = static_cast<int>(spec.annotations.size()) - 1;
    signature += "|a" + std::to_string(c);
  }

  spec.add_count_annotation = true;
  spec.verify_first_unique = true;
  out.count_annot = static_cast<int>(spec.annotations.size());
  out.annot_merge.push_back(AnnotationMerge::kSum);

  const bool filtered = !ref.filters.empty();
  double filter_ms = 0;
  if (filtered) {
    std::optional<std::vector<uint32_t>>& selection = (*selections)[rel];
    if (!selection.has_value()) {
      WallTimer t;
      std::vector<const Expr*> conjuncts;
      for (const ExprPtr& f : ref.filters) conjuncts.push_back(f.get());
      LH_ASSIGN_OR_RETURN(RowFilter filter,
                          RowFilter::Compile(conjuncts, *ref.table));
      selection = filter.SelectedRows();
      filter_ms = t.ElapsedMillis();
      timing->filter_ms += filter_ms;
    }
    spec.selection = &*selection;
  }
  const size_t selected =
      filtered ? spec.selection->size() : ref.table->num_rows();

  double compute_ms = 0, build_ms = 0;
  auto build_trie = [&]() -> Result<TrieCache::Built> {
    WallTimer compute_timer;
    for (size_t k = 0; k < computed_args.size(); ++k) {
      LH_ASSIGN_OR_RETURN(
          computed[k],
          ComputeRowExpr(*computed_args[k], *ref.table, spec.selection));
    }
    compute_ms = compute_timer.ElapsedMillis();
    WallTimer build_timer;
    std::string final_signature = signature;
    Result<Trie> built = Trie::Build(spec);
    std::vector<uint32_t> rowid;
    if (!built.ok() &&
        built.status().code() == StatusCode::kExecutionError) {
      // Some referenced annotation is not functionally determined by the
      // queried key attributes (e.g. a multi-relation aggregate argument
      // over a relation whose key is projected out of the query). Re-key
      // the trie with a surrogate row-id level so every base row keeps its
      // identity; the extra level is aggregated over at execution like any
      // other unjoined level.
      rowid.resize(ref.table->num_rows());
      for (uint32_t r = 0; r < rowid.size(); ++r) rowid[r] = r;
      TrieBuildSpec retry = spec;
      retry.key_codes.resize(num_query_levels);  // drop ablation extras
      retry.domain_sizes.resize(num_query_levels);
      retry.key_codes.push_back(&rowid);
      retry.domain_sizes.push_back(static_cast<uint32_t>(rowid.size()));
      final_signature += "|rowid";
      built = Trie::Build(retry);
    }
    build_ms = build_timer.ElapsedMillis();
    if (!built.ok()) return built.status();
    return TrieCache::Built{
        std::move(final_signature),
        std::make_shared<Trie>(std::move(built.value()))};
  };

  WallTimer t;
  TrieCache::Outcome how = TrieCache::Outcome::kBuilt;
  if (!filtered && cache != nullptr) {
    // Shared-cache path: probes both signature variants, and on a miss the
    // single-flight protocol elects one builder across concurrent queries
    // (others wait and reuse its trie).
    LH_ASSIGN_OR_RETURN(
        out.trie, cache->GetOrBuild({signature, signature + "|rowid"},
                                    build_trie, &how));
  } else {
    LH_ASSIGN_OR_RETURN(TrieCache::Built built, build_trie());
    out.trie = std::move(built.trie);
  }
  if (how != TrieCache::Outcome::kHit) {
    // Leader build time, or a follower's wait on the leader; cache hits
    // stay out of the measured time (§VI-A index-creation exclusion).
    const double ms = t.ElapsedMillis();
    if (filtered) {
      timing->filter_ms += ms;
    } else {
      timing->index_build_ms += ms;
    }
  }
  // Unique iff the *queried* key prefix has no duplicates. Comparing
  // num_tuples() (the deepest level) was wrong for rowid-retry and
  // ablation-extras tries: the surrogate/extra levels make every base row a
  // distinct leaf, so the old test was trivially true even when the queried
  // prefix duplicates.
  out.unique_keys =
      out.trie->level(num_query_levels - 1).num_elements() == selected;
  const char* how_detail = how == TrieCache::Outcome::kHit ? " [cached]"
                           : how == TrieCache::Outcome::kWaited
                               ? " [waited]"
                               : " [built]";
  span.SetDetail(ref.table->schema().name() +
                 (filtered ? " [filtered]" : how_detail));
  span.AddMetric("filter_ms", filter_ms);
  span.AddMetric("compute_ms", compute_ms);
  span.AddMetric("build_ms", build_ms);
  span.AddMetric("selected", static_cast<double>(selected));
  span.AddMetric("sorted", out.trie->presorted() ? 1 : 0);
  span.AddMetric("tuples", static_cast<double>(out.trie->num_tuples()));
  return out;
}

// ---------------------------------------------------------------------------
// WCOJ node execution (Algorithm 1 over tries).
// ---------------------------------------------------------------------------

struct Participant {
  int slot;       // relation slot (non-child) or child index (child)
  int level;      // trie level bound at this attribute position
  bool is_child;  // child-node result set
  // TrieLevel::full_size() of a full level, else 0.
  uint32_t full_size = 0;
  const TrieLevel* trie_level = nullptr;  // the bound level (non-child)
};

class NodeExec {
 public:
  NodeExec(const PhysicalPlan& plan, const NodePlan& node,
           std::vector<const BuiltRelation*> rels,
           std::vector<SetView> child_sets,
           std::vector<const BuiltRelation*> lookups,
           std::vector<int> lookup_rel_ids, std::vector<int> lookup_positions,
           const std::vector<DimInfo>* dims,
           const QueryGuard* guard = nullptr)
      : plan_(plan),
        node_(node),
        rels_(std::move(rels)),
        child_sets_(std::move(child_sets)),
        lookups_(std::move(lookups)),
        lookup_rel_ids_(std::move(lookup_rel_ids)),
        lookup_positions_(std::move(lookup_positions)),
        dims_(dims),
        guard_(guard),
        guard_active_(guard != nullptr && (guard->CancelEnabled() ||
                                           guard->max_result_rows > 0)) {
    const int k = static_cast<int>(node_.attr_order.size());
    participants_.resize(k);
    int child_idx = 0;
    for (size_t s = 0; s < node_.relations.size(); ++s) {
      const RelationPlan& rp = node_.relations[s];
      if (rp.rel >= 0) {
        for (size_t l = 0; l < rp.levels_vertex.size(); ++l) {
          const TrieLevel& level = rels_[s]->trie->level(static_cast<int>(l));
          participants_[PosOf(rp.levels_vertex[l])].push_back(
              {static_cast<int>(s), static_cast<int>(l), false,
               level.full_size(), &level});
        }
      } else {
        participants_[PosOf(rp.levels_vertex[0])].push_back(
            {child_idx, 0, true});
        ++child_idx;
      }
    }
    // Relations whose referenced annotations live below the queried trie
    // levels (surrogate row level or ablation extras): the leaf must
    // enumerate their base rows — the join's bag semantics (subrow mode).
    iterated_.assign(node_.relations.size(), false);
    for (size_t s = 0; s < node_.relations.size(); ++s) {
      if (node_.relations[s].rel < 0) continue;
      const BuiltRelation& br = *rels_[s];
      if (br.num_query_levels == br.trie->num_levels()) continue;
      for (size_t a = 0; a < br.trie->num_annotations(); ++a) {
        if (static_cast<int>(a) == br.count_annot) continue;
        if (br.annot_merge[a] != AnnotationMerge::kFirst) continue;
        if (br.trie->annotation(a).level >= br.num_query_levels) {
          iterated_[s] = true;
          subrow_mode_ = true;
          break;
        }
      }
    }
    // Multiplicity-free fast path: every participating relation's queried
    // key prefix is duplicate-free. unique_keys now measures exactly that
    // (distinct queried prefixes == base rows), so unjoined deeper levels —
    // rowid retries, ablation extras — don't disqualify a relation: a
    // unique prefix means each leaf subtree holds exactly one base row and
    // every per-leaf count is 1.
    all_unique_ = true;
    for (size_t s = 0; s < node_.relations.size(); ++s) {
      if (node_.relations[s].rel < 0) continue;
      if (!rels_[s]->unique_keys) all_unique_ = false;
    }
    // A relation level whose sets are all the whole domain (icost 0 in the
    // cost model) is never intersected: it stays out of ComputeSet's gather
    // and its rank is base_rank(set) + v (Descend). When every participant
    // at a depth is full, the first one is iterated.
    probe_.resize(k);
    full_.resize(k);
    direct_.assign(k, false);
    for (int d = 0; d < k; ++d) {
      for (const Participant& p : participants_[d]) {
        (p.full_size > 0 ? full_[d] : probe_[d]).push_back(p);
      }
      if (probe_[d].empty() && !full_[d].empty()) {
        probe_[d].push_back(full_[d].front());
        full_[d].erase(full_[d].begin());
      }
      // A depth probed through exactly one (non-child) relation iterates
      // that relation's own set: the iteration rank is the trie rank, so
      // the per-value Rank() lookup is unnecessary.
      direct_[d] = probe_[d].size() == 1 && !probe_[d][0].is_child;
    }
    const auto& last = participants_[k - 1];
    fused_leaf_ = last.size() == 2 && !last[0].is_child && !last[1].is_child;
    if (fused_leaf_) {
      leaf_first_ = probe_[k - 1][0];
      leaf_second_ = full_[k - 1].empty() ? probe_[k - 1][1] : full_[k - 1][0];
    }
  }

  void set_last_domain_size(uint32_t n) { last_domain_size_ = n; }

  /// Existential run (Yannakakis child nodes): the distinct first-attribute
  /// values that extend to at least one full match, ascending. The root
  /// set is chunked like PrepareChunks' and the chunks run on the global
  /// pool, each on a freelist Worker; their outputs concatenate in chunk
  /// order. Root sets of at most kMinExistentialGrain values run inline.
  std::vector<uint32_t> RunExistential() {
    seed_ = std::make_unique<Worker>();
    InitWorker(seed_.get(), key_width_);
    const SetView* root = ComputeSet(seed_.get(), 0);
    if (root->empty()) {
      AbsorbWorkers();
      return {};
    }
    root_values_ = root->ToVector();
    root_base_ = seed_->single_base[0];
    const int64_t n = static_cast<int64_t>(root_values_.size());
    const int64_t grain = AdaptiveGrain(n, kMinExistentialGrain);
    const int64_t num_chunks = (n + grain - 1) / grain;
    const bool one_level = node_.attr_order.size() == 1;
    std::vector<std::vector<uint32_t>> parts(num_chunks);
    ThreadPool& pool = ThreadPool::Global();
    pool.ParallelFor(0, num_chunks, 1, [&](int, int64_t c) {
      std::unique_ptr<Worker> holder = AcquireWorker();
      Worker& w = *holder;
      w.single_base[0] = root_base_;
      const int64_t lo = c * grain;
      const int64_t hi = std::min(n, lo + grain);
      // A chunk-local vector: neighbouring chunks' headers share cache
      // lines.
      std::vector<uint32_t> out;
      for (int64_t i = lo; i < hi; ++i) {
        if (guard_active_ &&
            PollAbort(static_cast<uint64_t>(i - lo), /*rows_sofar=*/0)) {
          break;
        }
        // root_values_ is the root set in order, so index i is the rank.
        const uint32_t v = root_values_[i];
        if (!Descend(&w, 0, v, static_cast<uint32_t>(i))) continue;
        if (one_level || Satisfiable(&w, 1)) out.push_back(v);
      }
      w.leaf_count += out.size();
      parts[c] = std::move(out);
      ReleaseWorker(std::move(holder));
    });
    AbsorbWorkers();
    return ConcatInOrder(&parts, pool);
  }

  /// Root values below which an existential run stays on the calling
  /// thread: a Q8 root costs ~50 ns, so a chunk of 1024 outweighs its
  /// dispatch.
  static constexpr int64_t kMinExistentialGrain = 1024;

  /// Root values of the last RunExistential or PrepareChunks.
  size_t num_roots() const { return root_values_.size(); }

  // ---- Phase-split aggregate run (the full run = PrepareChunks, then
  // RunChunk for every chunk in any order / from any thread, then
  // AbsorbWorkers and Materialize). ExecuteJoin drives the chunks through
  // the global pool. Grain and skew threshold are functions of cardinalities
  // only — chunk and sub-task boundaries are merge boundaries for
  // floating-point partials, so they must not move with the thread count
  // (results stay bit-identical under any LH_THREADS). Scheduling only
  // changes which worker executes a given chunk or task.

  /// Compiles the leaf programs, then computes the root set and the chunk
  /// layout on the calling thread. After this, num_chunks() chunks
  /// (possibly zero) are runnable.
  [[nodiscard]] Status PrepareChunks() {
    LH_RETURN_NOT_OK(CompileNodePrograms());
    key_width_ = dims_->size();
    append_mode_ = !dims_->empty();
    max_dim_pos_ = -1;
    int min_dim_pos = std::numeric_limits<int>::max();
    const int k = static_cast<int>(node_.attr_order.size());
    for (size_t d = 0; d < dims_->size(); ++d) {
      const DimInfo& info = (*dims_)[d];
      if (info.kind != DimKind::kKeyVertex) append_mode_ = false;
      max_dim_pos_ = std::max(max_dim_pos_, info.vertex_pos);
      min_dim_pos = std::min(min_dim_pos, info.vertex_pos);
      if (info.vertex_pos == 1) split_dim_ = true;
    }
    if (append_mode_) {
      // Root is a group dimension: the binder marks GROUP BY key vertices
      // as output and the cost model orders materialized attributes first,
      // so every group lives under one root value and none straddles a
      // chunk boundary; each chunk closes its own groups.
      LH_DCHECK(min_dim_pos == 0);
      layout_ = std::make_unique<RowLayout>(plan_, *dims_);
      LH_RETURN_NOT_OK(layout_->programs_status);
    }
    seed_ = std::make_unique<Worker>();
    InitWorker(seed_.get(), key_width_);
    const SetView* root = ComputeSet(seed_.get(), 0);
    if (root->empty()) return Status::OK();  // num_chunks_ stays 0
    root_values_ = root->ToVector();
    root_base_ = seed_->single_base[0];
    const int64_t n = static_cast<int64_t>(root_values_.size());
    grain_ = AdaptiveGrain(n);
    num_chunks_ = (n + grain_ - 1) / grain_;
    skew_threshold_ = SplittableShape(k) ? SkewThreshold() : 0;
    // A skew split whose level 1 is no group dimension splits one group:
    // with materialized attributes first, no deeper attribute is a group
    // dimension either (the relaxed (M, P, M) tail is never split).
    LH_DCHECK(!append_mode_ || skew_threshold_ == 0 || split_dim_ ||
              max_dim_pos_ == 0);
    if (append_mode_) {
      chunk_rows_.resize(num_chunks_);
    } else {
      chunk_out_.resize(num_chunks_);
    }
    return Status::OK();
  }

  int64_t num_chunks() const { return num_chunks_; }

  /// Executes chunk `chunk` of the root iteration. Thread-safe for distinct
  /// chunks: every result byte goes into the chunk's own accumulator (hash
  /// mode) or result rows (append mode); the scratch Worker comes from a
  /// freelist (reuse is determinism-neutral). Heavy root values fan their
  /// level-1 iteration out as pool tasks.
  void RunChunk(int64_t chunk) {
    std::unique_ptr<Worker> holder = AcquireWorker();
    Worker& w = *holder;
    const int64_t lo = chunk * grain_;
    const int64_t hi = std::min<int64_t>(
        static_cast<int64_t>(root_values_.size()), lo + grain_);
    if (append_mode_) {
      chunk_rows_[chunk] = std::make_unique<RowChunk>(layout_.get());
      w.rows = chunk_rows_[chunk].get();
      // One group per root value: at most one row each.
      if (max_dim_pos_ == 0) w.rows->Reserve(static_cast<size_t>(hi - lo));
    } else {
      chunk_out_[chunk] =
          std::make_unique<GroupAccum>(key_width_, &plan_.aggs);
      w.groups = chunk_out_[chunk].get();
    }
    const int k = static_cast<int>(node_.attr_order.size());
    // root_values_ is the root set in order, so index i is the root rank.
    w.single_base[0] = root_base_;
    for (int64_t i = lo; i < hi; ++i) {
      if (guard_active_ &&
          PollAbort(static_cast<uint64_t>(i - lo), RowsSoFar(w))) {
        break;
      }
      const uint32_t v = root_values_[i];
      if (!Descend(&w, 0, v, static_cast<uint32_t>(i))) continue;
      w.vals[0] = v;
      if (k == 1) {
        Leaf(&w);
        continue;
      }
      if (skew_threshold_ > 0 && TrySplitHeavyRoot(&w, key_width_, k)) {
        continue;
      }
      Recurse(&w, 1);
    }
    if (append_mode_) w.rows->Close();
    w.rows = nullptr;
    w.groups = nullptr;
    ReleaseWorker(std::move(holder));
  }

  /// Absorbs the chunk runs' worker tallies (leaves(), nodes_visited()).
  /// Call once, after every RunChunk returned.
  void AbsorbWorkers() {
    if (seed_ != nullptr) AbsorbWorker(*seed_);
    seed_.reset();
    MutexLock lock(&scratch_mu_);
    for (const auto& w : free_workers_) AbsorbWorker(*w);
    free_workers_.clear();
  }

  bool append_mode() const { return append_mode_; }

  /// The query's output columns. Append mode concatenates the chunks'
  /// result rows in chunk order (ConcatRows); hash-mode chunk tables
  /// overlap in keys, so they are first merged into one table in chunk
  /// order (the FP merge contract) and decoded (MaterializeGroups). Call
  /// once, after every RunChunk returned.
  [[nodiscard]] Result<QueryResult> Materialize(const QueryGuard* guard,
                                                obs::TraceSpan* span) {
    if (append_mode_) {
      std::vector<const RowChunk*> chunks;
      for (const auto& c : chunk_rows_) {
        if (c != nullptr) chunks.push_back(c.get());
      }
      return ConcatRows(*layout_, chunks, guard, span);
    }
    GroupAccum merged(key_width_, &plan_.aggs);
    for (const auto& partial : chunk_out_) {
      if (partial != nullptr) merged.MergeFrom(*partial);
    }
    chunk_out_.clear();
    return MaterializeGroups(plan_, merged, *dims_, guard);
  }

  /// Leaves reached (tuples emitted) across all runs on this node.
  uint64_t leaves() const { return total_leaves_; }
  /// Trie node descents across all runs on this node.
  uint64_t nodes_visited() const { return total_nodes_; }
  /// Intersections and Rank() probes skipped on full levels, all runs.
  uint64_t elided() const { return total_elided_; }
  /// OK, or why the last run unwound early (kCancelled / kDeadlineExceeded
  /// / kResourceExhausted). Callers must consult this before trusting a
  /// run's output.
  [[nodiscard]] Status abort_status() {
    MutexLock lock(&abort_mu_);
    return abort_status_;
  }

 private:
  struct Worker {
    std::vector<std::vector<uint32_t>> ranks;  // [slot][level]
    std::vector<ScratchSet> scratch_a, scratch_b;
    std::vector<uint32_t> vals;
    std::vector<int64_t> single_base;  // per depth: sole participant's base
    std::vector<uint32_t> subrow;  // per slot: current row-level index
    std::vector<uint32_t> sources;  // per LeafSource: the current index
    GroupAccum* groups = nullptr;   // hash or scalar mode
    RowChunk* rows = nullptr;       // append mode
    std::vector<double> agg_main, agg_aux;
    std::vector<uint64_t> group_key;
    std::vector<double> rel_count;
    std::vector<SetView> gather;  // per-call set gathering
    std::vector<double> relax_acc;
    std::vector<uint64_t> relax_occ;  // bitmap: relax_acc slot in use
    std::vector<uint32_t> relax_touched;
    std::vector<uint32_t> fused_vals, fused_ra, fused_rb;
    // Materialized level-1 values/ranks of a heavy root value while its
    // iteration is split across tasks (read-only once the tasks start).
    std::vector<uint32_t> split_vals, split_ranks;
    // Plain worker-local tallies (absorbed in bulk after the parallel run,
    // so the hot loops never touch atomics).
    uint64_t leaf_count = 0;
    uint64_t nodes_visited = 0;
    uint64_t elided = 0;  // intersections and Rank() probes skipped
  };

  void AbsorbWorker(const Worker& w) {
    total_leaves_ += w.leaf_count;
    total_nodes_ += w.nodes_visited;
    total_elided_ += w.elided;
  }

  /// Pops a scratch worker for a chunk run, or initializes a fresh one.
  std::unique_ptr<Worker> AcquireWorker() {
    {
      MutexLock lock(&scratch_mu_);
      if (!free_workers_.empty()) {
        std::unique_ptr<Worker> w = std::move(free_workers_.back());
        free_workers_.pop_back();
        return w;
      }
    }
    auto w = std::make_unique<Worker>();
    InitWorker(w.get(), key_width_);
    return w;
  }

  void ReleaseWorker(std::unique_ptr<Worker> w) {
    MutexLock lock(&scratch_mu_);
    free_workers_.push_back(std::move(w));
  }

  // ---- Cooperative abort (deadline / cancel / row bound, core/cancel.h).
  //
  // The root parallel loop and skew-split sub-tasks poll PollAbort every
  // kAbortStride root values; the first failing check records the status
  // and raises the flag, every other worker sees the flag at its next
  // poll (one relaxed load) and stops. Iterations the workers skip after
  // an abort don't matter — the run's result is discarded.

  static constexpr uint64_t kAbortStride = 32;

  void RecordAbort(Status s) {
    MutexLock lock(&abort_mu_);
    if (abort_status_.ok()) abort_status_ = std::move(s);
    // Release: pairs with the coordinator's acquire read so the recorded
    // status is visible once the flag is seen set there.
    aborted_.store(true, std::memory_order_release);
  }

  // Relaxed: worker-side poll. A worker that reads a stale false merely
  // runs extra iterations whose output is discarded after the abort.
  bool Aborted() const { return aborted_.load(std::memory_order_relaxed); }

  /// Full check: the abort flag, then deadline/cancel, then the row bound
  /// against this worker's accumulated group count (a per-worker OOM
  /// backstop — the materialized total is checked again in ExecutePlan).
  /// True when the caller must stop.
  bool CheckAbort(size_t rows_sofar) {
    if (Aborted()) return true;
    Status s = guard_->Check();
    if (s.ok()) s = guard_->CheckRows(rows_sofar);
    if (s.ok()) return false;
    RecordAbort(std::move(s));
    return true;
  }

  /// The rows a worker has produced so far: result rows in append mode,
  /// groups in hash mode (PollAbort's per-worker backstop).
  size_t RowsSoFar(const Worker& w) const {
    return append_mode_ ? w.rows->num_rows() : w.groups->num_groups();
  }

  /// Strided wrapper for hot loops: cheap flag test always, full check
  /// every kAbortStride-th call.
  bool PollAbort(uint64_t iter, size_t rows_sofar) {
    if (Aborted()) return true;
    return (iter % kAbortStride) == 0 && CheckAbort(rows_sofar);
  }

  /// Read of a worker's rank cursor for relation slot `slot` at trie level
  /// `level`, bounds-checked in debug/hardened builds. A cursor outside its
  /// vector means a descent wrote past the planned level count — exactly the
  /// corruption that silently skews aggregate results in release.
  static uint32_t RankCursor(const Worker& w, size_t slot, size_t level) {
    LH_DCHECK_BOUNDS(slot, w.ranks.size());
    LH_DCHECK_BOUNDS(level, w.ranks[slot].size());
    return w.ranks[slot][level];
  }

  /// Index of relation participant `p`'s current set: the rank of its
  /// parent element (0 at the root level).
  static uint32_t SetIndex(const Worker& w, const Participant& p) {
    return p.level == 0 ? 0 : RankCursor(w, p.slot, p.level - 1);
  }

  int PosOf(int vertex) const {
    for (size_t i = 0; i < node_.attr_order.size(); ++i) {
      if (node_.attr_order[i] == vertex) return static_cast<int>(i);
    }
    LH_CHECK(false) << "vertex not in attribute order";
    return -1;
  }

  void InitWorker(Worker* w, size_t key_width) const {
    w->ranks.resize(rels_.size());
    for (size_t s = 0; s < rels_.size(); ++s) {
      if (rels_[s] != nullptr) {
        w->ranks[s].assign(rels_[s]->trie->num_levels(), 0);
      }
    }
    const size_t k = node_.attr_order.size();
    w->scratch_a.resize(k);
    w->scratch_b.resize(k);
    w->vals.assign(k, 0);
    w->single_base.assign(k, -1);
    w->subrow.assign(rels_.size(), 0);
    w->sources.assign(sources_.size(), 0);
    w->agg_main.assign(std::max<size_t>(1, plan_.aggs.size()), 0);
    w->agg_aux.assign(std::max<size_t>(1, plan_.aggs.size()), 0);
    w->group_key.assign(key_width, 0);
    w->rel_count.assign(node_.relations.size(), 1.0);
  }

  /// The values at `depth`: the intersection of the probed participants'
  /// sets. Full levels are left out (each one an intersection elided);
  /// Descend drops the values a full level lacks.
  const SetView* ComputeSet(Worker* w, int depth) const {
    const auto& parts = probe_[depth];
    LH_CHECK(!parts.empty()) << "attribute with no participating relation";
    w->elided += full_[depth].size();
    w->gather.clear();
    for (const Participant& p : parts) {
      w->gather.push_back(p.is_child
                              ? child_sets_[p.slot]
                              : p.trie_level->set(SetIndex(*w, p)));
    }
    if (w->gather.size() == 1) {
      if (direct_[depth]) {
        w->single_base[depth] =
            parts[0].trie_level->base_rank(SetIndex(*w, parts[0]));
      }
      w->scratch_a[depth].Alias(w->gather[0]);
      return &w->scratch_a[depth].view();
    }
    std::sort(w->gather.begin(), w->gather.end(),
              [](const SetView& a, const SetView& b) {
                return a.cardinality < b.cardinality;
              });
    Intersect(w->gather[0], w->gather[1], &w->scratch_a[depth]);
    bool in_a = true;
    for (size_t i = 2; i < w->gather.size(); ++i) {
      if (in_a) {
        Intersect(w->scratch_a[depth].view(), w->gather[i],
                  &w->scratch_b[depth]);
      } else {
        Intersect(w->scratch_b[depth].view(), w->gather[i],
                  &w->scratch_a[depth]);
      }
      in_a = !in_a;
    }
    return in_a ? &w->scratch_a[depth].view() : &w->scratch_b[depth].view();
  }

  /// Binds value `v` of ComputeSet(depth)'s result, `r` its rank there:
  /// sets every relation participant's rank cursor, or returns false when
  /// some participant lacks `v`. A direct depth's rank is the iteration
  /// rank, a full level's is base_rank(set) + v, and only the remaining
  /// probed participants pay a Rank() lookup.
  bool Descend(Worker* w, int depth, uint32_t v, uint32_t r) const {
    if (direct_[depth]) {
      const Participant& p = probe_[depth][0];
      ++w->nodes_visited;
      w->ranks[p.slot][p.level] =
          static_cast<uint32_t>(w->single_base[depth]) + r;
    } else {
      for (const Participant& p : probe_[depth]) {
        if (p.is_child) continue;
        ++w->nodes_visited;
        const uint32_t set_idx = SetIndex(*w, p);
        const int64_t rank = p.trie_level->set(set_idx).Rank(v);
        if (rank < 0) return false;
        w->ranks[p.slot][p.level] = p.trie_level->base_rank(set_idx) +
                                    static_cast<uint32_t>(rank);
      }
    }
    for (const Participant& p : full_[depth]) {
      // A value past the full level's domain is absent from it (the
      // clip); it must never index past the level or its annotations.
      if (v >= p.full_size) return false;
      ++w->nodes_visited;
      ++w->elided;
      const uint32_t rank = p.trie_level->base_rank(SetIndex(*w, p)) + v;
      LH_DCHECK_BOUNDS(rank, p.trie_level->num_elements());
      w->ranks[p.slot][p.level] = rank;
    }
    return true;
  }

  bool Satisfiable(Worker* w, int depth) const {
    const SetView* s = ComputeSet(w, depth);
    if (s->empty()) return false;
    if (depth + 1 == static_cast<int>(node_.attr_order.size())) return true;
    bool found = false;
    s->ForEach([&](uint32_t v, uint32_t r) {
      if (found) return;
      if (Descend(w, depth, v, r) && Satisfiable(w, depth + 1)) found = true;
    });
    return found;
  }

  // ---- Skew-resistant execution (the paper's parfor, made nest-capable).
  //
  // The root parallel loop alone serializes on a heavy-hitter root value (a
  // hub vertex, a dominant orderkey range): one chunk then carries most of
  // the query. When a root value's level-1 set is large enough, its level-1
  // iteration is split into fixed sub-ranges that run as ThreadPool tasks,
  // each into its own GroupAccum or RowChunk, merged back in sub-range
  // order.

  /// Minimum level-1 cardinality ever worth splitting (sub-task setup costs
  /// a worker init plus an accumulator).
  static constexpr int64_t kMinSkewSplitWork = 2048;
  /// A root value owning more than 1/64 of the node's estimated level-1
  /// work is "heavy". Fixed fraction, not total/num_threads: the decision
  /// must be thread-count independent (see RunAggregate).
  static constexpr int64_t kSkewSplitFraction = 64;

  /// Node shapes whose depth-1 iteration can be partitioned. RelaxedTail
  /// (k==3 union-relaxed) and the fused ranked-intersection leaf (k==2)
  /// consume the whole depth-1 set in one specialized pass.
  bool SplittableShape(int k) const {
    if (k < 2) return false;
    if (node_.union_relaxed && k == 3) return false;
    if (k == 2 && fused_leaf_) return false;
    return true;
  }

  /// Heavy-hitter threshold from cardinalities only: the tightest level-1
  /// participant bounds the node's total level-1 work.
  int64_t SkewThreshold() const {
    int64_t total = std::numeric_limits<int64_t>::max();
    for (const Participant& p : participants_[1]) {
      const int64_t t =
          p.is_child
              ? static_cast<int64_t>(child_sets_[p.slot].cardinality)
              : static_cast<int64_t>(p.trie_level->num_elements());
      total = std::min(total, t);
    }
    return std::max<int64_t>(kMinSkewSplitWork, total / kSkewSplitFraction);
  }

  /// Detects a heavy root value and, if heavy, fans its level-1 iteration
  /// out as tasks. Returns false (nothing done) when the value is light.
  /// Probing is staged so light values — the overwhelming majority — pay
  /// one cardinality comparison and at most one count-only intersection.
  bool TrySplitHeavyRoot(Worker* w, size_t key_width, int k) {
    const auto& parts = probe_[1];
    // Stage 1: smallest participant-set cardinality bounds |level-1 set|.
    w->gather.clear();
    for (const Participant& p : parts) {
      w->gather.push_back(p.is_child ? child_sets_[p.slot]
                                     : p.trie_level->set(SetIndex(*w, p)));
    }
    uint32_t min_card = std::numeric_limits<uint32_t>::max();
    for (const SetView& g : w->gather) {
      min_card = std::min(min_card, g.cardinality);
    }
    if (static_cast<int64_t>(min_card) < skew_threshold_) return false;
    // Stage 2: count-only probe of the two smallest sets (no allocation).
    if (w->gather.size() >= 2) {
      std::partial_sort(w->gather.begin(), w->gather.begin() + 2,
                        w->gather.end(),
                        [](const SetView& a, const SetView& b) {
                          return a.cardinality < b.cardinality;
                        });
      const uint32_t probe = IntersectCount(w->gather[0], w->gather[1]);
      if (static_cast<int64_t>(probe) < skew_threshold_) return false;
    }
    // Confirmed heavy: materialize the level-1 set and partition it.
    const SetView* s = ComputeSet(w, 1);
    if (static_cast<int64_t>(s->cardinality) < skew_threshold_) return false;
    if (obs::ExecStats* stats = obs::ActiveStats()) stats->CountSkewSplit();
    w->split_vals.clear();
    w->split_ranks.clear();
    s->ForEach([&](uint32_t v, uint32_t r) {
      w->split_vals.push_back(v);
      w->split_ranks.push_back(r);
    });
    const int64_t m = static_cast<int64_t>(w->split_vals.size());
    const int64_t sub_grain = AdaptiveGrain(m, kMinSkewSplitWork / 4);
    const int64_t num_sub = (m + sub_grain - 1) / sub_grain;

    std::vector<std::unique_ptr<Worker>> subs(num_sub);
    std::vector<std::unique_ptr<GroupAccum>> sub_out(num_sub);
    std::vector<std::unique_ptr<RowChunk>> sub_rows(num_sub);
    ThreadPool& pool = ThreadPool::Global();
    ThreadPool::TaskGroup group(&pool);
    for (int64_t t = 0; t < num_sub; ++t) {
      subs[t] = std::make_unique<Worker>();
      Worker* sub = subs[t].get();
      InitWorker(sub, key_width);
      sub->ranks = w->ranks;  // level-0 cursors from the parent's descent
      sub->single_base = w->single_base;
      sub->vals[0] = w->vals[0];
      if (append_mode_) {
        sub_rows[t] = std::make_unique<RowChunk>(layout_.get());
        sub->rows = sub_rows[t].get();
      } else {
        sub_out[t] = std::make_unique<GroupAccum>(key_width, &plan_.aggs);
        sub->groups = sub_out[t].get();
      }
      const int64_t lo = t * sub_grain;
      const int64_t hi = std::min(m, lo + sub_grain);
      pool.Submit(&group, [this, w, sub, lo, hi, k] {
        for (int64_t i = lo; i < hi; ++i) {
          if (guard_active_ &&
              PollAbort(static_cast<uint64_t>(i - lo), RowsSoFar(*sub))) {
            break;
          }
          const uint32_t v = w->split_vals[i];
          if (!Descend(sub, 1, v, w->split_ranks[i])) continue;
          sub->vals[1] = v;
          if (k == 2) {
            Leaf(sub);
          } else {
            Recurse(sub, 2);
          }
        }
      });
    }
    // Helps drain the queue while waiting, so progress is guaranteed even
    // when every pool thread is busy inside this same parallel region.
    group.Wait();
    if (append_mode_) {
      w->rows->Close();  // the previous root value's group
      for (const auto& so : sub_rows) {
        if (split_dim_) {
          // Level 1 is a group dimension: the sub-ranges' groups are
          // disjoint, each closes its own, and they concatenate in order.
          so->Close();
          w->rows->Append(*so);
        } else {
          // The split root value is one group: the sub-ranges' partial
          // accumulators combine in sub-range order before it closes.
          w->rows->CombineOpen(*so);
        }
      }
    } else {
      for (const auto& so : sub_out) w->groups->MergeFrom(*so);
    }
    for (const auto& sub : subs) {
      w->leaf_count += sub->leaf_count;
      w->nodes_visited += sub->nodes_visited;
      w->elided += sub->elided;
    }
    return true;
  }

  void Recurse(Worker* w, int depth) {
    const int k = static_cast<int>(node_.attr_order.size());
    if (node_.union_relaxed && depth == k - 2) {
      RelaxedTail(w, depth);
      return;
    }
    const bool leaf = depth + 1 == k;
    if (leaf && fused_leaf_) {
      FusedLeafLoop(w, depth);
      return;
    }
    const SetView* s = ComputeSet(w, depth);
    if (s->empty()) return;
    s->ForEach([&](uint32_t v, uint32_t r) {
      if (!Descend(w, depth, v, r)) return;
      w->vals[depth] = v;
      if (leaf) {
        Leaf(w);
      } else {
        Recurse(w, depth + 1);
      }
    });
  }

  /// Deepest-attribute fast path for exactly two participating relations:
  /// one ranked intersection replaces the per-value Rank() descents — the
  /// loop shape generated code produces (Figure 4). When the second level
  /// is full there is nothing to intersect: the loop runs straight over the
  /// first set, and the full side's in-set rank is the value itself. With a
  /// single real-product SUM that is the CSR SpMV loop, sum += a[r] * x[v].
  void FusedLeafLoop(Worker* w, int depth) {
    const Participant& pf = leaf_first_;
    const Participant& ps = leaf_second_;
    const TrieLevel& lf = *pf.trie_level;
    const TrieLevel& ls = *ps.trie_level;
    const uint32_t sif = SetIndex(*w, pf);
    const uint32_t sis = SetIndex(*w, ps);
    const SetView sf = lf.set(sif);
    if (sf.empty()) return;
    const uint32_t base_f = lf.base_rank(sif);
    const uint32_t base_s = ls.base_rank(sis);
    // The clip: values at or past the full size are absent from the full
    // level, so a first set reaching that far is intersected instead.
    if (ps.full_size > 0 && sf.Max() < ps.full_size) {
      LH_DCHECK_BOUNDS(base_s + sf.Max(), ls.num_elements());
      ++w->elided;
      FusedLeafBody(w, depth, sf.cardinality, base_f, base_s,
                    [&](auto&& fn) {
                      sf.ForEach([&](uint32_t v, uint32_t r) { fn(v, r, v); });
                    });
      return;
    }
    const SetView ss = ls.set(sis);
    if (ss.empty()) return;
    const uint32_t cap = std::min(sf.cardinality, ss.cardinality);
    if (w->fused_vals.size() < cap) {
      w->fused_vals.resize(cap);
      w->fused_ra.resize(cap);
      w->fused_rb.resize(cap);
    }
    const uint32_t n = IntersectRanked(sf, ss, w->fused_vals.data(),
                                       w->fused_ra.data(),
                                       w->fused_rb.data());
    if (n == 0) return;
    FusedLeafBody(w, depth, n, base_f, base_s, [&](auto&& fn) {
      for (uint32_t i = 0; i < n; ++i) {
        fn(w->fused_vals[i], w->fused_ra[i], w->fused_rb[i]);
      }
    });
  }

  /// FusedLeafLoop's per-match work. `each(fn)` calls fn(value, in-set
  /// rank in leaf_first_'s set, in-set rank in leaf_second_'s set) for the
  /// `n` matches in ascending value order.
  template <typename Each>
  void FusedLeafBody(Worker* w, int depth, uint32_t n, uint32_t base_f,
                     uint32_t base_s, Each&& each) {
    const Participant& pf = leaf_first_;
    const Participant& ps = leaf_second_;
    w->nodes_visited += 2ull * n;
    auto set_ranks = [&](uint32_t v, uint32_t rf, uint32_t rs) {
      w->ranks[pf.slot][pf.level] = base_f + rf;
      w->ranks[ps.slot][ps.level] = base_s + rs;
      w->vals[depth] = v;
    };
    if (!fast_single_sum_ || !append_mode_) {
      each([&](uint32_t v, uint32_t rf, uint32_t rs) {
        set_ranks(v, rf, rs);
        Leaf(w);
      });
      return;
    }
    // Single SUM over unique-key relations with compiled argument: the
    // tightest interpreted loops we can produce.
    w->leaf_count += n;
    auto eval = [&] {
      LoadSources(w);
      return agg_progs_[0].EvalAt(w->sources.data());
    };
    if (max_dim_pos_ >= depth) {
      each([&](uint32_t v, uint32_t rf, uint32_t rs) {
        set_ranks(v, rf, rs);
        EncodeGroupKey(w);
        double* acc = w->rows->Group(w->group_key.data());
        acc[0] += eval();
      });
      return;
    }
    // Every group dimension is bound above this depth: all matches fold
    // into one group.
    EncodeGroupKey(w);
    double sum = 0;
    if (leaf_first_vals_ != nullptr) {
      const double* vf = leaf_first_vals_ + base_f;
      const double* vs = leaf_second_vals_ + base_s;
      each([&](uint32_t, uint32_t rf, uint32_t rs) { sum += vf[rf] * vs[rs]; });
    } else {
      each([&](uint32_t v, uint32_t rf, uint32_t rs) {
        set_ranks(v, rf, rs);
        sum += eval();
      });
    }
    if (depth == 1 && layout_->direct) {
      // The group is the root value's alone: it is finished, one row.
      const double acc[2] = {sum, 0.0};
      w->rows->WriteRow(w->group_key.data(), acc);
    } else {
      w->rows->Group(w->group_key.data())[0] += sum;
    }
  }

  /// Specialized §V-A2 inner loop for the single-SUM real-product case
  /// (sparse matrix multiplication): one side of the product is fixed
  /// across the last attribute's set, so the accumulation is exactly
  /// Gustavson's scatter: acc[j] += a_ik * b_kj. When the middle
  /// attribute's other level is full (every row of the right matrix
  /// non-empty) the left row is iterated directly, with no Rank() probe.
  /// Returns false when the shape does not apply (the generic tail runs
  /// instead).
  bool RelaxedTailFast(Worker* w, int depth) {
    if (relax_var_vals_ == nullptr) return false;
    const Participant& pm = participants_[depth + 1][0];
    const size_t stride = 2;
    if (w->relax_acc.empty()) {
      w->relax_acc.assign(static_cast<size_t>(last_domain_size_) * stride, 0);
      w->relax_occ.assign(bits::WordsForBits(last_domain_size_), 0);
    }
    const SetView* s = ComputeSet(w, depth);
    if (s->empty()) return true;
    const TrieLevel& lm = *pm.trie_level;
    double* const accs = w->relax_acc.data();
    uint64_t* const occ = w->relax_occ.data();
    std::vector<uint32_t>& touched = w->relax_touched;
    s->ForEach([&](uint32_t v, uint32_t r) {
      if (!Descend(w, depth, v, r)) return;
      const double fixed = relax_fixed_vals_[RankCursor(
          *w, relax_fixed_.slot, relax_fixed_.level)];
      const uint32_t set_idx = SetIndex(*w, pm);
      const SetView sm = lm.set(set_idx);
      const double* values = relax_var_vals_ + lm.base_rank(set_idx);
      sm.ForEach([&](uint32_t m, uint32_t rm) {
        double* acc = accs + static_cast<size_t>(m) * stride;
        if (!bits::TestBit(occ, m)) {
          bits::SetBit(occ, m);
          touched.push_back(m);
          acc[0] = 0;
        }
        acc[0] += fixed * values[rm];
      });
    });
    FlushRelaxed(w, stride);
    return true;
  }

  /// Puts relax_touched in ascending order and clears its occupancy bits:
  /// reads the touched values back from the bitmap in word order, over the
  /// words between the smallest and the largest touched value.
  static void OrderTouched(Worker* w) {
    std::vector<uint32_t>& touched = w->relax_touched;
    if (touched.empty()) return;
    uint64_t* occ = w->relax_occ.data();
    const auto [lo, hi] = std::minmax_element(touched.begin(), touched.end());
    const uint32_t last = *hi / bits::kWordBits;
    size_t n = 0;
    for (uint32_t i = *lo / bits::kWordBits; i <= last; ++i) {
      for (uint64_t word = occ[i]; word != 0; word &= word - 1) {
        touched[n++] = i * bits::kWordBits +
                       static_cast<uint32_t>(bits::CountTrailingZeros(word));
      }
      occ[i] = 0;
    }
  }

  /// Emits one leaf per touched last-attribute value, ascending. Under a
  /// direct append-mode layout the whole run is written as result rows in
  /// one pass: the leading key words are constant (the root is a group
  /// dimension, so no earlier group shares them) and the last vertex's
  /// value varies.
  void FlushRelaxed(Worker* w, size_t stride) {
    const int k = static_cast<int>(node_.attr_order.size());
    w->leaf_count += w->relax_touched.size();
    OrderTouched(w);
    if (append_mode_ && layout_->direct) {
      EncodeGroupKey(w);
      w->rows->Close();
      w->rows->WriteRun(w->group_key.data(), k - 1, w->relax_touched.data(),
                        w->relax_touched.size(), w->relax_acc.data(), stride);
      w->relax_touched.clear();
      return;
    }
    for (uint32_t m : w->relax_touched) {
      w->vals[k - 1] = m;
      const double* acc =
          w->relax_acc.data() + static_cast<size_t>(m) * stride;
      for (size_t i = 0; i < plan_.aggs.size(); ++i) {
        w->agg_main[i] = acc[2 * i];
        w->agg_aux[i] = acc[2 * i + 1];
      }
      Accumulate(w);
    }
    w->relax_touched.clear();
  }

  /// §V-A2 execution: the second-to-last attribute is projected away, the
  /// last is materialized. Accumulate per last-attribute code in a dense
  /// scratch (Figure 4's `sj` buffer), then flush in sorted order.
  void RelaxedTail(Worker* w, int depth) {
    if (RelaxedTailFast(w, depth)) return;
    const size_t naggs = std::max<size_t>(1, plan_.aggs.size());
    const size_t stride = 2 * naggs;
    LH_CHECK_GT(last_domain_size_, 0u);
    if (w->relax_acc.empty()) {
      w->relax_acc.assign(static_cast<size_t>(last_domain_size_) * stride, 0);
      w->relax_occ.assign(bits::WordsForBits(last_domain_size_), 0);
    }
    const SetView* s = ComputeSet(w, depth);
    if (s->empty()) return;
    s->ForEach([&](uint32_t v, uint32_t r) {
      if (!Descend(w, depth, v, r)) return;
      w->vals[depth] = v;
      const SetView* sm = ComputeSet(w, depth + 1);
      sm->ForEach([&](uint32_t m, uint32_t rm) {
        if (!Descend(w, depth + 1, m, rm)) return;
        w->vals[depth + 1] = m;
        LoadSources(w);
        ComputeDeltas(w);
        double* acc = w->relax_acc.data() + static_cast<size_t>(m) * stride;
        if (!bits::TestBit(w->relax_occ.data(), m)) {
          bits::SetBit(w->relax_occ.data(), m);
          w->relax_touched.push_back(m);
          InitAccs(plan_.aggs, acc);
        }
        ApplyDeltas(plan_.aggs, acc, w->agg_main.data(), w->agg_aux.data());
      });
    });
    FlushRelaxed(w, stride);
  }

  // ---- Leaf programs. Every multi-relation aggregate argument and every
  // non-key GROUP BY dimension is an ExprProgram compiled once per node;
  // its loads read annotation buffers at the leaf's index sources, which
  // LoadSources fills before the programs run.

  /// Where a leaf program's load finds its index.
  struct LeafSource {
    enum class Kind : uint8_t {
      kRank,    // the rank cursor ranks[slot][level]
      kLookup,  // lookup relation `slot`'s root rank of its vertex value
      kSubrow,  // iterated relation `slot`'s current base row, translated
                // to trie level `level`
    };
    Kind kind;
    int slot;
    int level;
    bool operator==(const LeafSource&) const = default;
  };

  /// Compiles the node's leaf programs once, on the calling thread. Bound
  /// expressions always compile; a rejection is an engine bug.
  Status CompileNodePrograms() {
    const ColumnResolver resolve = [this](int rel, int col,
                                          ColumnSource* out) {
      return ResolveLeafColumn(rel, col, out);
    };
    agg_progs_.resize(plan_.aggs.size());
    for (size_t i = 0; i < plan_.aggs.size(); ++i) {
      const AggExec& agg = plan_.aggs[i];
      if (agg.arg == nullptr || agg.single_rel >= 0) continue;
      LH_RETURN_NOT_OK(ExprProgram::Compile(*agg.arg, resolve, &agg_progs_[i]));
    }
    dim_progs_.resize(dims_->size());
    dim_codes_.resize(dims_->size());
    for (size_t d = 0; d < dims_->size(); ++d) {
      const Expr& e = *plan_.dims[d].expr;
      switch ((*dims_)[d].kind) {
        case DimKind::kKeyVertex:
          break;
        case DimKind::kStringCode:
          // ClassifyDim only yields kStringCode for a bare column.
          if (!resolve(e.bound_rel, e.bound_col, &dim_codes_[d])) {
            return Status::Internal("group dimension " + e.ToString() +
                                    " is not readable at the leaf");
          }
          break;
        case DimKind::kInt:
        case DimKind::kDate:
        case DimKind::kReal:
          LH_RETURN_NOT_OK(ExprProgram::Compile(e, resolve, &dim_progs_[d]));
          break;
      }
    }
    // Multiplicity-free single SUM: the fused and relaxed loops accumulate
    // it directly, and a real product of two rank-addressed buffers runs as
    // an array kernel (resolved once here, not per row).
    fast_single_sum_ = plan_.aggs.size() == 1 &&
                       plan_.aggs[0].func == AggFunc::kSum &&
                       plan_.aggs[0].arg != nullptr &&
                       plan_.aggs[0].single_rel < 0 && !subrow_mode_ &&
                       all_unique_;
    int sa, sb;
    const double *pa, *pb;
    if (!fast_single_sum_ ||
        !agg_progs_[0].AsRealProduct(&sa, &pa, &sb, &pb) ||
        sources_[sa].kind != LeafSource::Kind::kRank ||
        sources_[sb].kind != LeafSource::Kind::kRank) {
      return Status::OK();
    }
    const LeafSource a = sources_[sa];
    const LeafSource b = sources_[sb];
    auto at = [](const Participant& p, const LeafSource& src) {
      return p.slot == src.slot && p.level == src.level;
    };
    if (fused_leaf_ && at(leaf_first_, a) && at(leaf_second_, b)) {
      leaf_first_vals_ = pa;
      leaf_second_vals_ = pb;
    } else if (fused_leaf_ && at(leaf_first_, b) && at(leaf_second_, a)) {
      leaf_first_vals_ = pb;
      leaf_second_vals_ = pa;
    }
    const auto& last = participants_.back();
    if (node_.union_relaxed && last.size() == 1 && !last[0].is_child) {
      if (at(last[0], a)) {
        relax_var_vals_ = pa;
        relax_fixed_vals_ = pb;
        relax_fixed_ = {b.slot, b.level, false};
      } else if (at(last[0], b)) {
        relax_var_vals_ = pb;
        relax_fixed_vals_ = pa;
        relax_fixed_ = {a.slot, a.level, false};
      }
    }
    return Status::OK();
  }

  /// The column resolver of the leaf programs: a relation's annotation
  /// buffer at its rank cursor (or, below the queried levels, at the
  /// subrow-mode leaf's base row), or a lookup relation's at its root rank.
  bool ResolveLeafColumn(int rel, int col, ColumnSource* out) {
    const AnnotationBuffer* buf = nullptr;
    LeafSource src{};
    for (size_t s = 0; s < node_.relations.size() && buf == nullptr; ++s) {
      if (node_.relations[s].rel != rel) continue;
      const BuiltRelation& br = *rels_[s];
      const int a = br.annot_of_col[col];
      if (a < 0) return false;
      buf = &br.trie->annotation(a);
      const int slot = static_cast<int>(s);
      if (buf->level < br.num_query_levels) {
        src = {LeafSource::Kind::kRank, slot, buf->level};
      } else {
        LH_DCHECK(iterated_[s]);
        src = {LeafSource::Kind::kSubrow, slot, buf->level};
      }
    }
    for (size_t i = 0; i < lookups_.size() && buf == nullptr; ++i) {
      if (lookup_rel_ids_[i] != rel) continue;
      const int a = lookups_[i]->annot_of_col[col];
      if (a < 0) return false;
      buf = &lookups_[i]->trie->annotation(a);
      src = {LeafSource::Kind::kLookup, static_cast<int>(i), 0};
    }
    if (buf == nullptr) return false;
    *out = AnnotationColumn(*buf);
    const auto it = std::find(sources_.begin(), sources_.end(), src);
    out->source = static_cast<int>(it - sources_.begin());
    if (it == sources_.end()) sources_.push_back(src);
    return true;
  }

  /// Fills w->sources for the current leaf: one index per LeafSource.
  void LoadSources(Worker* w) const {
    for (size_t i = 0; i < sources_.size(); ++i) {
      const LeafSource& src = sources_[i];
      switch (src.kind) {
        case LeafSource::Kind::kRank:
          w->sources[i] = RankCursor(*w, src.slot, src.level);
          break;
        case LeafSource::Kind::kLookup:
          w->sources[i] = LookupRank(w, src.slot);
          break;
        case LeafSource::Kind::kSubrow: {
          const Trie& trie = *rels_[src.slot]->trie;
          const uint32_t row = w->subrow[src.slot];
          w->sources[i] = src.level + 1 == trie.num_levels()
                              ? row
                              : trie.level(src.level).AncestorOfLeaf(row);
          break;
        }
      }
    }
  }

  /// Root rank of lookup relation `i` at its vertex's current value. A
  /// full root needs no probe: value v has rank v (lookup tries are eager).
  uint32_t LookupRank(Worker* w, int i) const {
    const uint32_t value = w->vals[lookup_positions_[i]];
    const TrieLevel& root = lookups_[i]->trie->level(0);
    int64_t r;
    if (root.all_full()) {
      r = value < root.full_size() ? value : -1;
      ++w->elided;
    } else {
      r = root.set(0).Rank(value);
    }
    LH_CHECK(r >= 0) << "lookup value missing from lookup trie";
    return static_cast<uint32_t>(r);
  }

  /// Annotation value at the current position, range-aggregated over
  /// unjoined deeper levels (attribute-elimination ablation).
  double AnnotValue(Worker* w, int s, int a) const {
    const BuiltRelation& br = *rels_[s];
    const AnnotationBuffer& buf = br.trie->annotation(a);
    if (buf.level < br.num_query_levels) {
      return buf.AsDouble(RankCursor(*w, s, buf.level));
    }
    const int last = br.num_query_levels - 1;
    const uint32_t rank = RankCursor(*w, s, last);
    const TrieLevel& level = br.trie->level(last);
    const uint32_t lo = level.first_leaf(rank);
    const uint32_t hi = level.first_leaf(rank + 1);
    const AnnotationMerge merge = br.annot_merge[a];
    if (merge == AnnotationMerge::kFirst) return buf.AsDouble(lo);
    double acc = merge == AnnotationMerge::kSum ? 0.0 : buf.AsDouble(lo);
    for (uint32_t i = lo; i < hi; ++i) {
      const double v = buf.AsDouble(i);
      if (merge == AnnotationMerge::kSum) {
        acc += v;
      } else if (merge == AnnotationMerge::kMin) {
        acc = TotalMin(acc, v);
      } else {
        acc = TotalMax(acc, v);
      }
    }
    return acc;
  }

  double CountOf(Worker* w, int s) const {
    const BuiltRelation* br = rels_[s];
    // unique_keys is prefix-exact (see BuildRelationTrie): a unique queried
    // prefix implies per-leaf multiplicity 1 even under deeper unjoined
    // levels, so the annotation fold is skippable.
    if (br->unique_keys) return 1.0;
    return AnnotValue(w, s, br->count_annot);
  }

  /// Point value of annotation `a` of slot `s`: deep annotations of
  /// iterated relations read at the current subrow; everything else goes
  /// through the (possibly range-aggregating) AnnotValue.
  double AnnotValuePoint(Worker* w, int s, int a) const {
    const BuiltRelation& br = *rels_[s];
    const AnnotationBuffer& buf = br.trie->annotation(a);
    if (buf.level >= br.num_query_levels && iterated_[s]) {
      if (buf.level + 1 == br.trie->num_levels()) {
        return buf.AsDouble(w->subrow[s]);
      }
      return buf.AsDouble(
          br.trie->level(buf.level).AncestorOfLeaf(w->subrow[s]));
    }
    return AnnotValue(w, s, a);
  }

  /// Subrow-mode leaf: enumerates the cross product of the iterated
  /// relations' base-row ranges — each combination is one logical join
  /// row, grouped and aggregated individually (Q12's GROUP BY l_shipmode
  /// with lineitem keyed on orderkey only).
  void SubrowLeaf(Worker* w) {
    struct Range {
      int slot;
      uint32_t lo, hi;
    };
    Range ranges[16];
    int nr = 0;
    for (size_t s = 0; s < node_.relations.size(); ++s) {
      if (!iterated_[s]) continue;
      const BuiltRelation& br = *rels_[s];
      const int last = br.num_query_levels - 1;
      const uint32_t rank = RankCursor(*w, s, last);
      const TrieLevel& level = br.trie->level(last);
      LH_CHECK_LT(nr, 16);
      ranges[nr] = {static_cast<int>(s), level.first_leaf(rank),
                    level.first_leaf(rank + 1)};
      w->subrow[s] = ranges[nr].lo;
      ++nr;
    }
    while (true) {
      ++w->leaf_count;
      LoadSources(w);
      ComputeDeltas(w);
      Accumulate(w);
      int d = 0;
      for (; d < nr; ++d) {
        if (++w->subrow[ranges[d].slot] < ranges[d].hi) break;
        w->subrow[ranges[d].slot] = ranges[d].lo;
      }
      if (d == nr) break;
    }
  }

  /// The leaf's aggregate deltas into agg_main/agg_aux. Leaf programs
  /// read w->sources, so LoadSources must have run for this leaf.
  void ComputeDeltas(Worker* w) {
    double total_count = 1.0;
    if (!all_unique_) {
      for (size_t s = 0; s < node_.relations.size(); ++s) {
        if (node_.relations[s].rel < 0 || iterated_[s]) {
          w->rel_count[s] = 1.0;  // iterated rows are enumerated one by one
          continue;
        }
        w->rel_count[s] = CountOf(w, static_cast<int>(s));
        total_count *= w->rel_count[s];
      }
    }
    for (size_t i = 0; i < plan_.aggs.size(); ++i) {
      const AggExec& agg = plan_.aggs[i];
      switch (agg.func) {
        case AggFunc::kCount:
          w->agg_main[i] = total_count;
          w->agg_aux[i] = 0;
          break;
        case AggFunc::kMin:
        case AggFunc::kMax: {
          double v;
          if (agg.single_rel >= 0) {
            const int s = SlotOfRel(agg.single_rel);
            v = AnnotValuePoint(w, s, rels_[s]->agg_annot[i]);
          } else {
            v = agg_progs_[i].EvalAt(w->sources.data());
          }
          w->agg_main[i] = v;
          w->agg_aux[i] = 0;
          break;
        }
        case AggFunc::kSum:
        case AggFunc::kAvg: {
          double v;
          double multiplier = 1.0;
          if (agg.single_rel >= 0) {
            // The relation's own multiplicity is folded into its merged
            // annotation; multiply by every other relation's.
            const int s = SlotOfRel(agg.single_rel);
            v = AnnotValuePoint(w, s, rels_[s]->agg_annot[i]);
            if (!all_unique_) {
              for (size_t t = 0; t < node_.relations.size(); ++t) {
                if (node_.relations[t].rel < 0 ||
                    static_cast<int>(t) == s) {
                  continue;
                }
                multiplier *= w->rel_count[t];
              }
            }
          } else {
            v = agg.arg == nullptr ? 1.0
                                   : agg_progs_[i].EvalAt(w->sources.data());
            // The argument value is constant across each relation's merged
            // rows (iterated relations are enumerated, with count 1), so
            // every relation's multiplicity multiplies.
            if (!all_unique_) {
              for (size_t t = 0; t < node_.relations.size(); ++t) {
                if (node_.relations[t].rel < 0) continue;
                multiplier *= w->rel_count[t];
              }
            }
          }
          w->agg_main[i] = v * multiplier;
          w->agg_aux[i] = agg.func == AggFunc::kAvg ? total_count : 0;
          break;
        }
      }
    }
  }

  int SlotOfRel(int rel) const {
    for (size_t s = 0; s < node_.relations.size(); ++s) {
      if (node_.relations[s].rel == rel) return static_cast<int>(s);
    }
    LH_CHECK(false) << "relation not in node";
    return -1;
  }

  /// The leaf's group key into w->group_key. Non-key dimensions read
  /// w->sources, so LoadSources must have run for this leaf.
  void EncodeGroupKey(Worker* w) const {
    for (size_t d = 0; d < dims_->size(); ++d) {
      uint64_t enc = 0;
      switch ((*dims_)[d].kind) {
        case DimKind::kKeyVertex:
          enc = w->vals[(*dims_)[d].vertex_pos];
          break;
        case DimKind::kStringCode:
          enc = dim_codes_[d].codes[w->sources[dim_codes_[d].source]];
          break;
        case DimKind::kInt:
        case DimKind::kDate:
          enc = static_cast<uint64_t>(static_cast<int64_t>(
              dim_progs_[d].EvalAt(w->sources.data())));
          break;
        case DimKind::kReal:
          enc = RealKeyBits(dim_progs_[d].EvalAt(w->sources.data()));
          break;
      }
      w->group_key[d] = enc;
    }
  }

  void Leaf(Worker* w) {
    if (subrow_mode_) {
      SubrowLeaf(w);
      return;
    }
    ++w->leaf_count;
    LoadSources(w);
    ComputeDeltas(w);
    Accumulate(w);
  }

  /// Folds agg_main/agg_aux into the leaf's group: the scalar group, the
  /// hash table's group, or append mode's open group. Non-key dimensions
  /// read w->sources, so LoadSources must have run for this leaf.
  void Accumulate(Worker* w) const {
    double* acc;
    if (dims_->empty()) {
      acc = w->groups->ScalarGroup();
    } else {
      EncodeGroupKey(w);
      acc = append_mode_ ? w->rows->Group(w->group_key.data())
                         : w->groups->FindOrCreate(w->group_key.data());
    }
    ApplyDeltas(plan_.aggs, acc, w->agg_main.data(), w->agg_aux.data());
  }

  const PhysicalPlan& plan_;
  const NodePlan& node_;
  std::vector<const BuiltRelation*> rels_;
  std::vector<SetView> child_sets_;
  std::vector<const BuiltRelation*> lookups_;
  std::vector<int> lookup_rel_ids_;
  std::vector<int> lookup_positions_;
  const std::vector<DimInfo>* dims_;
  std::vector<std::vector<Participant>> participants_;
  std::vector<bool> iterated_;  // per slot: leaf enumerates its base rows
  bool subrow_mode_ = false;
  // Leaf programs: per aggregate slot (multi-relation arguments), per
  // non-key dimension, and the index sources their loads read.
  std::vector<ExprProgram> agg_progs_;
  std::vector<ExprProgram> dim_progs_;     // kInt / kDate / kReal dims
  std::vector<ColumnSource> dim_codes_;    // kStringCode dims
  std::vector<LeafSource> sources_;
  bool all_unique_ = false;
  bool fast_single_sum_ = false;
  int max_dim_pos_ = -1;
  // Per depth: the participants ComputeSet intersects and Descend probes
  // with Rank(), and the full levels it does neither for.
  std::vector<std::vector<Participant>> probe_, full_;
  std::vector<bool> direct_;  // exactly one probed participant, a relation
  // The deepest attribute has exactly two relation participants
  // (FusedLeafLoop); leaf_first_ is probed, leaf_second_ may be full.
  bool fused_leaf_ = false;
  Participant leaf_first_{}, leaf_second_{};
  // Annotation buffers the single SUM multiplies at the fused leaf, indexed
  // by leaf_first_'s and leaf_second_'s ranks (null: not such a product).
  const double* leaf_first_vals_ = nullptr;
  const double* leaf_second_vals_ = nullptr;
  // The same for RelaxedTailFast: the buffer at the last attribute's level
  // and the fixed operand's buffer, level and slot (null: not applicable).
  const double* relax_var_vals_ = nullptr;
  const double* relax_fixed_vals_ = nullptr;
  Participant relax_fixed_{};
  uint32_t last_domain_size_ = 0;
  bool append_mode_ = false;
  bool split_dim_ = false;  // level 1 is a group dimension
  std::unique_ptr<RowLayout> layout_;  // append mode
  int64_t skew_threshold_ = 0;  // 0 = splitting disabled for this node
  uint64_t total_leaves_ = 0;
  uint64_t total_nodes_ = 0;
  uint64_t total_elided_ = 0;

  // Chunk-run state (PrepareChunks / RunChunk / AbsorbWorkers /
  // Materialize). root_values_, grain_, and chunk layout are written once
  // in PrepareChunks and read-only during chunk runs; chunk_out_ and
  // chunk_rows_ elements are written by exactly one RunChunk each.
  size_t key_width_ = 0;
  std::unique_ptr<Worker> seed_;
  std::vector<uint32_t> root_values_;
  int64_t root_base_ = 0;  // the root set's base rank (direct_[0])
  int64_t grain_ = 1;
  int64_t num_chunks_ = 0;
  std::vector<std::unique_ptr<GroupAccum>> chunk_out_;  // hash mode
  std::vector<std::unique_ptr<RowChunk>> chunk_rows_;   // append mode
  Mutex scratch_mu_{LockRank::kExecScratch};
  std::vector<std::unique_ptr<Worker>> free_workers_
      LH_GUARDED_BY(scratch_mu_);

  const QueryGuard* guard_ = nullptr;
  const bool guard_active_ = false;
  std::atomic<bool> aborted_{false};
  Mutex abort_mu_{LockRank::kExecAbort};
  Status abort_status_ LH_GUARDED_BY(abort_mu_);  // first failure wins
};

// ---------------------------------------------------------------------------
// Scan path (join-free queries).
// ---------------------------------------------------------------------------

/// Phase-split scan execution: Init runs the fallible setup, RunChunk
/// consumes one adaptive-grain row range (thread-safe for distinct chunks),
/// and Gather folds the per-chunk partials in chunk order and materializes.
/// ExecuteScan drives the chunks through the global pool. Per-chunk
/// partials merged in chunk order (not per-slot): which thread runs a
/// chunk is scheduling noise, so per-slot accumulators would merge
/// floating-point sums in a different order every run. Chunk boundaries
/// come from cardinality alone, making results thread-count independent.
struct ScanState {
  ScanState(const PhysicalPlan& p, const Catalog& c, QueryResult::Timing* tm,
            obs::QueryObs* qo, const QueryGuard* g)
      : plan(p),
        catalog(c),
        table(*p.query.relations[0].table),
        timing(tm),
        qobs(qo),
        guard(g),
        guard_active(g != nullptr &&
                     (g->CancelEnabled() || g->max_result_rows > 0)),
        span(qo != nullptr ? &qo->trace : nullptr, "scan") {}

  Status Init() {
    span.SetDetail(table.schema().name());
    span.AddMetric("rows", static_cast<double>(table.num_rows()));
    // The fused kernel, compiled at plan time, is the whole scan.
    cscan = plan.compiled_scan.get();
    if (cscan == nullptr) {
      return Status::Internal("scan plan without a compiled scan kernel");
    }
    for (const GroupDimExec& d : plan.dims) {
      dim_infos.push_back(ClassifyDim(d, plan, catalog, /*join_path=*/false));
    }
    key_width = plan.dims.size();
    num_rows = static_cast<int64_t>(table.num_rows());
    grain = AdaptiveGrain(num_rows, 2048);
    num_chunks = num_rows == 0 ? 0 : (num_rows + grain - 1) / grain;
    partials.resize(num_chunks);
    t.Restart();  // exec_ms covers the chunk runs, not the setup above
    return Status::OK();
  }

  void RunChunk(int64_t chunk) {
    const int64_t lo = chunk * grain;
    const int64_t hi = std::min(num_rows, lo + grain);
    partials[chunk] = std::make_unique<GroupAccum>(key_width, &plan.aggs);
    GroupAccum& groups = *partials[chunk];
    // The fused kernel consumes the chunk whole; the poll closure runs the
    // guard check and abort protocol every 1024 rows.
    std::function<bool()> poll;
    if (guard_active) {
      poll = [&]() {
        // Relaxed: poll of the stop flag; a stale false only costs the
        // worker extra iterations whose output is discarded.
        if (aborted.load(std::memory_order_relaxed)) return false;
        Status s = guard->Check();
        if (s.ok()) s = guard->CheckRows(groups.num_groups());
        if (!s.ok()) {
          MutexLock lock(&abort_mu);
          if (abort_status.ok()) abort_status = std::move(s);
          // Release: pairs with the coordinator's acquire in Gather.
          aborted.store(true, std::memory_order_release);
          return false;
        }
        return true;
      };
    }
    const uint64_t touched = cscan->ExecuteChunk(lo, hi, &groups, poll);
    // Relaxed: keeps the -Attr.Elim arm's reads observable; nothing is
    // published through it.
    sink.fetch_add(touched, std::memory_order_relaxed);
  }

  Result<QueryResult> Gather() {
    if (aborted.load(std::memory_order_acquire)) {
      MutexLock lock(&abort_mu);
      return abort_status;
    }
    GroupAccum total(key_width, &plan.aggs);
    for (auto& p : partials) {
      if (p != nullptr) total.MergeFrom(*p);
    }
    timing->exec_ms += t.ElapsedMillis();
    LH_ASSIGN_OR_RETURN(QueryResult result,
                        MaterializeGroups(plan, total, dim_infos, guard));
    if (qobs != nullptr) {
      qobs->stats.CountTuplesEmitted(result.num_rows);
      qobs->node_tuples.assign(1, result.num_rows);
    }
    result.timing = *timing;
    return result;
  }

  const PhysicalPlan& plan;
  const Catalog& catalog;
  const Table& table;
  QueryResult::Timing* timing;
  obs::QueryObs* qobs;
  const QueryGuard* guard;
  const bool guard_active;
  obs::TraceSpan span;

  const CompiledScan* cscan = nullptr;
  std::vector<DimInfo> dim_infos;
  size_t key_width = 0;
  int64_t num_rows = 0;
  int64_t grain = 1;
  int64_t num_chunks = 0;
  std::vector<std::unique_ptr<GroupAccum>> partials;
  std::atomic<uint64_t> sink{0};
  WallTimer t;

  // Cooperative abort for the scan loops (core/cancel.h): first failing
  // worker records the status, the rest observe the flag each stride.
  std::atomic<bool> aborted{false};
  Mutex abort_mu{LockRank::kExecAbort};
  Status abort_status LH_GUARDED_BY(abort_mu);  // first failure wins
};

Result<QueryResult> ExecuteScan(const PhysicalPlan& plan,
                                const Catalog& catalog,
                                QueryResult::Timing* timing,
                                obs::QueryObs* qobs,
                                const QueryGuard* guard) {
  ScanState state(plan, catalog, timing, qobs, guard);
  LH_RETURN_NOT_OK(state.Init());
  ThreadPool::Global().ParallelChunks(
      0, state.num_chunks, 1, [&](int slot, int64_t lo, int64_t hi) {
        (void)slot;
        for (int64_t c = lo; c < hi; ++c) state.RunChunk(c);
      });
  return state.Gather();
}

// ---------------------------------------------------------------------------
// Dense dispatch (§III-D).
// ---------------------------------------------------------------------------

/// The dimension (if any) of relation `rel` among the plan's dims.
int DimOfRelation(const PhysicalPlan& plan, int rel) {
  for (size_t d = 0; d < plan.dims.size(); ++d) {
    const GroupDimExec& dim = plan.dims[d];
    if (dim.vertex < 0) continue;
    if (dim.expr->kind == Expr::Kind::kColumnRef &&
        dim.expr->bound_rel == rel) {
      return static_cast<int>(d);
    }
  }
  return -1;
}

Result<QueryResult> ExecuteDense(const PhysicalPlan& plan,
                                 const Catalog& catalog, TrieCache* cache,
                                 QueryResult::Timing* timing,
                                 obs::QueryObs* qobs,
                                 const QueryGuard* guard) {
  if (guard != nullptr) LH_RETURN_NOT_OK(guard->Check());
  const NodePlan& node = plan.nodes[0];
  // Identify A (carries the first output dimension), B (the other), and
  // the shared vertex k.
  const RelationPlan* rp_a = nullptr;
  const RelationPlan* rp_b = nullptr;
  int dim_a = -1, dim_b = -1;
  for (const RelationPlan& rp : node.relations) {
    int d = DimOfRelation(plan, rp.rel);
    if (rp_a == nullptr && d >= 0 && rp.levels_vertex.size() == 2) {
      rp_a = &rp;
      dim_a = d;
    } else {
      rp_b = &rp;
      dim_b = d;
    }
  }
  LH_CHECK(rp_a != nullptr && rp_b != nullptr);
  // Shared vertex: in both relations.
  int shared = -1;
  for (int v : rp_a->levels_vertex) {
    for (int u : rp_b->levels_vertex) {
      if (u == v) shared = v;
    }
  }
  LH_CHECK(shared >= 0);
  const int va = plan.dims[dim_a].vertex;
  const int vb = plan.dense == DenseKernel::kGemm
                     ? plan.dims[dim_b].vertex
                     : -1;

  auto col_of = [&](const RelationPlan& rp, int v) {
    for (size_t l = 0; l < rp.levels_vertex.size(); ++l) {
      if (rp.levels_vertex[l] == v) return rp.levels_col[l];
    }
    LH_CHECK(false) << "vertex not on relation";
    return -1;
  };

  // Build tries in BLAS-compatible orders: A as (dim_a, k), B as (k, dim_b).
  std::vector<int> cols_a = {col_of(*rp_a, va), col_of(*rp_a, shared)};
  std::vector<int> cols_b;
  if (plan.dense == DenseKernel::kGemm) {
    cols_b = {col_of(*rp_b, shared), col_of(*rp_b, vb)};
  } else {
    cols_b = {col_of(*rp_b, shared)};
  }
  Selections selections(plan.query.relations.size());
  LH_ASSIGN_OR_RETURN(
      BuiltRelation a,
      BuildRelationTrie(plan, catalog, rp_a->rel, cols_a, 2,
                        /*attach_aggregates=*/false, cache, &selections,
                        timing, qobs));
  LH_ASSIGN_OR_RETURN(
      BuiltRelation b,
      BuildRelationTrie(plan, catalog, rp_b->rel, cols_b,
                        static_cast<int>(cols_b.size()),
                        /*attach_aggregates=*/false, cache, &selections,
                        timing, qobs));

  // The aggregate argument is colref(A.v) * colref(B.v); fetch each side's
  // annotation buffer (leaf order == row-major dense layout).
  const Expr& arg = *plan.aggs[0].arg;
  auto buffer_of = [&](const BuiltRelation& br,
                       int rel) -> const std::vector<double>* {
    for (const ExprPtr& side : arg.children) {
      if (side->bound_rel == rel) {
        const int annot = br.annot_of_col[side->bound_col];
        LH_CHECK(annot >= 0);
        return &br.trie->annotation(annot).reals;
      }
    }
    LH_CHECK(false) << "dense argument side missing";
    return nullptr;
  };
  const std::vector<double>* abuf = buffer_of(a, rp_a->rel);
  const std::vector<double>* bbuf = buffer_of(b, rp_b->rel);

  const Dictionary* dom_a =
      catalog.GetDomain(plan.query.vertices[va].domain);
  const Dictionary* dom_k =
      catalog.GetDomain(plan.query.vertices[shared].domain);
  const int64_t m = dom_a->size();
  const int64_t kk = dom_k->size();

  WallTimer t;
  obs::TraceSpan span(qobs != nullptr ? &qobs->trace : nullptr, "dense_blas");
  span.SetDetail(plan.dense == DenseKernel::kGemm ? "gemm" : "gemv");
  span.AddMetric("m", static_cast<double>(m));
  span.AddMetric("k", static_cast<double>(kk));
  const int64_t nn =
      plan.dense == DenseKernel::kGemm
          ? catalog.GetDomain(plan.query.vertices[vb].domain)->size()
          : 1;
  // The BLAS kernels are not interruptible; the last poll is just before
  // dispatch, after the (cacheable) buffer builds. The row bound is known
  // up front (m x nn), so it is checked before the output is allocated.
  if (guard != nullptr) {
    LH_RETURN_NOT_OK(guard->Check());
    LH_RETURN_NOT_OK(guard->CheckRows(static_cast<size_t>(m * nn)));
  }
  QueryResult result;
  std::vector<double> out_values;
  if (plan.dense == DenseKernel::kGemm) {
    out_values.resize(m * nn);
    Gemm(m, nn, kk, abuf->data(), bbuf->data(), out_values.data());
  } else {
    out_values.resize(m);
    Gemv(m, kk, abuf->data(), bbuf->data(), out_values.data());
  }
  span.End();
  if (qobs != nullptr) {
    qobs->stats.CountTuplesEmitted(out_values.size());
    qobs->node_tuples.assign(1, out_values.size());
  }

  // Key production (the paper's <2% overhead): output row r is (i, j) =
  // (r / nn, r % nn), so each row block i holds A's key i and B's nn keys.
  // The blocks fill in parallel, straight from the domains' sorted values.
  result.num_rows = out_values.size();
  const Dictionary* dom_b =
      vb >= 0 ? catalog.GetDomain(plan.query.vertices[vb].domain) : nullptr;
  int agg_reads = 0;
  for (const OutputItem& out : plan.query.outputs) {
    if (out.direct_agg_slot == 0) ++agg_reads;
  }
  for (const OutputItem& out : plan.query.outputs) {
    ResultColumn col;
    col.name = out.name;
    const bool key_a = out.direct_group_index == dim_a;
    if (key_a || (vb >= 0 && out.direct_group_index == dim_b)) {
      col.type = ValueType::kInt64;
      col.ints.resize(result.num_rows);
      const int64_t* keys =
          (key_a ? dom_a : dom_b)->int_values().data();
      int64_t* dst = col.ints.data();
      ThreadPool::Global().ParallelChunks(
          0, m, AdaptiveGrain(m), [&](int, int64_t lo, int64_t hi) {
            for (int64_t i = lo; i < hi; ++i) {
              int64_t* row = dst + i * nn;
              if (key_a) {
                std::fill(row, row + nn, keys[i]);
              } else {
                std::copy(keys, keys + nn, row);
              }
            }
          });
    } else if (out.direct_agg_slot == 0) {
      col.type = ValueType::kDouble;
      // The last reader takes the GEMM/GEMV output itself.
      if (--agg_reads == 0) {
        col.reals = std::move(out_values);
      } else {
        col.reals = out_values;
      }
    } else {
      return Status::PlanError("unsupported output shape for dense kernel");
    }
    result.columns.push_back(std::move(col));
  }
  timing->exec_ms += t.ElapsedMillis();
  result.timing = *timing;
  return result;
}

// ---------------------------------------------------------------------------
// Join path.
// ---------------------------------------------------------------------------

/// Phase-split join execution: Prepare builds tries, runs the Yannakakis
/// semijoin children, and computes the root node's chunk layout — all on
/// the calling thread; RunChunk executes one root chunk (thread-safe for
/// distinct chunks); Gather materializes the chunk outputs in chunk
/// order. ExecuteJoin drives the chunks through the global pool.
struct JoinState {
  JoinState(const PhysicalPlan& p, const Catalog& c, TrieCache* tc,
            QueryResult::Timing* tm, obs::QueryObs* qo, const QueryGuard* g)
      : plan(p),
        catalog(c),
        cache(tc),
        timing(tm),
        qobs(qo),
        guard(g),
        trace(qo != nullptr ? &qo->trace : nullptr) {}

  Status Prepare() {
    if (qobs != nullptr) qobs->node_tuples.assign(plan.nodes.size(), 0);
    // Build tries for every node's relations. Each build is one unit of
    // cancellable work: the guard is polled between builds, not inside one.
    built.resize(plan.nodes.size());
    selections.resize(plan.query.relations.size());
    for (size_t ni = 0; ni < plan.nodes.size(); ++ni) {
      for (const RelationPlan& rp : plan.nodes[ni].relations) {
        if (guard != nullptr) LH_RETURN_NOT_OK(guard->Check());
        if (rp.rel < 0) {
          built[ni].push_back(nullptr);
          continue;
        }
        std::vector<int> level_cols = rp.levels_col;
        level_cols.insert(level_cols.end(), rp.extra_level_cols.begin(),
                          rp.extra_level_cols.end());
        LH_ASSIGN_OR_RETURN(
            BuiltRelation br,
            BuildRelationTrie(plan, catalog, rp.rel, level_cols,
                              static_cast<int>(rp.levels_col.size()),
                              /*attach_aggregates=*/true, cache, &selections,
                              timing, qobs));
        built[ni].push_back(std::make_unique<BuiltRelation>(std::move(br)));
      }
    }

    // Lookup tries (one-level, keyed by the interface vertex).
    for (const LookupPlan& lp : plan.nodes[0].lookups) {
      const RelationRef& ref = plan.query.relations[lp.rel];
      int col = -1;
      for (size_t c = 0; c < ref.vertex_of_col.size(); ++c) {
        if (ref.vertex_of_col[c] == lp.vertex) col = static_cast<int>(c);
      }
      LH_CHECK(col >= 0);
      LH_ASSIGN_OR_RETURN(
          BuiltRelation br,
          BuildRelationTrie(plan, catalog, lp.rel, {col}, 1,
                            /*attach_aggregates=*/false, cache, &selections,
                            timing, qobs));
      lookup_built.push_back(std::make_unique<BuiltRelation>(std::move(br)));
      lookup_rel_ids.push_back(lp.rel);
      int pos = -1;
      for (size_t i = 0; i < plan.nodes[0].attr_order.size(); ++i) {
        if (plan.nodes[0].attr_order[i] == lp.vertex) {
          pos = static_cast<int>(i);
        }
      }
      LH_CHECK(pos >= 0) << "lookup vertex not in root order";
      lookup_positions.push_back(pos);
    }

    t.Restart();
    // Children first (Yannakakis existential semijoins).
    child_results.resize(plan.nodes.size());
    for (size_t ni = plan.nodes.size(); ni-- > 1;) {
      obs::TraceSpan span(trace, "semijoin");
      span.SetDetail("node " + std::to_string(ni));
      std::vector<const BuiltRelation*> rels;
      for (const auto& br : built[ni]) rels.push_back(br.get());
      NodeExec exec(plan, plan.nodes[ni], std::move(rels), {}, {}, {}, {},
                    &no_dims[0], guard);
      std::vector<uint32_t> codes = exec.RunExistential();
      LH_RETURN_NOT_OK(exec.abort_status());
      span.AddMetric("roots", static_cast<double>(exec.num_roots()));
      span.AddMetric("tuples", static_cast<double>(codes.size()));
      if (qobs != nullptr) {
        qobs->node_tuples[ni] = codes.size();
        qobs->stats.CountTuplesEmitted(codes.size());
        qobs->stats.CountTrieNodesVisited(exec.nodes_visited());
        qobs->stats.CountIntersectElided(exec.elided());
      }
      child_results[ni] = OwnedSet::FromSorted(codes);
    }

    // Root node.
    for (const GroupDimExec& d : plan.dims) {
      DimInfo info = ClassifyDim(d, plan, catalog, /*join_path=*/true);
      if (info.kind == DimKind::kKeyVertex) {
        for (size_t i = 0; i < plan.nodes[0].attr_order.size(); ++i) {
          if (plan.nodes[0].attr_order[i] == d.vertex) {
            info.vertex_pos = static_cast<int>(i);
          }
        }
        LH_CHECK(info.vertex_pos >= 0);
      }
      dim_infos.push_back(info);
    }

    std::vector<const BuiltRelation*> root_rels;
    std::vector<SetView> child_sets;
    for (size_t s = 0; s < plan.nodes[0].relations.size(); ++s) {
      const RelationPlan& rp = plan.nodes[0].relations[s];
      root_rels.push_back(built[0][s].get());
      if (rp.rel < 0) {
        child_sets.push_back(child_results[rp.child_node].view());
      }
    }
    std::vector<const BuiltRelation*> lookups;
    for (const auto& b : lookup_built) lookups.push_back(b.get());

    root = std::make_unique<NodeExec>(
        plan, plan.nodes[0], std::move(root_rels), std::move(child_sets),
        std::move(lookups), std::move(lookup_rel_ids),
        std::move(lookup_positions), &dim_infos, guard);
    if (plan.nodes[0].union_relaxed) {
      const int last = plan.nodes[0].attr_order.back();
      const Dictionary* dom =
          catalog.GetDomain(plan.query.vertices[last].domain);
      root->set_last_domain_size(dom->size());
    }
    wcoj_span.emplace(trace, "wcoj");
    wcoj_span->SetDetail("root, order " + plan.RootOrderString());
    return root->PrepareChunks();
  }

  /// The parallel region is over when this runs: the wcoj span ends
  /// first, and everything after it — the append-mode row concat or the
  /// hash-mode merge and decode — is the materialize span, whose detail
  /// names the path (`rows` or `groups`).
  Result<QueryResult> Gather() {
    root->AbsorbWorkers();
    LH_RETURN_NOT_OK(root->abort_status());
    if (qobs != nullptr) {
      qobs->node_tuples[0] = root->leaves();
      qobs->stats.CountTuplesEmitted(root->leaves());
      qobs->stats.CountTrieNodesVisited(root->nodes_visited());
      qobs->stats.CountIntersectElided(root->elided());
    }
    wcoj_span->AddMetric("tuples", static_cast<double>(root->leaves()));
    wcoj_span->End();
    timing->exec_ms += t.ElapsedMillis();

    WallTimer mt;
    obs::TraceSpan mat_span(trace, "materialize");
    mat_span.SetDetail(root->append_mode() ? "rows" : "groups");
    Result<QueryResult> result = root->Materialize(guard, &mat_span);
    timing->exec_ms += mt.ElapsedMillis();
    if (!result.ok()) return result;
    mat_span.AddMetric("rows", static_cast<double>(result.value().num_rows));
    result.value().timing = *timing;
    return result;
  }

  const PhysicalPlan& plan;
  const Catalog& catalog;
  TrieCache* cache;
  QueryResult::Timing* timing;
  obs::QueryObs* qobs;
  const QueryGuard* guard;
  obs::Trace* trace;

  Selections selections;
  std::vector<std::vector<std::unique_ptr<BuiltRelation>>> built;
  std::vector<std::unique_ptr<BuiltRelation>> lookup_built;
  std::vector<int> lookup_rel_ids, lookup_positions;
  std::vector<OwnedSet> child_results;
  std::vector<std::vector<DimInfo>> no_dims{1};
  std::vector<DimInfo> dim_infos;
  /// Root NodeExec behind a stable address: chunk runners point into it.
  std::unique_ptr<NodeExec> root;
  WallTimer t;
  std::optional<obs::TraceSpan> wcoj_span;
};

Result<QueryResult> ExecuteJoin(const PhysicalPlan& plan,
                                const Catalog& catalog, TrieCache* cache,
                                QueryResult::Timing* timing,
                                obs::QueryObs* qobs,
                                const QueryGuard* guard) {
  JoinState state(plan, catalog, cache, timing, qobs, guard);
  LH_RETURN_NOT_OK(state.Prepare());
  ThreadPool::Global().ParallelChunks(
      0, state.root->num_chunks(), 1, [&](int slot, int64_t lo, int64_t hi) {
        (void)slot;
        for (int64_t c = lo; c < hi; ++c) state.root->RunChunk(c);
      });
  return state.Gather();
}

/// The result of a query whose WHERE is always false: an empty group table
/// materialized as the query's own path would, so the columns are typed
/// and HAVING and output expressions compile (or fail) just the same.
Result<QueryResult> EmptyResult(const PhysicalPlan& plan,
                                const Catalog& catalog) {
  std::vector<DimInfo> dim_infos;
  for (const GroupDimExec& d : plan.dims) {
    dim_infos.push_back(
        ClassifyDim(d, plan, catalog, /*join_path=*/!plan.scan_only));
  }
  const GroupAccum empty(dim_infos.size(), &plan.aggs);
  return MaterializeGroups(plan, empty, dim_infos);
}

}  // namespace

Result<QueryResult> ExecutePlan(const PhysicalPlan& plan,
                                const Catalog& catalog, TrieCache* cache,
                                QueryResult::Timing* timing,
                                obs::QueryObs* qobs,
                                const QueryGuard* guard) {
  if (!plan.options.use_trie_cache) cache = nullptr;
  if (plan.query.always_empty) {
    Result<QueryResult> r = EmptyResult(plan, catalog);
    if (r.ok()) r.value().timing = *timing;
    return r;
  }
  Result<QueryResult> result =
      plan.scan_only ? ExecuteScan(plan, catalog, timing, qobs, guard)
      : plan.dense != DenseKernel::kNone
          ? ExecuteDense(plan, catalog, cache, timing, qobs, guard)
          : ExecuteJoin(plan, catalog, cache, timing, qobs, guard);
  // The authoritative row bound (the pre-ORDER/LIMIT row count) was checked
  // by each path before allocating its output; the in-flight checks during
  // accumulation are per-worker backstops and can undercount across workers.
  if (result.ok()) {
    WallTimer t;
    ApplyOrderAndLimit(plan.query, &result.value());
    timing->exec_ms += t.ElapsedMillis();
    result.value().timing = *timing;
  }
  return result;
}

}  // namespace levelheaded
