#include "baseline/pairwise_engine.h"

#include <algorithm>
#include <atomic>
#include <functional>
#include <memory>
#include <set>
#include <unordered_map>

#include "baseline/block_eval.h"
#include "baseline/expr_walker.h"
#include "core/expr_eval.h"
#include "core/group_accum.h"
#include "core/plan.h"
#include "sql/binder.h"
#include "sql/parser.h"
#include "util/logging.h"
#include "util/thread_pool.h"
#include "util/timer.h"
#include "util/total_order.h"

namespace levelheaded {

const char* BaselineModeName(BaselineMode mode) {
  switch (mode) {
    case BaselineMode::kVectorized:
      return "pairwise-vectorized";
    case BaselineMode::kMaterialized:
      return "pairwise-materialized";
    case BaselineMode::kInterpreted:
      return "pairwise-interpreted";
  }
  return "?";
}

namespace {

/// CellAccessor over one joined tuple: a row id per bound relation.
class JoinTupleCells : public CellAccessor {
 public:
  explicit JoinTupleCells(const LogicalQuery& q)
      : q_(q), rows_(q.relations.size(), 0) {}

  void Set(int rel, uint32_t row) { rows_[rel] = row; }
  uint32_t row(int rel) const { return rows_[rel]; }

  double Number(int rel, int col) const override {
    const ColumnData& c = q_.relations[rel].table->column(col);
    const uint32_t row = rows_[rel];
    if (!c.ints.empty()) return static_cast<double>(c.ints[row]);
    if (!c.reals.empty()) return c.reals[row];
    return static_cast<double>(c.codes[row]);
  }
  int64_t Code(int rel, int col) const override {
    const ColumnData& c = q_.relations[rel].table->column(col);
    if (c.dict == nullptr || c.dict->type() != ValueType::kString) return -1;
    return c.codes[rows_[rel]];
  }
  const Dictionary* Dict(int rel, int col) const override {
    const ColumnData& c = q_.relations[rel].table->column(col);
    return c.dict != nullptr && c.dict->type() == ValueType::kString ? c.dict
                                                                     : nullptr;
  }

 private:
  const LogicalQuery& q_;
  std::vector<uint32_t> rows_;
};

/// Packs up to two vertex codes into a 64-bit join key.
uint64_t PackKey(uint32_t a, uint32_t b) {
  return (static_cast<uint64_t>(b) << 32) | a;
}

/// One join step.
struct JoinStep {
  int rel = -1;
  int build_col0 = -1, build_col1 = -1;  // key columns of `rel`
  int probe_rel0 = -1, probe_col0 = -1;  // bound-side key sources
  int probe_rel1 = -1, probe_col1 = -1;
  std::unordered_map<uint64_t, std::vector<uint32_t>> buckets;
};

class PairwiseRun {
 public:
  PairwiseRun(const PhysicalPlan& plan, const Catalog& catalog,
              BaselineMode mode, uint64_t cap)
      : plan_(plan),
        q_(plan.query),
        catalog_(catalog),
        mode_(mode),
        cap_(cap) {}

  Result<QueryResult> Run() {
    WallTimer total;
    for (const GroupDimExec& d : plan_.dims) {
      dim_infos_.push_back(
          ClassifyDim(d, plan_, catalog_, /*join_path=*/false));
    }
    if (q_.always_empty) {
      GroupAccum empty(plan_.dims.size(), &plan_.aggs);
      LH_ASSIGN_OR_RETURN(
          QueryResult r,
          MaterializeGroups(plan_, empty, dim_infos_));
      r.timing.exec_ms = total.ElapsedMillis();
      return r;
    }

    selections_.resize(q_.relations.size());
    for (size_t r = 0; r < q_.relations.size(); ++r) {
      if (mode_ == BaselineMode::kInterpreted) {
        // No predicate compilation: tuple-at-a-time engines evaluate the
        // filter expression tree per row.
        JoinTupleCells cells(q_);
        const size_t n = q_.relations[r].table->num_rows();
        for (uint32_t row = 0; row < n; ++row) {
          cells.Set(static_cast<int>(r), row);
          bool pass = true;
          for (const ExprPtr& f : q_.relations[r].filters) {
            if (!EvalBool(*f, cells)) {
              pass = false;
              break;
            }
          }
          if (pass) selections_[r].push_back(row);
        }
        continue;
      }
      std::vector<const Expr*> conjuncts;
      for (const ExprPtr& f : q_.relations[r].filters) {
        conjuncts.push_back(f.get());
      }
      LH_ASSIGN_OR_RETURN(
          RowFilter filter,
          RowFilter::Compile(conjuncts, *q_.relations[r].table));
      selections_[r] = filter.SelectedRows();
    }

    if (mode_ == BaselineMode::kInterpreted) {
      std::set<std::pair<int, int>> refs;
      std::function<void(const Expr&)> walk = [&](const Expr& e) {
        if (e.kind == Expr::Kind::kColumnRef) {
          refs.insert({e.bound_rel, e.bound_col});
        }
        for (const ExprPtr& c : e.children) {
          if (c != nullptr) walk(*c);
        }
      };
      for (const GroupDimExec& d : plan_.dims) walk(*d.expr);
      for (const AggExec& a : plan_.aggs) {
        if (a.arg != nullptr) walk(*a.arg);
      }
      referenced_cols_.assign(refs.begin(), refs.end());
    }
    if (mode_ == BaselineMode::kVectorized) SetupBlocks();

    GroupAccum groups(plan_.dims.size(), &plan_.aggs);
    if (q_.relations.size() == 1) {
      LH_RETURN_NOT_OK(ScanOnly(&groups));
    } else {
      LH_RETURN_NOT_OK(PlanJoinOrder());
      BuildHashTables();
      if (mode_ == BaselineMode::kMaterialized) {
        LH_RETURN_NOT_OK(ProbeMaterialized(&groups));
      } else {
        LH_RETURN_NOT_OK(ProbePipelined(&groups));
      }
    }

    LH_ASSIGN_OR_RETURN(
        QueryResult result,
        MaterializeGroups(plan_, groups, dim_infos_));
    ApplyOrderAndLimit(q_, &result);
    result.timing.exec_ms = total.ElapsedMillis();
    return result;
  }

 private:
  struct Worker {
    std::unique_ptr<GroupAccum> groups;
    std::unique_ptr<JoinTupleCells> cells;
    std::vector<uint64_t> key;
    std::vector<double> main, aux;
    std::vector<Value> boxed;  // kInterpreted per-tuple materialization
    // kVectorized block pipeline state.
    TupleBlock block;
    std::vector<std::vector<double>> agg_arr;
    std::vector<std::vector<uint64_t>> dim_arr;
    std::vector<double> prog_scratch;
    std::vector<BlockProgram> progs;      // per-worker copies (own stacks)
    std::vector<BlockProgram> dim_progs;
    uint64_t produced = 0;
    uint64_t cap = 0;
  };

  void InitWorker(Worker* w) const {
    w->groups = std::make_unique<GroupAccum>(plan_.dims.size(), &plan_.aggs);
    w->cells = std::make_unique<JoinTupleCells>(q_);
    w->key.assign(plan_.dims.size(), 0);
    const size_t naggs = std::max<size_t>(1, plan_.aggs.size());
    w->main.assign(naggs, 0);
    w->aux.assign(naggs, 0);
    if (use_blocks_) {
      w->block.Reset(q_.relations.size());
      w->agg_arr.resize(plan_.aggs.size());
      w->dim_arr.resize(plan_.dims.size());
      w->progs = agg_progs_;
      w->dim_progs = dim_progs_;
    }
  }

  /// Encodes group dimensions and applies aggregate deltas for the tuple
  /// currently loaded in w->cells.
  void AggregateTuple(Worker* w) const {
    const CellAccessor& cells = *w->cells;
    if (mode_ == BaselineMode::kInterpreted) {
      // Tuple-at-a-time engines materialize each tuple as a fresh boxed
      // row (string columns decode and copy) before operating on it.
      w->boxed = std::vector<Value>();
      w->boxed.reserve(referenced_cols_.size());
      for (const auto& [rel, col] : referenced_cols_) {
        const Dictionary* dict = cells.Dict(rel, col);
        if (dict != nullptr) {
          w->boxed.push_back(Value::Str(dict->DecodeString(
              static_cast<uint32_t>(cells.Code(rel, col)))));
        } else {
          w->boxed.push_back(Value::Real(cells.Number(rel, col)));
        }
      }
    }
    for (size_t d = 0; d < plan_.dims.size(); ++d) {
      const GroupDimExec& dim = plan_.dims[d];
      switch (dim_infos_[d].kind) {
        case DimKind::kKeyVertex:
          LH_CHECK(false) << "baseline dims are column-classified";
          break;
        case DimKind::kStringCode:
          w->key[d] = static_cast<uint64_t>(
              cells.Code(dim.expr->bound_rel, dim.expr->bound_col));
          break;
        case DimKind::kInt:
        case DimKind::kDate:
          w->key[d] = static_cast<uint64_t>(
              static_cast<int64_t>(EvalNumber(*dim.expr, cells)));
          break;
        case DimKind::kReal:
          w->key[d] = RealKeyBits(EvalNumber(*dim.expr, cells));
          break;
      }
    }
    for (size_t i = 0; i < plan_.aggs.size(); ++i) {
      const AggExec& agg = plan_.aggs[i];
      switch (agg.func) {
        case AggFunc::kCount:
          w->main[i] = 1;
          w->aux[i] = 0;
          break;
        case AggFunc::kAvg:
          w->main[i] = EvalNumber(*agg.arg, cells);
          w->aux[i] = 1;
          break;
        default:
          w->main[i] = agg.arg == nullptr ? 1 : EvalNumber(*agg.arg, cells);
          w->aux[i] = 0;
          break;
      }
    }
    double* acc = plan_.dims.empty() ? w->groups->ScalarGroup()
                                     : w->groups->FindOrCreate(w->key.data());
    w->groups->Apply(acc, w->main.data(), w->aux.data());
  }

  Status ScanOnly(GroupAccum* out) {
    if (mode_ == BaselineMode::kVectorized) {
      // Morsel-parallel, block-vectorized scan.
      ThreadPool& pool = ThreadPool::Global();
      const int slots = pool.num_threads() + 1;
      std::vector<Worker> workers(slots);
      pool.ParallelChunks(
          0, static_cast<int64_t>(selections_[0].size()), 4096,
          [&](int slot, int64_t lo, int64_t hi) {
            Worker& w = workers[slot];
            if (w.groups == nullptr) InitWorker(&w);
            for (int64_t i = lo; i < hi; ++i) {
              if (use_blocks_) {
                w.block.rows[0].push_back(selections_[0][i]);
                if (++w.block.n >= kBlockRows) FlushBlock(&w);
              } else {
                w.cells->Set(0, selections_[0][i]);
                AggregateTuple(&w);
              }
            }
            if (use_blocks_) FlushBlock(&w);
          });
      for (Worker& w : workers) {
        if (w.groups != nullptr) out->MergeFrom(*w.groups);
      }
      return Status::OK();
    }
    Worker w;
    InitWorker(&w);
    for (uint32_t row : selections_[0]) {
      w.cells->Set(0, row);
      AggregateTuple(&w);
    }
    out->MergeFrom(*w.groups);
    return Status::OK();
  }

  /// Greedy smallest-first join ordering.
  Status PlanJoinOrder() {
    const size_t n = q_.relations.size();
    std::vector<bool> bound(n, false);
    size_t start = 0;
    for (size_t r = 1; r < n; ++r) {
      if (selections_[r].size() < selections_[start].size()) start = r;
    }
    base_rel_ = static_cast<int>(start);
    bound[start] = true;
    for (size_t step = 1; step < n; ++step) {
      int best = -1;
      for (size_t r = 0; r < n; ++r) {
        if (bound[r] || !SharesVertex(static_cast<int>(r), bound)) continue;
        if (best < 0 || selections_[r].size() < selections_[best].size()) {
          best = static_cast<int>(r);
        }
      }
      if (best < 0) {
        return Status::PlanError("disconnected join graph (cross product)");
      }
      JoinStep js;
      js.rel = best;
      LH_RETURN_NOT_OK(FillStepKeys(&js, bound));
      steps_.push_back(std::move(js));
      bound[best] = true;
    }
    return Status::OK();
  }

  bool SharesVertex(int rel, const std::vector<bool>& bound) const {
    for (int v : q_.relations[rel].vertex_of_col) {
      if (v < 0) continue;
      for (const BoundColumnKey& c : q_.vertices[v].columns) {
        if (c.rel != rel && bound[c.rel]) return true;
      }
    }
    return false;
  }

  Status FillStepKeys(JoinStep* js, const std::vector<bool>& bound) const {
    int filled = 0;
    const RelationRef& rel = q_.relations[js->rel];
    for (size_t col = 0; col < rel.vertex_of_col.size(); ++col) {
      const int v = rel.vertex_of_col[col];
      if (v < 0) continue;
      int src_rel = -1, src_col = -1;
      for (const BoundColumnKey& c : q_.vertices[v].columns) {
        if (c.rel != js->rel && bound[c.rel]) {
          src_rel = c.rel;
          src_col = c.col;
          break;
        }
      }
      if (src_rel < 0) continue;
      if (filled == 0) {
        js->build_col0 = static_cast<int>(col);
        js->probe_rel0 = src_rel;
        js->probe_col0 = src_col;
      } else if (filled == 1) {
        js->build_col1 = static_cast<int>(col);
        js->probe_rel1 = src_rel;
        js->probe_col1 = src_col;
      } else {
        return Status::PlanError("join on more than two shared attributes");
      }
      ++filled;
    }
    LH_CHECK(filled > 0);
    return Status::OK();
  }

  void BuildHashTables() {
    for (JoinStep& js : steps_) {
      const Table& table = *q_.relations[js.rel].table;
      const auto& codes0 = table.column(js.build_col0).codes;
      const std::vector<uint32_t>* codes1 =
          js.build_col1 >= 0 ? &table.column(js.build_col1).codes : nullptr;
      js.buckets.reserve(selections_[js.rel].size());
      for (uint32_t row : selections_[js.rel]) {
        const uint64_t key =
            PackKey(codes0[row], codes1 != nullptr ? (*codes1)[row] : 0);
        js.buckets[key].push_back(row);
      }
    }
  }

  uint64_t ProbeKey(const Worker& w, const JoinStep& js) const {
    const uint32_t c0 = q_.relations[js.probe_rel0].table->CodeAt(
        w.cells->row(js.probe_rel0), js.probe_col0);
    const uint32_t c1 =
        js.probe_rel1 >= 0
            ? q_.relations[js.probe_rel1].table->CodeAt(
                  w.cells->row(js.probe_rel1), js.probe_col1)
            : 0;
    return PackKey(c0, c1);
  }

  /// Per-tuple recursive probe through the pipeline.
  bool ProbeTuple(Worker* w, size_t step) {
    if (step == steps_.size()) {
      if (++w->produced > w->cap) return false;
      if (use_blocks_) {
        EmitToBlock(w);
      } else {
        AggregateTuple(w);
      }
      return true;
    }
    const JoinStep& js = steps_[step];
    auto it = js.buckets.find(ProbeKey(*w, js));
    if (it == js.buckets.end()) return true;
    for (uint32_t row : it->second) {
      w->cells->Set(js.rel, row);
      bool ok;
      if (mode_ == BaselineMode::kInterpreted) {
        // Tuple-at-a-time engines pay an indirect call per operator per
        // tuple; modeled with a std::function boundary.
        ok = probe_indirect_(w, step + 1);
      } else {
        ok = ProbeTuple(w, step + 1);
      }
      if (!ok) return false;
    }
    return true;
  }

  Status ProbePipelined(GroupAccum* out) {
    const std::vector<uint32_t>& base = selections_[base_rel_];
    ThreadPool& pool = ThreadPool::Global();
    const bool parallel = mode_ == BaselineMode::kVectorized;
    const int slots = parallel ? pool.num_threads() + 1 : 1;
    std::vector<Worker> workers(slots);
    std::atomic<bool> overflow{false};
    if (mode_ == BaselineMode::kInterpreted) {
      probe_indirect_ = [this](Worker* w, size_t step) {
        return ProbeTuple(w, step);
      };
    }

    auto body = [&](int slot, int64_t lo, int64_t hi) {
      Worker& w = workers[slot];
      if (w.groups == nullptr) {
        InitWorker(&w);
        w.cap = cap_ / slots + 1;
      }
      // Relaxed (load and store): one-way overflow flag; a worker that
      // misses it probes a few extra tuples into its own capped buffer, and
      // the authoritative read below happens after the ParallelChunks join.
      for (int64_t i = lo;
           i < hi && !overflow.load(std::memory_order_relaxed);  // see above
           ++i) {
        w.cells->Set(base_rel_, base[i]);
        if (!ProbeTuple(&w, 0)) {
          overflow.store(true, std::memory_order_relaxed);  // one-way flag
        }
      }
      if (use_blocks_) FlushBlock(&w);
    };
    if (parallel) {
      pool.ParallelChunks(0, static_cast<int64_t>(base.size()), 4096, body);
    } else {
      body(0, 0, static_cast<int64_t>(base.size()));
    }
    if (overflow.load()) {
      return Status::ExecutionError(
          "out of memory: pairwise intermediate exceeded cap");
    }
    for (Worker& w : workers) {
      if (w.groups != nullptr) out->MergeFrom(*w.groups);
    }
    return Status::OK();
  }

  /// Operator-at-a-time execution: every join fully materializes its
  /// intermediate (row-id columns per bound relation) before the next
  /// operator runs — the column-store execution model.
  Status ProbeMaterialized(GroupAccum* out) {
    std::vector<int> bound = {base_rel_};
    std::vector<std::vector<uint32_t>> inter(1);
    inter[0] = selections_[base_rel_];

    auto index_of = [&](int rel) {
      for (size_t i = 0; i < bound.size(); ++i) {
        if (bound[i] == rel) return static_cast<int>(i);
      }
      LH_CHECK(false) << "relation not bound";
      return -1;
    };

    for (const JoinStep& js : steps_) {
      const int p0 = index_of(js.probe_rel0);
      const auto& probe0_codes =
          q_.relations[js.probe_rel0].table->column(js.probe_col0).codes;
      const std::vector<uint32_t>* probe1_codes = nullptr;
      int p1 = -1;
      if (js.probe_rel1 >= 0) {
        p1 = index_of(js.probe_rel1);
        probe1_codes =
            &q_.relations[js.probe_rel1].table->column(js.probe_col1).codes;
      }
      std::vector<std::vector<uint32_t>> next(bound.size() + 1);
      const size_t n = inter[0].size();
      for (size_t i = 0; i < n; ++i) {
        const uint64_t key = PackKey(
            probe0_codes[inter[p0][i]],
            probe1_codes != nullptr ? (*probe1_codes)[inter[p1][i]] : 0);
        auto it = js.buckets.find(key);
        if (it == js.buckets.end()) continue;
        for (uint32_t row : it->second) {
          for (size_t c = 0; c < bound.size(); ++c) {
            next[c].push_back(inter[c][i]);
          }
          next.back().push_back(row);
          if (next.back().size() > cap_) {
            return Status::ExecutionError(
                "out of memory: pairwise intermediate exceeded cap");
          }
        }
      }
      inter = std::move(next);
      bound.push_back(js.rel);
    }

    // Aggregation pass over the final materialized join.
    Worker w;
    InitWorker(&w);
    const size_t n = inter.empty() ? 0 : inter[0].size();
    for (size_t i = 0; i < n; ++i) {
      for (size_t c = 0; c < bound.size(); ++c) {
        w.cells->Set(bound[c], inter[c][i]);
      }
      AggregateTuple(&w);
    }
    out->MergeFrom(*w.groups);
    return Status::OK();
  }

  /// One GROUP BY dimension's vector evaluation path.
  struct DimVecSpec {
    enum class Kind : uint8_t { kIntCol, kCodeCol, kProgram };
    Kind kind = Kind::kProgram;
    int rel = -1;
    const int64_t* ints = nullptr;
    const uint32_t* codes = nullptr;
    DimKind out = DimKind::kReal;
  };

  static constexpr size_t kBlockRows = 2048;

  /// Compiles aggregate arguments and dimensions to block programs; any
  /// failure keeps the tuple-at-a-time fallback.
  void SetupBlocks() {
    agg_progs_.resize(plan_.aggs.size());
    agg_has_prog_.assign(plan_.aggs.size(), 0);
    for (size_t i = 0; i < plan_.aggs.size(); ++i) {
      if (plan_.aggs[i].arg == nullptr) continue;  // COUNT(*)
      auto prog = BlockProgram::Compile(*plan_.aggs[i].arg, q_);
      if (!prog.ok()) return;
      agg_progs_[i] = prog.TakeValue();
      agg_has_prog_[i] = 1;
    }
    dim_specs_.resize(plan_.dims.size());
    dim_progs_.resize(plan_.dims.size());
    for (size_t d = 0; d < plan_.dims.size(); ++d) {
      const Expr& e = *plan_.dims[d].expr;
      DimVecSpec& spec = dim_specs_[d];
      spec.out = dim_infos_[d].kind;
      if (e.kind == Expr::Kind::kColumnRef) {
        const ColumnData& c =
            q_.relations[e.bound_rel].table->column(e.bound_col);
        spec.rel = e.bound_rel;
        if (!c.codes.empty() && c.dict != nullptr &&
            c.dict->type() == ValueType::kString) {
          spec.kind = DimVecSpec::Kind::kCodeCol;
          spec.codes = c.codes.data();
          continue;
        }
        if (!c.ints.empty()) {
          spec.kind = DimVecSpec::Kind::kIntCol;
          spec.ints = c.ints.data();
          continue;
        }
      }
      auto prog = BlockProgram::Compile(e, q_);
      if (!prog.ok()) return;
      spec.kind = DimVecSpec::Kind::kProgram;
      dim_progs_[d] = prog.TakeValue();
    }
    use_blocks_ = true;
  }

  /// Appends the current tuple (w->cells rows) to the worker's block,
  /// flushing when full.
  void EmitToBlock(Worker* w) const {
    for (size_t r = 0; r < q_.relations.size(); ++r) {
      w->block.rows[r].push_back(w->cells->row(static_cast<int>(r)));
    }
    if (++w->block.n >= kBlockRows) FlushBlock(w);
  }

  /// Evaluates aggregates and dimensions column-at-a-time over the block,
  /// then folds rows into the worker's group table.
  void FlushBlock(Worker* w) const {
    TupleBlock& b = w->block;
    if (b.n == 0) return;
    const size_t naggs = plan_.aggs.size();
    for (size_t i = 0; i < naggs; ++i) {
      auto& arr = w->agg_arr[i];
      if (arr.size() < b.n) arr.resize(b.n);
      if (agg_has_prog_[i]) {
        w->progs[i].Eval(b, arr.data());
      } else {
        std::fill_n(arr.data(), b.n, 1.0);
      }
    }
    for (size_t d = 0; d < dim_specs_.size(); ++d) {
      auto& arr = w->dim_arr[d];
      if (arr.size() < b.n) arr.resize(b.n);
      const DimVecSpec& spec = dim_specs_[d];
      switch (spec.kind) {
        case DimVecSpec::Kind::kIntCol: {
          const uint32_t* rows = b.rows[spec.rel].data();
          for (size_t i = 0; i < b.n; ++i) {
            arr[i] = static_cast<uint64_t>(spec.ints[rows[i]]);
          }
          break;
        }
        case DimVecSpec::Kind::kCodeCol: {
          const uint32_t* rows = b.rows[spec.rel].data();
          for (size_t i = 0; i < b.n; ++i) arr[i] = spec.codes[rows[i]];
          break;
        }
        case DimVecSpec::Kind::kProgram: {
          if (w->prog_scratch.size() < b.n) w->prog_scratch.resize(b.n);
          w->dim_progs[d].Eval(b, w->prog_scratch.data());
          if (spec.out == DimKind::kReal) {
            for (size_t i = 0; i < b.n; ++i) {
              arr[i] = RealKeyBits(w->prog_scratch[i]);
            }
          } else {
            for (size_t i = 0; i < b.n; ++i) {
              arr[i] = static_cast<uint64_t>(
                  static_cast<int64_t>(w->prog_scratch[i]));
            }
          }
          break;
        }
      }
    }
    for (size_t i = 0; i < b.n; ++i) {
      for (size_t d = 0; d < dim_specs_.size(); ++d) {
        w->key[d] = w->dim_arr[d][i];
      }
      double* acc = plan_.dims.empty()
                        ? w->groups->ScalarGroup()
                        : w->groups->FindOrCreate(w->key.data());
      for (size_t a = 0; a < naggs; ++a) {
        switch (plan_.aggs[a].func) {
          case AggFunc::kMin:
            acc[2 * a] = TotalMin(acc[2 * a], w->agg_arr[a][i]);
            break;
          case AggFunc::kMax:
            acc[2 * a] = TotalMax(acc[2 * a], w->agg_arr[a][i]);
            break;
          case AggFunc::kCount:
            acc[2 * a] += 1;
            break;
          case AggFunc::kAvg:
            acc[2 * a] += w->agg_arr[a][i];
            acc[2 * a + 1] += 1;
            break;
          default:
            acc[2 * a] += w->agg_arr[a][i];
            break;
        }
      }
    }
    b.Clear();
  }

  const PhysicalPlan& plan_;
  const LogicalQuery& q_;
  const Catalog& catalog_;
  BaselineMode mode_;
  uint64_t cap_;
  int base_rel_ = 0;
  bool use_blocks_ = false;
  std::vector<std::vector<uint32_t>> selections_;
  std::vector<JoinStep> steps_;
  std::vector<DimInfo> dim_infos_;
  std::vector<std::pair<int, int>> referenced_cols_;
  std::vector<BlockProgram> agg_progs_;
  std::vector<uint8_t> agg_has_prog_;
  std::vector<DimVecSpec> dim_specs_;
  std::vector<BlockProgram> dim_progs_;
  std::function<bool(Worker*, size_t)> probe_indirect_;
};

}  // namespace

Result<QueryResult> PairwiseEngine::Query(const std::string& sql) {
  if (!catalog_->finalized()) {
    return Status::InvalidArgument("catalog must be finalized");
  }
  LH_ASSIGN_OR_RETURN(SelectStmt stmt, ParseSelect(sql));
  LH_ASSIGN_OR_RETURN(LogicalQuery bound, Bind(std::move(stmt), *catalog_));
  QueryOptions options;
  LH_ASSIGN_OR_RETURN(PhysicalPlan plan,
                      BuildPlan(std::move(bound), *catalog_, options));
  PairwiseRun run(plan, *catalog_, mode_, intermediate_cap_);
  return run.Run();
}

}  // namespace levelheaded
