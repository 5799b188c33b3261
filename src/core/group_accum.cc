#include "core/group_accum.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <memory>

#include "core/cancel.h"
#include "obs/trace.h"
#include "util/logging.h"
#include "util/thread_pool.h"
#include "util/total_order.h"

namespace levelheaded {

uint64_t BitcastDouble(double d) {
  uint64_t u;
  std::memcpy(&u, &d, sizeof(u));
  return u;
}

uint64_t RealKeyBits(double d) {
  if (d != d) return BitcastDouble(std::numeric_limits<double>::quiet_NaN());
  return BitcastDouble(d == 0 ? 0.0 : d);
}

double UnbitcastDouble(uint64_t u) {
  double d;
  std::memcpy(&d, &u, sizeof(d));
  return d;
}

DimInfo ClassifyDim(const GroupDimExec& dim, const PhysicalPlan& plan,
                    const Catalog& catalog, bool join_path) {
  DimInfo info;
  if (join_path && dim.vertex >= 0) {
    info.kind = DimKind::kKeyVertex;
    info.dict = catalog.GetDomain(plan.query.vertices[dim.vertex].domain);
    return info;
  }
  const Expr& e = *dim.expr;
  if (e.kind == Expr::Kind::kColumnRef) {
    const ColumnSpec& spec = plan.query.relations[e.bound_rel]
                                 .table->schema()
                                 .column(e.bound_col);
    switch (spec.type) {
      case ValueType::kString:
        info.kind = DimKind::kStringCode;
        info.dict =
            plan.query.relations[e.bound_rel].table->column(e.bound_col).dict;
        return info;
      case ValueType::kDate:
        info.kind = DimKind::kDate;
        return info;
      case ValueType::kInt32:
      case ValueType::kInt64:
        info.kind = DimKind::kInt;
        return info;
      default:
        info.kind = DimKind::kReal;
        return info;
    }
  }
  if (e.kind == Expr::Kind::kExtractYear) {
    info.kind = DimKind::kInt;
    return info;
  }
  info.kind = DimKind::kReal;
  return info;
}

void InitAccs(const std::vector<AggExec>& aggs, double* acc) {
  const size_t stride = 2 * std::max<size_t>(1, aggs.size());
  for (size_t i = 0; i < stride; ++i) acc[i] = 0.0;
  for (size_t i = 0; i < aggs.size(); ++i) {
    if (aggs[i].func == AggFunc::kMin) {
      // NaN is the top of the total order, so it is MIN's identity.
      acc[2 * i] = std::numeric_limits<double>::quiet_NaN();
    } else if (aggs[i].func == AggFunc::kMax) {
      acc[2 * i] = -std::numeric_limits<double>::infinity();
    }
  }
}

void ApplyDeltas(const std::vector<AggExec>& aggs, double* acc,
                 const double* main_delta, const double* aux_delta) {
  for (size_t i = 0; i < aggs.size(); ++i) {
    switch (aggs[i].func) {
      case AggFunc::kMin:
        acc[2 * i] = TotalMin(acc[2 * i], main_delta[i]);
        break;
      case AggFunc::kMax:
        acc[2 * i] = TotalMax(acc[2 * i], main_delta[i]);
        break;
      default:
        acc[2 * i] += main_delta[i];
        acc[2 * i + 1] += aux_delta[i];
        break;
    }
  }
}

void CombineAccs(const std::vector<AggExec>& aggs, double* acc,
                 const double* oa) {
  for (size_t i = 0; i < aggs.size(); ++i) {
    switch (aggs[i].func) {
      case AggFunc::kMin:
        acc[2 * i] = TotalMin(acc[2 * i], oa[2 * i]);
        break;
      case AggFunc::kMax:
        acc[2 * i] = TotalMax(acc[2 * i], oa[2 * i]);
        break;
      default:
        acc[2 * i] += oa[2 * i];
        acc[2 * i + 1] += oa[2 * i + 1];
        break;
    }
  }
}

GroupAccum::GroupAccum(size_t key_width, const std::vector<AggExec>* aggs)
    : key_width_(key_width),
      stride_(2 * std::max<size_t>(1, aggs->size())),
      aggs_(aggs) {}

double* GroupAccum::FindOrCreate(const uint64_t* key) {
  return acc_mut(FindOrCreateOrdinal(key));
}

uint32_t GroupAccum::FindOrCreateOrdinal(const uint64_t* key) {
  scratch_key_.assign(key, key + key_width_);
  auto [it, inserted] =
      index_.try_emplace(scratch_key_, static_cast<uint32_t>(num_groups()));
  if (inserted) AppendGroup(key);
  return it->second;
}

double* GroupAccum::ScalarGroup() {
  if (scalar_groups_ == 0) AppendGroup(nullptr);
  return accs_.data();
}

double GroupAccum::Finalize(size_t g, size_t slot) const {
  const double* a = accs(g);
  if ((*aggs_)[slot].func == AggFunc::kAvg) {
    return a[2 * slot + 1] == 0 ? 0 : a[2 * slot] / a[2 * slot + 1];
  }
  return a[2 * slot];
}

double* GroupAccum::ResetTo(const uint64_t* key) {
  LH_DCHECK(index_.empty());
  keys_.assign(key, key + key_width_);
  accs_.resize(stride_);
  InitAccs(*aggs_, accs_.data());
  return accs_.data();
}

void GroupAccum::MergeFrom(const GroupAccum& other) {
  for (size_t g = 0; g < other.num_groups(); ++g) {
    double* acc = key_width_ == 0 ? ScalarGroup() : FindOrCreate(other.key(g));
    CombineAccs(*aggs_, acc, other.accs(g));
  }
}

void GroupAccum::AppendGroup(const uint64_t* key) {
  if (key_width_ > 0) {
    keys_.insert(keys_.end(), key, key + key_width_);
  } else {
    ++scalar_groups_;
  }
  const size_t base = accs_.size();
  accs_.resize(base + stride_);
  InitAccs(*aggs_, accs_.data() + base);
}

namespace {

using OutSource = OutColumn::Source;

/// Where dimension `info`'s value comes from; a string dimension is
/// decoded to text unless `keep_encoded`.
OutSource DimSource(const DimInfo& info, bool keep_encoded) {
  switch (info.kind) {
    case DimKind::kKeyVertex:
      if (info.dict->type() != ValueType::kString) return OutSource::kIntCode;
      [[fallthrough]];
    case DimKind::kStringCode:
      return keep_encoded ? OutSource::kStringCode : OutSource::kString;
    case DimKind::kInt:
    case DimKind::kDate:
      return OutSource::kIntWord;
    case DimKind::kReal:
      break;
  }
  return OutSource::kRealWord;
}

/// Resolves output item `out` and types its column.
OutColumn ResolveOutput(const OutputItem& out, const PhysicalPlan& plan,
                        const std::vector<DimInfo>& dim_infos,
                        ResultColumn* col) {
  OutColumn oc;
  col->type = ValueType::kDouble;
  if (out.direct_group_index < 0) {
    if (out.direct_agg_slot >= 0) {
      oc.source = OutSource::kAgg;
      oc.index = static_cast<size_t>(out.direct_agg_slot);
    }
    return oc;
  }
  oc.index = static_cast<size_t>(out.direct_group_index);
  const DimInfo& info = dim_infos[oc.index];
  oc.dict = info.dict;
  oc.source = DimSource(info, plan.options.keep_strings_encoded);
  switch (oc.source) {
    case OutSource::kIntCode:
      col->type = ValueType::kInt64;
      oc.int_values = info.dict->int_values().data();
      break;
    case OutSource::kStringCode:
      col->dict = info.dict;
      [[fallthrough]];
    case OutSource::kString:
      col->type = ValueType::kString;
      break;
    case OutSource::kIntWord:
      col->type =
          info.kind == DimKind::kDate ? ValueType::kDate : ValueType::kInt64;
      break;
    default:
      break;
  }
  return oc;
}

/// Calls fn on the vector of `col` that holds values from `source`.
template <typename Fn>
void WithValues(OutSource source, ResultColumn* col, Fn&& fn) {
  switch (source) {
    case OutSource::kIntCode:
    case OutSource::kIntWord:
      fn(col->ints);
      break;
    case OutSource::kStringCode:
      fn(col->codes);
      break;
    case OutSource::kString:
      fn(col->strs);
      break;
    default:
      fn(col->reals);
      break;
  }
}

/// Appends value(i) for every i < n to `v`.
template <typename T, typename Fn>
void Fill(std::vector<T>* v, size_t n, Fn&& value) {
  const size_t base = v->size();
  v->resize(base + n);
  T* out = v->data() + base;
  for (size_t i = 0; i < n; ++i) out[i] = value(i);
}

/// Appends output column `c` (`oc`) of n groups of `groups` to `col`: the
/// groups rows[0..n), or 0..n-1 when `rows` is null. `programs` evaluates
/// kExpr columns.
void AppendColumn(const OutColumn& oc, size_t c, const GroupAccum& groups,
                  const uint32_t* rows, size_t n, GroupPrograms* programs,
                  ResultColumn* col) {
  const auto g = [&](size_t i) -> size_t {
    return rows != nullptr ? rows[i] : i;
  };
  const auto word = [&](size_t i) { return groups.key(g(i))[oc.index]; };
  const auto code = [&](size_t i) { return static_cast<uint32_t>(word(i)); };
  switch (oc.source) {
    case OutSource::kIntCode:
      Fill(&col->ints, n, [&](size_t i) { return oc.int_values[code(i)]; });
      break;
    case OutSource::kStringCode:
      Fill(&col->codes, n, code);
      break;
    case OutSource::kString:
      Fill(&col->strs, n, [&](size_t i) -> const std::string& {
        return oc.dict->DecodeString(code(i));
      });
      break;
    case OutSource::kIntWord:
      Fill(&col->ints, n,
           [&](size_t i) { return static_cast<int64_t>(word(i)); });
      break;
    case OutSource::kRealWord:
      Fill(&col->reals, n, [&](size_t i) { return UnbitcastDouble(word(i)); });
      break;
    case OutSource::kAgg:
      Fill(&col->reals, n,
           [&](size_t i) { return groups.Finalize(g(i), oc.index); });
      break;
    case OutSource::kExpr:
      Fill(&col->reals, n, [&](size_t i) {
        programs->Load(groups, g(i));
        return programs->Output(c);
      });
      break;
  }
}

/// Runs fn(i) for every i < n: one task each on the global pool when
/// `parallel` (the caller helps while it waits), else in order on the
/// calling thread. Tasks must touch disjoint data.
void ForEachTask(size_t n, bool parallel,
                 const std::function<void(size_t)>& fn) {
  if (!parallel) {
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  ThreadPool& pool = ThreadPool::Global();
  ThreadPool::TaskGroup group(&pool);
  for (size_t i = 0; i < n; ++i) pool.Submit(&group, [&fn, i] { fn(i); });
  group.Wait();
}

/// The relation index of the group columns GroupPrograms read (no query
/// relation has a negative index).
constexpr int kGroupRel = -2;

/// Rewrites `*e` in place: every subtree equal to a GROUP BY dimension,
/// and every aggregate reference, becomes a column reference on kGroupRel
/// (dimension d is column d, slot s column num_dims + s), marked in `read`.
void ToGroupColumns(ExprPtr* e, const PhysicalPlan& plan,
                    std::vector<bool>* read) {
  const Expr& x = **e;
  int column = -1;
  for (size_t d = 0; d < plan.dims.size() && column < 0; ++d) {
    if (ExprEquals(x, *plan.dims[d].expr)) column = static_cast<int>(d);
  }
  if (column < 0 && x.kind == Expr::Kind::kAggRef) {
    column = static_cast<int>(plan.dims.size()) + x.slot_index;
  }
  if (column < 0) {
    for (ExprPtr& c : (*e)->children) {
      if (c != nullptr) ToGroupColumns(&c, plan, read);
    }
    return;
  }
  auto ref = std::make_unique<Expr>(Expr::Kind::kColumnRef);
  ref->name = x.ToString();
  ref->bound_rel = kGroupRel;
  ref->bound_col = column;
  (*read)[column] = true;
  *e = std::move(ref);
}

}  // namespace

Result<GroupPrograms> GroupPrograms::Compile(
    const PhysicalPlan& plan, const std::vector<DimInfo>& dim_infos) {
  const size_t nd = plan.dims.size();
  const size_t columns = nd + plan.aggs.size();
  GroupPrograms p;
  p.dim_infos_ = &dim_infos;
  p.ints_.resize(columns);
  p.reals_.resize(columns);
  p.codes_.resize(columns);
  std::vector<bool> read(columns, false);
  const ColumnResolver resolve = [&](int rel, int c, ColumnSource* out) {
    if (rel != kGroupRel) return false;
    out->ints = p.ints_.data() + c;
    out->reals = p.reals_.data() + c;
    out->codes = p.codes_.data() + c;
    out->type = ColumnSource::Type::kReal;  // aggregates and real words
    if (static_cast<size_t>(c) >= nd) return true;
    switch (DimSource(dim_infos[c], /*keep_encoded=*/true)) {
      case OutSource::kIntCode:
      case OutSource::kIntWord:
        out->type = ColumnSource::Type::kInt;
        break;
      case OutSource::kStringCode:
        out->type = ColumnSource::Type::kString;
        out->dict = dim_infos[c].dict;
        break;
      default:
        break;
    }
    return true;
  };
  auto compile = [&](const Expr& e, ExprProgram* out) {
    ExprPtr x = e.Clone();
    ToGroupColumns(&x, plan, &read);
    return ExprProgram::Compile(*x, resolve, out);
  };
  if (plan.query.having != nullptr) {
    LH_RETURN_NOT_OK(compile(*plan.query.having, &p.having_.emplace()));
  }
  p.outputs_.resize(plan.query.outputs.size());
  for (size_t i = 0; i < p.outputs_.size(); ++i) {
    const OutputItem& out = plan.query.outputs[i];
    if (out.direct_group_index >= 0 || out.direct_agg_slot >= 0) continue;
    LH_RETURN_NOT_OK(compile(*out.expr, &p.outputs_[i]));
  }
  for (uint32_t c = 0; c < columns; ++c) {
    if (read[c]) p.read_.push_back(c);
  }
  return p;
}

void GroupPrograms::Load(const GroupAccum& groups, size_t g) {
  const size_t nd = dim_infos_->size();
  for (uint32_t c : read_) {
    if (c >= nd) {
      reals_[c] = groups.Finalize(g, c - nd);
      continue;
    }
    const uint64_t word = groups.key(g)[c];
    const DimInfo& info = (*dim_infos_)[c];
    switch (DimSource(info, /*keep_encoded=*/true)) {
      case OutSource::kIntCode:
        ints_[c] = info.dict->DecodeInt(static_cast<uint32_t>(word));
        break;
      case OutSource::kStringCode:
        codes_[c] = static_cast<uint32_t>(word);
        break;
      case OutSource::kIntWord:
        ints_[c] = static_cast<int64_t>(word);
        break;
      default:
        reals_[c] = UnbitcastDouble(word);
        break;
    }
  }
}

bool GroupPrograms::Keep() const {
  const uint32_t row = 0;
  return !having_.has_value() || having_->EvalAt(&row) != 0;
}

double GroupPrograms::Output(size_t i) const {
  const uint32_t row = 0;
  return outputs_[i].EvalAt(&row);
}

Result<QueryResult> MaterializeGroups(const PhysicalPlan& plan,
                                      const GroupAccum& groups,
                                      const std::vector<DimInfo>& dim_infos,
                                      const QueryGuard* guard) {
  LH_ASSIGN_OR_RETURN(GroupPrograms programs,
                      GroupPrograms::Compile(plan, dim_infos));
  std::vector<uint32_t> keep;
  const bool having = plan.query.having != nullptr;
  if (having) {
    for (size_t g = 0; g < groups.num_groups(); ++g) {
      programs.Load(groups, g);
      if (programs.Keep()) keep.push_back(static_cast<uint32_t>(g));
    }
  }
  const size_t total = having ? keep.size() : groups.num_groups();
  // The row bound, before a single output byte is allocated.
  if (guard != nullptr) LH_RETURN_NOT_OK(guard->CheckRows(total));

  QueryResult result;
  result.num_rows = total;
  for (size_t c = 0; c < plan.query.outputs.size(); ++c) {
    ResultColumn col;
    col.name = plan.query.outputs[c].name;
    const OutColumn oc =
        ResolveOutput(plan.query.outputs[c], plan, dim_infos, &col);
    AppendColumn(oc, c, groups, having ? keep.data() : nullptr, total,
                 &programs, &col);
    result.columns.push_back(std::move(col));
  }
  return result;
}

// ---------------------------------------------------------------------------
// Append mode.

RowLayout::RowLayout(const PhysicalPlan& plan_in,
                     const std::vector<DimInfo>& dim_infos_in)
    : plan(plan_in),
      dim_infos(dim_infos_in),
      programs_status(GroupPrograms::Compile(plan_in, dim_infos_in).status()) {
  direct = plan.query.having == nullptr;
  for (const OutputItem& out : plan.query.outputs) {
    ResultColumn typed;
    OutColumn oc = ResolveOutput(out, plan, dim_infos, &typed);
    if (oc.source == OutSource::kString) oc.source = OutSource::kStringCode;
    LH_CHECK(oc.source != OutSource::kIntWord &&
             oc.source != OutSource::kRealWord)
        << "append mode groups by key vertices only";
    if (oc.source == OutSource::kExpr) direct = false;
    columns.push_back(oc);
  }
}

RowChunk::RowChunk(const RowLayout* layout)
    : layout_(layout),
      cols_(layout->columns.size()),
      open_(layout->dim_infos.size(), &layout->plan.aggs) {}

void RowChunk::Reserve(size_t rows) {
  for (size_t c = 0; c < cols_.size(); ++c) {
    WithValues(layout_->columns[c].source, &cols_[c],
               [rows](auto& v) { v.reserve(rows); });
  }
}

double* RowChunk::Group(const uint64_t* key) {
  if (is_open_ && std::memcmp(open_.key(0), key,
                              layout_->dim_infos.size() *
                                  sizeof(uint64_t)) == 0) {
    return open_.acc_mut(0);
  }
  Close();
  is_open_ = true;
  return open_.ResetTo(key);
}

void RowChunk::Close() {
  if (!is_open_) return;
  is_open_ = false;
  if (!layout_->direct) {
    if (!programs_.has_value()) {
      // The layout compiled the same expressions: this cannot fail.
      auto p = GroupPrograms::Compile(layout_->plan, layout_->dim_infos);
      LH_CHECK(p.ok()) << p.status().ToString();
      programs_.emplace(p.TakeValue());
    }
    programs_->Load(open_, 0);
    if (!programs_->Keep()) return;
  }
  for (size_t c = 0; c < cols_.size(); ++c) {
    AppendColumn(layout_->columns[c], c, open_, nullptr, 1,
                 programs_.has_value() ? &*programs_ : nullptr, &cols_[c]);
  }
  ++num_rows_;
}

void RowChunk::Append(const RowChunk& next) {
  LH_DCHECK(!is_open_ && !next.is_open_);
  for (size_t c = 0; c < cols_.size(); ++c) {
    auto append = [](auto& to, const auto& from) {
      to.insert(to.end(), from.begin(), from.end());
    };
    append(cols_[c].ints, next.cols_[c].ints);
    append(cols_[c].codes, next.cols_[c].codes);
    append(cols_[c].reals, next.cols_[c].reals);
  }
  num_rows_ += next.num_rows_;
}

void RowChunk::CombineOpen(const RowChunk& next) {
  LH_DCHECK(next.num_rows_ == 0);
  if (!next.is_open_) return;
  if (!is_open_) {
    // Adopted as it is: a group's first partial accumulator is copied,
    // not combined into an identity.
    is_open_ = true;
    open_.ResetTo(next.open_.key(0));
    std::memcpy(open_.acc_mut(0), next.open_.accs(0),
                2 * std::max<size_t>(1, layout_->plan.aggs.size()) *
                    sizeof(double));
    return;
  }
  LH_DCHECK(std::memcmp(open_.key(0), next.open_.key(0),
                        layout_->dim_infos.size() * sizeof(uint64_t)) == 0);
  CombineAccs(layout_->plan.aggs, open_.acc_mut(0), next.open_.accs(0));
}

void RowChunk::WriteRun(const uint64_t* key, int pos, const uint32_t* values,
                        size_t n, const double* accs, size_t stride) {
  LH_DCHECK(layout_->direct && !is_open_);
  const std::vector<AggExec>& aggs = layout_->plan.aggs;
  const size_t base = num_rows_;
  for (size_t c = 0; c < cols_.size(); ++c) {
    const OutColumn& col = layout_->columns[c];
    const bool varies = (col.source == OutSource::kIntCode ||
                         col.source == OutSource::kStringCode) &&
                        layout_->dim_infos[col.index].vertex_pos == pos;
    switch (col.source) {
      case OutSource::kIntCode: {
        cols_[c].ints.resize(base + n);
        int64_t* out = cols_[c].ints.data() + base;
        if (varies) {
          for (size_t i = 0; i < n; ++i) out[i] = col.int_values[values[i]];
        } else {
          std::fill(out, out + n, col.int_values[key[col.index]]);
        }
        break;
      }
      case OutSource::kStringCode: {
        cols_[c].codes.resize(base + n);
        uint32_t* out = cols_[c].codes.data() + base;
        if (varies) {
          std::copy(values, values + n, out);
        } else {
          std::fill(out, out + n, static_cast<uint32_t>(key[col.index]));
        }
        break;
      }
      case OutSource::kAgg: {
        cols_[c].reals.resize(base + n);
        double* out = cols_[c].reals.data() + base;
        const size_t s = col.index;
        auto row = [&](size_t i) {
          return accs + static_cast<size_t>(values[i]) * stride;
        };
        // The identity combined with the row, then finalized: the same
        // ops, in the same order, as a fresh group's CombineAccs.
        switch (aggs[s].func) {
          case AggFunc::kMin:
            for (size_t i = 0; i < n; ++i) {
              out[i] = TotalMin(std::numeric_limits<double>::quiet_NaN(),
                                row(i)[2 * s]);
            }
            break;
          case AggFunc::kMax:
            for (size_t i = 0; i < n; ++i) {
              out[i] = TotalMax(-std::numeric_limits<double>::infinity(),
                                row(i)[2 * s]);
            }
            break;
          case AggFunc::kAvg:
            for (size_t i = 0; i < n; ++i) {
              const double aux = 0.0 + row(i)[2 * s + 1];
              out[i] = aux == 0 ? 0 : (0.0 + row(i)[2 * s]) / aux;
            }
            break;
          default:
            for (size_t i = 0; i < n; ++i) out[i] = 0.0 + row(i)[2 * s];
            break;
        }
        break;
      }
      default:
        LH_CHECK(false) << "bulk row writer on a non-direct layout";
        break;
    }
  }
  num_rows_ += n;
}

Result<QueryResult> ConcatRows(const RowLayout& layout,
                               const std::vector<const RowChunk*>& chunks,
                               const QueryGuard* guard, obs::TraceSpan* span) {
  const size_t nc = chunks.size();
  std::vector<size_t> offset(nc);
  size_t total = 0;
  for (size_t i = 0; i < nc; ++i) {
    offset[i] = total;
    total += chunks[i]->num_rows();
  }
  // The row bound, before a single output byte is allocated.
  if (guard != nullptr) LH_RETURN_NOT_OK(guard->CheckRows(total));

  QueryResult result;
  result.num_rows = total;
  std::vector<OutColumn> outs;
  for (const OutputItem& out : layout.plan.query.outputs) {
    ResultColumn col;
    col.name = out.name;
    outs.push_back(ResolveOutput(out, layout.plan, layout.dim_infos, &col));
    result.columns.push_back(std::move(col));
  }
  // Sizing zero-fills fresh pages, which on a large result costs about as
  // much as the copy, so a parallel concat sizes its columns as tasks too.
  const bool parallel = total >= kParallelConcatRows && nc > 1;
  ForEachTask(outs.size(), parallel, [&](size_t c) {
    WithValues(outs[c].source, &result.columns[c],
               [total](auto& v) { v.resize(total); });
  });
  ForEachTask(nc, parallel, [&](size_t i) {
    const RowChunk& chunk = *chunks[i];
    for (size_t c = 0; c < outs.size(); ++c) {
      const ResultColumn& from = chunk.columns()[c];
      ResultColumn& to = result.columns[c];
      const size_t at = offset[i];
      switch (outs[c].source) {
        case OutSource::kIntCode:
          std::copy(from.ints.begin(), from.ints.end(), to.ints.begin() + at);
          break;
        case OutSource::kStringCode:
          std::copy(from.codes.begin(), from.codes.end(),
                    to.codes.begin() + at);
          break;
        case OutSource::kString:
          for (size_t r = 0; r < from.codes.size(); ++r) {
            to.strs[at + r] = outs[c].dict->DecodeString(from.codes[r]);
          }
          break;
        default:
          std::copy(from.reals.begin(), from.reals.end(),
                    to.reals.begin() + at);
          break;
      }
    }
  });
  if (span != nullptr) {
    span->AddMetric("chunks", static_cast<double>(nc));
    span->AddMetric("parallel", parallel ? 1 : 0);
  }
  return result;
}

void ApplyOrderAndLimit(const LogicalQuery& query, QueryResult* result) {
  if (!query.order_by.empty() && result->num_rows > 1) {
    std::vector<size_t> order(result->num_rows);
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      for (const auto& [col_idx, desc] : query.order_by) {
        const ResultColumn& c = result->columns[col_idx];
        int cmp = 0;
        if (!c.ints.empty()) {
          cmp = c.ints[a] < c.ints[b] ? -1 : (c.ints[a] > c.ints[b] ? 1 : 0);
        } else if (!c.reals.empty()) {
          cmp = TotalCompare(c.reals[a], c.reals[b]);
        } else if (!c.strs.empty()) {
          const int sc = c.strs[a].compare(c.strs[b]);
          cmp = sc < 0 ? -1 : (sc > 0 ? 1 : 0);
        } else if (!c.codes.empty()) {
          // Order-preserving dictionary codes sort like their strings.
          cmp = c.codes[a] < c.codes[b] ? -1
                                        : (c.codes[a] > c.codes[b] ? 1 : 0);
        }
        if (cmp != 0) return desc ? cmp > 0 : cmp < 0;
      }
      return false;
    });
    for (ResultColumn& c : result->columns) {
      auto permute = [&](auto& vec) {
        if (vec.empty()) return;
        std::remove_reference_t<decltype(vec)> tmp(vec.size());
        for (size_t i = 0; i < order.size(); ++i) tmp[i] = vec[order[i]];
        vec = std::move(tmp);
      };
      permute(c.ints);
      permute(c.reals);
      permute(c.strs);
      permute(c.codes);
    }
  }
  if (query.limit >= 0 &&
      result->num_rows > static_cast<size_t>(query.limit)) {
    const size_t keep = static_cast<size_t>(query.limit);
    for (ResultColumn& c : result->columns) {
      if (!c.ints.empty()) c.ints.resize(keep);
      if (!c.reals.empty()) c.reals.resize(keep);
      if (!c.strs.empty()) c.strs.resize(keep);
      if (!c.codes.empty()) c.codes.resize(keep);
    }
    result->num_rows = keep;
  }
}

}  // namespace levelheaded
