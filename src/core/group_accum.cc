#include "core/group_accum.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <memory>

#include "core/cancel.h"
#include "core/expr_eval.h"
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
/// Resolves `e` to a string when it is a string literal or a string-valued
/// group dimension of group `g`.
bool GroupStringOf(const Expr& e, const PhysicalPlan& plan,
                   const GroupAccum& groups,
                   const std::vector<DimInfo>& dim_infos, size_t g,
                   std::string* out) {
  if (e.kind == Expr::Kind::kStringLiteral) {
    *out = e.str_value;
    return true;
  }
  for (size_t d = 0; d < plan.dims.size(); ++d) {
    if (!ExprEquals(e, *plan.dims[d].expr)) continue;
    const DimInfo& info = dim_infos[d];
    const bool stringy =
        info.kind == DimKind::kStringCode ||
        (info.kind == DimKind::kKeyVertex && info.dict != nullptr &&
         info.dict->type() == ValueType::kString);
    if (!stringy) return false;
    *out = info.dict->DecodeString(static_cast<uint32_t>(groups.key(g)[d]));
    return true;
  }
  return false;
}
}  // namespace

double EvalOutputExpr(const Expr& e, const PhysicalPlan& plan,
                      const GroupAccum& groups,
                      const std::vector<DimInfo>& dim_infos, size_t g) {
  for (size_t d = 0; d < plan.dims.size(); ++d) {
    if (ExprEquals(e, *plan.dims[d].expr)) {
      const uint64_t enc = groups.key(g)[d];
      switch (dim_infos[d].kind) {
        case DimKind::kKeyVertex:
          return static_cast<double>(
              dim_infos[d].dict->DecodeInt(static_cast<uint32_t>(enc)));
        case DimKind::kStringCode:
          LH_CHECK(false) << "string dimension used in arithmetic";
          return 0;
        case DimKind::kInt:
        case DimKind::kDate:
          return static_cast<double>(static_cast<int64_t>(enc));
        case DimKind::kReal:
          return UnbitcastDouble(enc);
      }
    }
  }
  switch (e.kind) {
    case Expr::Kind::kAggRef:
      return groups.Finalize(g, e.slot_index);
    case Expr::Kind::kIntLiteral:
    case Expr::Kind::kDateLiteral:
    case Expr::Kind::kIntervalLiteral:
      return static_cast<double>(e.int_value);
    case Expr::Kind::kRealLiteral:
      return e.real_value;
    case Expr::Kind::kUnaryMinus:
      return -EvalOutputExpr(*e.children[0], plan, groups, dim_infos, g);
    case Expr::Kind::kNot:
      return EvalOutputExpr(*e.children[0], plan, groups, dim_infos, g) != 0
                 ? 0
                 : 1;
    case Expr::Kind::kBetween: {
      const double v =
          EvalOutputExpr(*e.children[0], plan, groups, dim_infos, g);
      return TotalLessEqual(EvalOutputExpr(*e.children[1], plan, groups,
                                           dim_infos, g),
                            v) &&
                     TotalLessEqual(v, EvalOutputExpr(*e.children[2], plan,
                                                      groups, dim_infos, g))
                 ? 1
                 : 0;
    }
    case Expr::Kind::kBinary: {
      // String comparisons: a string group dimension against a literal.
      if (e.bin_op == BinOp::kEq || e.bin_op == BinOp::kNe) {
        std::string ls, rs;
        if (GroupStringOf(*e.children[0], plan, groups, dim_infos, g, &ls) &&
            GroupStringOf(*e.children[1], plan, groups, dim_infos, g, &rs)) {
          const bool eq = ls == rs;
          return (e.bin_op == BinOp::kEq) == eq ? 1 : 0;
        }
      }
      const double l =
          EvalOutputExpr(*e.children[0], plan, groups, dim_infos, g);
      const double r =
          EvalOutputExpr(*e.children[1], plan, groups, dim_infos, g);
      switch (e.bin_op) {
        case BinOp::kAdd:
          return l + r;
        case BinOp::kSub:
          return l - r;
        case BinOp::kMul:
          return l * r;
        case BinOp::kDiv:
          return l / r;
        case BinOp::kEq:
          return TotalEqual(l, r) ? 1 : 0;
        case BinOp::kNe:
          return TotalEqual(l, r) ? 0 : 1;
        case BinOp::kLt:
          return TotalLess(l, r) ? 1 : 0;
        case BinOp::kLe:
          return TotalLessEqual(l, r) ? 1 : 0;
        case BinOp::kGt:
          return TotalLess(r, l) ? 1 : 0;
        case BinOp::kGe:
          return TotalLessEqual(r, l) ? 1 : 0;
        case BinOp::kAnd:
          return (l != 0 && r != 0) ? 1 : 0;
        case BinOp::kOr:
          return (l != 0 || r != 0) ? 1 : 0;
      }
      LH_CHECK(false) << "unsupported output operator";
      return 0;
    }
    default:
      LH_CHECK(false) << "unsupported output expression " << e.ToString();
      return 0;
  }
}

bool EvalHaving(const Expr& e, const PhysicalPlan& plan,
                const GroupAccum& groups,
                const std::vector<DimInfo>& dim_infos, size_t g) {
  return EvalOutputExpr(e, plan, groups, dim_infos, g) != 0;
}

namespace {

/// Where one output column's values come from, resolved once per query so
/// the decode loops switch per column rather than per row.
enum class OutSource : uint8_t {
  kIntCode,     // key vertex over an integer domain (dictionary decode)
  kStringCode,  // string dictionary code, kept encoded
  kString,      // string dictionary code, decoded to text
  kIntWord,     // integer or date key word
  kRealWord,    // bit-cast double key word
  kAgg,         // finalized aggregate slot
  kExpr,        // post-aggregation output expression
};

struct OutColumn {
  OutSource source = OutSource::kExpr;
  size_t index = 0;  // group dimension or aggregate slot
  const Dictionary* dict = nullptr;
  const Expr* expr = nullptr;
};

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
    } else {
      oc.expr = out.expr.get();
    }
    return oc;
  }
  oc.index = static_cast<size_t>(out.direct_group_index);
  const DimInfo& info = dim_infos[oc.index];
  oc.dict = info.dict;
  switch (info.kind) {
    case DimKind::kKeyVertex:
      if (info.dict->type() != ValueType::kString) {
        col->type = ValueType::kInt64;
        oc.source = OutSource::kIntCode;
        break;
      }
      [[fallthrough]];
    case DimKind::kStringCode:
      col->type = ValueType::kString;
      if (plan.options.keep_strings_encoded) {
        col->dict = info.dict;
        oc.source = OutSource::kStringCode;
      } else {
        oc.source = OutSource::kString;
      }
      break;
    case DimKind::kInt:
    case DimKind::kDate:
      col->type =
          info.kind == DimKind::kDate ? ValueType::kDate : ValueType::kInt64;
      oc.source = OutSource::kIntWord;
      break;
    case DimKind::kReal:
      oc.source = OutSource::kRealWord;
      break;
  }
  return oc;
}

void SizeColumn(OutSource source, size_t n, ResultColumn* col) {
  switch (source) {
    case OutSource::kIntCode:
    case OutSource::kIntWord:
      col->ints.resize(n);
      break;
    case OutSource::kStringCode:
      col->codes.resize(n);
      break;
    case OutSource::kString:
      col->strs.resize(n);
      break;
    default:
      col->reals.resize(n);
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

}  // namespace

Result<QueryResult> MaterializeGroups(const PhysicalPlan& plan,
                                      const GroupAccum& groups,
                                      const std::vector<DimInfo>& dim_infos,
                                      const QueryGuard* guard) {
  std::vector<uint32_t> keep;
  const Expr* having = plan.query.having.get();
  if (having != nullptr) {
    for (size_t g = 0; g < groups.num_groups(); ++g) {
      if (EvalHaving(*having, plan, groups, dim_infos, g)) {
        keep.push_back(static_cast<uint32_t>(g));
      }
    }
  }
  const size_t total = having != nullptr ? keep.size() : groups.num_groups();
  // The row bound, before a single output byte is allocated.
  if (guard != nullptr) LH_RETURN_NOT_OK(guard->CheckRows(total));

  QueryResult result;
  result.num_rows = total;
  auto for_rows = [&](auto&& emit) {
    if (having != nullptr) {
      for (size_t r = 0; r < total; ++r) emit(r, keep[r]);
    } else {
      for (size_t g = 0; g < total; ++g) emit(g, g);
    }
  };
  for (const OutputItem& out : plan.query.outputs) {
    ResultColumn col;
    col.name = out.name;
    const OutColumn oc = ResolveOutput(out, plan, dim_infos, &col);
    SizeColumn(oc.source, total, &col);
    auto code = [&](size_t g) {
      return static_cast<uint32_t>(groups.key(g)[oc.index]);
    };
    switch (oc.source) {
      case OutSource::kIntCode:
        for_rows([&](size_t r, size_t g) {
          col.ints[r] = oc.dict->DecodeInt(code(g));
        });
        break;
      case OutSource::kStringCode:
        for_rows([&](size_t r, size_t g) { col.codes[r] = code(g); });
        break;
      case OutSource::kString:
        for_rows([&](size_t r, size_t g) {
          col.strs[r] = oc.dict->DecodeString(code(g));
        });
        break;
      case OutSource::kIntWord:
        for_rows([&](size_t r, size_t g) {
          col.ints[r] = static_cast<int64_t>(groups.key(g)[oc.index]);
        });
        break;
      case OutSource::kRealWord:
        for_rows([&](size_t r, size_t g) {
          col.reals[r] = UnbitcastDouble(groups.key(g)[oc.index]);
        });
        break;
      case OutSource::kAgg:
        for_rows([&](size_t r, size_t g) {
          col.reals[r] = groups.Finalize(g, oc.index);
        });
        break;
      case OutSource::kExpr:
        for_rows([&](size_t r, size_t g) {
          col.reals[r] = EvalOutputExpr(*oc.expr, plan, groups, dim_infos, g);
        });
        break;
    }
    result.columns.push_back(std::move(col));
  }
  return result;
}

// ---------------------------------------------------------------------------
// Append mode.

RowLayout::RowLayout(const PhysicalPlan& plan_in,
                     const std::vector<DimInfo>& dim_infos_in)
    : plan(plan_in), dim_infos(dim_infos_in) {
  direct = plan.query.having == nullptr;
  for (const OutputItem& out : plan.query.outputs) {
    ResultColumn typed;
    const OutColumn oc = ResolveOutput(out, plan, dim_infos, &typed);
    Column col;
    col.index = oc.index;
    col.expr = oc.expr;
    switch (oc.source) {
      case OutSource::kIntCode:
        col.kind = Column::Kind::kInt;
        col.int_values = oc.dict->int_values().data();
        break;
      case OutSource::kStringCode:
      case OutSource::kString:
        col.kind = Column::Kind::kCode;
        break;
      case OutSource::kAgg:
        col.kind = Column::Kind::kAgg;
        break;
      case OutSource::kExpr:
        col.kind = Column::Kind::kExpr;
        direct = false;
        break;
      case OutSource::kIntWord:
      case OutSource::kRealWord:
        LH_CHECK(false) << "append mode groups by key vertices only";
        break;
    }
    columns.push_back(col);
  }
}

RowChunk::RowChunk(const RowLayout* layout)
    : layout_(layout),
      cols_(layout->columns.size()),
      open_(layout->dim_infos.size(), &layout->plan.aggs) {}

void RowChunk::Reserve(size_t rows) {
  for (size_t c = 0; c < cols_.size(); ++c) {
    switch (layout_->columns[c].kind) {
      case RowLayout::Column::Kind::kInt:
        cols_[c].ints.reserve(rows);
        break;
      case RowLayout::Column::Kind::kCode:
        cols_[c].codes.reserve(rows);
        break;
      default:
        cols_[c].reals.reserve(rows);
        break;
    }
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
  const PhysicalPlan& plan = layout_->plan;
  if (plan.query.having != nullptr &&
      !EvalHaving(*plan.query.having, plan, open_, layout_->dim_infos, 0)) {
    return;
  }
  const uint64_t* key = open_.key(0);
  for (size_t c = 0; c < cols_.size(); ++c) {
    const RowLayout::Column& col = layout_->columns[c];
    switch (col.kind) {
      case RowLayout::Column::Kind::kInt:
        cols_[c].ints.push_back(col.int_values[key[col.index]]);
        break;
      case RowLayout::Column::Kind::kCode:
        cols_[c].codes.push_back(static_cast<uint32_t>(key[col.index]));
        break;
      case RowLayout::Column::Kind::kAgg:
        cols_[c].reals.push_back(open_.Finalize(0, col.index));
        break;
      case RowLayout::Column::Kind::kExpr:
        cols_[c].reals.push_back(
            EvalOutputExpr(*col.expr, plan, open_, layout_->dim_infos, 0));
        break;
    }
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
    const RowLayout::Column& col = layout_->columns[c];
    const bool varies = (col.kind == RowLayout::Column::Kind::kInt ||
                         col.kind == RowLayout::Column::Kind::kCode) &&
                        layout_->dim_infos[col.index].vertex_pos == pos;
    switch (col.kind) {
      case RowLayout::Column::Kind::kInt: {
        cols_[c].ints.resize(base + n);
        int64_t* out = cols_[c].ints.data() + base;
        if (varies) {
          for (size_t i = 0; i < n; ++i) out[i] = col.int_values[values[i]];
        } else {
          std::fill(out, out + n, col.int_values[key[col.index]]);
        }
        break;
      }
      case RowLayout::Column::Kind::kCode: {
        cols_[c].codes.resize(base + n);
        uint32_t* out = cols_[c].codes.data() + base;
        if (varies) {
          std::copy(values, values + n, out);
        } else {
          std::fill(out, out + n, static_cast<uint32_t>(key[col.index]));
        }
        break;
      }
      case RowLayout::Column::Kind::kAgg: {
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
      case RowLayout::Column::Kind::kExpr:
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
    SizeColumn(outs[c].source, total, &result.columns[c]);
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
