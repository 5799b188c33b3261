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

double* GroupAccum::AppendOrLast(const uint64_t* key) {
  const size_t n = num_groups();
  if (n > 0 && std::memcmp(keys_.data() + (n - 1) * key_width_, key,
                           key_width_ * sizeof(uint64_t)) == 0) {
    return accs_.data() + (n - 1) * stride_;
  }
  AppendGroup(key);
  return accs_.data() + (num_groups() - 1) * stride_;
}

double* GroupAccum::ScalarGroup() {
  if (scalar_groups_ == 0) AppendGroup(nullptr);
  return accs_.data();
}

void GroupAccum::Apply(double* acc, const double* main_delta,
                       const double* aux_delta) const {
  for (size_t i = 0; i < aggs_->size(); ++i) {
    switch ((*aggs_)[i].func) {
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

double GroupAccum::Finalize(size_t g, size_t slot) const {
  const double* a = accs(g);
  if ((*aggs_)[slot].func == AggFunc::kAvg) {
    return a[2 * slot + 1] == 0 ? 0 : a[2 * slot] / a[2 * slot + 1];
  }
  return a[2 * slot];
}

void GroupAccum::MergeFrom(const GroupAccum& other) {
  for (size_t g = 0; g < other.num_groups(); ++g) {
    double* acc = key_width_ == 0 ? ScalarGroup() : FindOrCreate(other.key(g));
    CombineInto(acc, other.accs(g));
  }
}

void GroupAccum::ConcatFrom(const GroupAccum& other) {
  const size_t start =
      num_groups() > 0 && other.num_groups() > 0 &&
              CombineBoundary(num_groups() - 1, other)
          ? 1
          : 0;
  for (size_t g = start; g < other.num_groups(); ++g) {
    AppendGroup(other.key(g));
    std::memcpy(accs_.data() + (num_groups() - 1) * stride_, other.accs(g),
                stride_ * sizeof(double));
  }
}

bool GroupAccum::CombineBoundary(size_t g, const GroupAccum& next) {
  if (std::memcmp(key(g), next.key(0), key_width_ * sizeof(uint64_t)) != 0) {
    return false;
  }
  CombineInto(acc_mut(g), next.accs(0));
  return true;
}

void GroupAccum::AppendRun(uint64_t* key, const std::vector<size_t>& patch,
                           const uint32_t* values, size_t n,
                           const double* rows) {
  if (n == 0) return;
  size_t i = 0;
  for (size_t d : patch) key[d] = values[0];
  const size_t last = num_groups();
  if (last > 0 && std::memcmp(this->key(last - 1), key,
                              key_width_ * sizeof(uint64_t)) == 0) {
    CombineInto(acc_mut(last - 1),
                rows + static_cast<size_t>(values[0]) * stride_);
    i = 1;
  }
  // One resize per run: vector growth is geometric, so the table reserves
  // ahead of later runs instead of growing group by group.
  keys_.resize(keys_.size() + (n - i) * key_width_);
  accs_.resize(accs_.size() + (n - i) * stride_);
  uint64_t* kout = keys_.data() + last * key_width_;
  double* aout = accs_.data() + last * stride_;
  for (; i < n; ++i) {
    for (size_t d : patch) key[d] = values[i];
    std::memcpy(kout, key, key_width_ * sizeof(uint64_t));
    InitAccs(aout);
    CombineInto(aout, rows + static_cast<size_t>(values[i]) * stride_);
    kout += key_width_;
    aout += stride_;
  }
}

void GroupAccum::CombineInto(double* acc, const double* oa) const {
  for (size_t i = 0; i < aggs_->size(); ++i) {
    switch ((*aggs_)[i].func) {
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

void GroupAccum::InitAccs(double* acc) const {
  for (size_t i = 0; i < stride_; ++i) acc[i] = 0.0;
  for (size_t i = 0; i < aggs_->size(); ++i) {
    if ((*aggs_)[i].func == AggFunc::kMin) {
      // NaN is the top of the total order, so it is MIN's identity.
      acc[2 * i] = std::numeric_limits<double>::quiet_NaN();
    } else if ((*aggs_)[i].func == AggFunc::kMax) {
      acc[2 * i] = -std::numeric_limits<double>::infinity();
    }
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
  InitAccs(accs_.data() + base);
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

/// The rows one partial contributes: groups [first, num_groups) — `first`
/// is 1 when its leading group was combined across the boundary — or,
/// under HAVING, the surviving subset `keep`. They land at `offset`.
struct PartialRows {
  size_t first = 0;
  std::vector<uint32_t> keep;
  size_t offset = 0;
};

/// Decodes one partial's rows into their slice of `result`'s columns.
void DecodePartial(const PhysicalPlan& plan,
                   const std::vector<DimInfo>& dim_infos,
                   const std::vector<OutColumn>& outs, const GroupAccum& groups,
                   const PartialRows& rows, QueryResult* result) {
  const bool having = plan.query.having != nullptr;
  auto for_rows = [&](auto&& emit) {
    size_t r = rows.offset;
    if (having) {
      for (uint32_t g : rows.keep) emit(r++, g);
    } else {
      for (size_t g = rows.first; g < groups.num_groups(); ++g) emit(r++, g);
    }
  };
  for (size_t c = 0; c < outs.size(); ++c) {
    const OutColumn& oc = outs[c];
    ResultColumn& col = result->columns[c];
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
  }
}

bool DecodeInParallel(size_t rows, size_t num_partials) {
  return rows >= kParallelDecodeRows && num_partials > 1;
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
                                      const std::vector<GroupAccum*>& partials,
                                      const std::vector<DimInfo>& dim_infos,
                                      const QueryGuard* guard,
                                      obs::TraceSpan* span) {
  const size_t np = partials.size();
  std::vector<PartialRows> rows(np);
  // Boundary merge, one serial pass in partial order: a leading group equal
  // to the previous non-empty partial's last group folds into that group's
  // owner — the same combines, in the same order, as ConcatFrom.
  GroupAccum* owner = nullptr;
  size_t owner_g = 0;
  size_t candidates = 0;
  for (size_t p = 0; p < np; ++p) {
    GroupAccum& t = *partials[p];
    const size_t n = t.num_groups();
    if (n == 0) continue;
    if (owner != nullptr && owner->CombineBoundary(owner_g, t)) {
      rows[p].first = 1;
    }
    candidates += n - rows[p].first;
    if (rows[p].first == n) continue;  // its only group joined the owner's
    owner = &t;
    owner_g = n - 1;
  }

  // HAVING survivors per partial, prefix-summed into row offsets.
  const Expr* having = plan.query.having.get();
  if (having != nullptr) {
    ForEachTask(np, DecodeInParallel(candidates, np), [&](size_t p) {
      const GroupAccum& t = *partials[p];
      for (size_t g = rows[p].first; g < t.num_groups(); ++g) {
        if (EvalHaving(*having, plan, t, dim_infos, g)) {
          rows[p].keep.push_back(static_cast<uint32_t>(g));
        }
      }
    });
  }
  size_t total = 0;
  for (size_t p = 0; p < np; ++p) {
    rows[p].offset = total;
    total += having != nullptr
                 ? rows[p].keep.size()
                 : partials[p]->num_groups() - rows[p].first;
  }

  // The row bound, before a single output byte is allocated.
  if (guard != nullptr) LH_RETURN_NOT_OK(guard->CheckRows(total));

  QueryResult result;
  result.num_rows = total;
  std::vector<OutColumn> outs;
  for (const OutputItem& out : plan.query.outputs) {
    ResultColumn col;
    col.name = out.name;
    outs.push_back(ResolveOutput(out, plan, dim_infos, &col));
    result.columns.push_back(std::move(col));
  }
  // Sizing zero-fills fresh pages, which on a large result costs about as
  // much as the decode, so a parallel materialize sizes its columns as
  // tasks too.
  const bool parallel = DecodeInParallel(total, np);
  ForEachTask(outs.size(), parallel, [&](size_t c) {
    SizeColumn(outs[c].source, total, &result.columns[c]);
  });
  ForEachTask(np, parallel, [&](size_t p) {
    DecodePartial(plan, dim_infos, outs, *partials[p], rows[p],
                  &result);
  });
  if (span != nullptr) {
    span->AddMetric("chunks", static_cast<double>(np));
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
