#include "core/expr_kernels.h"

#include <algorithm>

#include "obs/stats.h"
#include "util/logging.h"
#include "util/total_order.h"

namespace levelheaded {

Result<std::shared_ptr<const CompiledScan>> CompiledScan::Compile(
    const PhysicalPlan& plan, const Catalog& catalog) {
  LH_CHECK(plan.scan_only) << "CompiledScan over a join plan";
  const RelationRef& ref = plan.query.relations[0];
  const Table& table = *ref.table;
  const ColumnResolver resolve = TableResolver(table);

  auto scan = std::make_shared<CompiledScan>();
  // Filters get RowFilter's typed batched fast paths (numeric compare,
  // BETWEEN, code equality, LIKE bitmaps); only irregular conjuncts cost a
  // bytecode program.
  std::vector<const Expr*> conjuncts;
  conjuncts.reserve(ref.filters.size());
  for (const ExprPtr& f : ref.filters) conjuncts.push_back(f.get());
  LH_ASSIGN_OR_RETURN(scan->filter_, RowFilter::Compile(conjuncts, table));
  for (const GroupDimExec& dim : plan.dims) {
    const DimInfo info = ClassifyDim(dim, plan, catalog, /*join_path=*/false);
    DimSpec spec;
    spec.kind = info.kind;
    switch (info.kind) {
      case DimKind::kKeyVertex:
        return Status::Internal("key-vertex dimension on the scan path");
      case DimKind::kStringCode:
        // ClassifyDim only yields kStringCode for a bare column.
        spec.codes = table.column(dim.expr->bound_col).codes.data();
        break;
      case DimKind::kInt:
      case DimKind::kDate:
      case DimKind::kReal:
        LH_RETURN_NOT_OK(ExprProgram::Compile(*dim.expr, resolve, &spec.prog));
        break;
    }
    scan->dims_.push_back(std::move(spec));
  }
  for (const AggExec& agg : plan.aggs) {
    AggSpec spec;
    spec.func = agg.func;
    if (agg.func == AggFunc::kCount || agg.arg == nullptr) {
      spec.constant_one = true;
    } else {
      LH_RETURN_NOT_OK(ExprProgram::Compile(*agg.arg, resolve, &spec.prog));
    }
    spec.minmax = agg.func == AggFunc::kMin || agg.func == AggFunc::kMax;
    spec.is_min = agg.func == AggFunc::kMin;
    spec.aux_inc = agg.func == AggFunc::kAvg ? 1.0 : 0.0;
    scan->aggs_.push_back(std::move(spec));
  }

  // Dense group-ordinal cache for all-string-code dims over small
  // dictionaries (Q1's shape: a handful of flag/status combinations).
  if (!scan->dims_.empty()) {
    uint64_t total = 1;
    for (const DimSpec& dim : scan->dims_) {
      if (dim.kind != DimKind::kStringCode) {
        total = 0;
        break;
      }
    }
    if (total == 1) {
      for (const GroupDimExec& dim : plan.dims) {
        total *= table.column(dim.expr->bound_col).dict->size();
        if (total > 4096) break;
      }
      if (total > 0 && total <= 4096) {
        scan->dense_stride_.resize(scan->dims_.size());
        uint32_t stride = 1;
        for (size_t d = scan->dims_.size(); d-- > 0;) {
          scan->dense_stride_[d] = stride;
          stride *= table.column(plan.dims[d].expr->bound_col).dict->size();
        }
        scan->dense_total_ = static_cast<uint32_t>(total);
      }
    }
  }
  // The -Attr.Elim arm emulates a row store: each surviving row reads every
  // column, not only the referenced ones.
  if (!plan.options.use_attribute_elimination) {
    for (size_t c = 0; c < table.schema().num_columns(); ++c) {
      scan->touch_.push_back(TableColumn(table, static_cast<int>(c)));
    }
  }
  return std::shared_ptr<const CompiledScan>(std::move(scan));
}

[[gnu::aligned(64)]] uint64_t CompiledScan::ExecuteChunk(
    int64_t lo, int64_t hi, GroupAccum* groups,
    const std::function<bool()>& poll) const {
  constexpr int kB = ExprProgram::kBatch;
  const size_t nd = dims_.size();
  const size_t na = aggs_.size();
  std::vector<double> dimv(nd * kB);
  std::vector<double> aggv(na * kB);
  uint32_t sel[kB];
  std::vector<uint64_t> key(nd);
  uint64_t rows_applied = 0;
  int64_t next_poll = lo;
  uint64_t touched = 0;
  // Scalar-group acc, fetched lazily so an all-filtered chunk creates no
  // group. Safe to hoist across rows: scalar mode never inserts again, so
  // the pointer stays valid.
  double* sacc = nullptr;
  constexpr uint32_t kNoGroup = 0xFFFFFFFFu;
  std::vector<uint32_t> gcache;
  if (dense_total_ > 0) gcache.assign(dense_total_, kNoGroup);

  for (int64_t base = lo; base < hi; base += kB) {
    if (poll != nullptr && base >= next_poll) {
      if (!poll()) return touched;
      next_poll = base + 1024;
    }
    const int n = static_cast<int>(std::min<int64_t>(kB, hi - base));
    // The leading predicate streams the dense range and later predicates
    // compact its survivors, so a selective leading predicate shields the
    // rest (the interpreter's short-circuit economics, vectorized).
    const int nsel = filter_.FilterRange(static_cast<uint32_t>(base), n, sel);
    if (nsel == 0) continue;
    rows_applied += static_cast<uint64_t>(nsel);
    for (const ColumnSource& c : touch_) {
      for (int j = 0; j < nsel; ++j) {
        const uint32_t r = sel[j];
        touched += c.type == ColumnSource::Type::kInt    ? c.ints[r]
                   : c.type == ColumnSource::Type::kReal ? BitcastDouble(
                                                               c.reals[r])
                                                         : c.codes[r];
      }
    }

    for (size_t a = 0; a < na; ++a) {
      if (!aggs_[a].constant_one) {
        aggs_[a].prog.EvalGather(sel, nsel, aggv.data() + a * kB);
      }
    }
    for (size_t d = 0; d < nd; ++d) {
      if (dims_[d].kind != DimKind::kStringCode) {
        dims_[d].prog.EvalGather(sel, nsel, dimv.data() + d * kB);
      }
    }

    // Surviving rows accumulate in row order, groups are created in
    // first-arrival order, and the per-slot updates replicate
    // GroupAccum::Apply op for op (see executor.cc ScanState's chunking
    // comment).
    for (int j = 0; j < nsel; ++j) {
      double* acc;
      if (nd == 0) {
        if (sacc == nullptr) sacc = groups->ScalarGroup();
        acc = sacc;
      } else if (dense_total_ > 0) {
        // All dims are string codes: a dense combo index caches the
        // group ordinal, skipping the hashed key lookup after the first
        // encounter of each combination.
        uint32_t combo = 0;
        for (size_t d = 0; d < nd; ++d) {
          combo += dims_[d].codes[sel[j]] * dense_stride_[d];
        }
        uint32_t g = gcache[combo];
        if (g == kNoGroup) {
          for (size_t d = 0; d < nd; ++d) {
            key[d] = static_cast<uint64_t>(dims_[d].codes[sel[j]]);
          }
          g = groups->FindOrCreateOrdinal(key.data());
          gcache[combo] = g;
        }
        acc = groups->acc_mut(g);
      } else {
        for (size_t d = 0; d < nd; ++d) {
          const DimSpec& dim = dims_[d];
          switch (dim.kind) {
            case DimKind::kKeyVertex:
              LH_CHECK(false) << "key-vertex dim on scan path";
              break;
            case DimKind::kStringCode:
              key[d] = static_cast<uint64_t>(dim.codes[sel[j]]);
              break;
            case DimKind::kInt:
            case DimKind::kDate:
              key[d] = static_cast<uint64_t>(
                  static_cast<int64_t>(dimv[d * kB + j]));
              break;
            case DimKind::kReal:
              key[d] = RealKeyBits(dimv[d * kB + j]);
              break;
          }
        }
        acc = groups->FindOrCreate(key.data());
      }
      for (size_t a = 0; a < na; ++a) {
        const AggSpec& agg = aggs_[a];
        const double m = agg.constant_one ? 1.0 : aggv[a * kB + j];
        if (agg.minmax) {
          acc[2 * a] = agg.is_min ? TotalMin(acc[2 * a], m)
                                  : TotalMax(acc[2 * a], m);
        } else {
          acc[2 * a] += m;
          acc[2 * a + 1] += agg.aux_inc;
        }
      }
    }
  }
  if (obs::ExecStats* stats = obs::ActiveStats()) {
    stats->CountExprFusedRows(rows_applied);
  }
  return touched;
}

}  // namespace levelheaded
