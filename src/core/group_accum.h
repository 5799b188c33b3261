// Shared group-by machinery: group-key encoding/decoding, the accumulation
// table, and output materialization. Used by the WCOJ executor, the scan
// path, and the pairwise baseline engines so that every engine produces
// results through identical aggregation semantics.

#ifndef LEVELHEADED_CORE_GROUP_ACCUM_H_
#define LEVELHEADED_CORE_GROUP_ACCUM_H_

#include <cstdint>
#include <cstring>
#include <limits>
#include <unordered_map>
#include <vector>

#include "core/plan.h"
#include "core/result.h"
#include "storage/table.h"
#include "util/status.h"

namespace levelheaded {

struct QueryGuard;

namespace obs {
class TraceSpan;
}  // namespace obs

uint64_t BitcastDouble(double d);
double UnbitcastDouble(uint64_t u);

/// Group-key word of a kReal dimension value. Values equal under the total
/// order (util/total_order.h) share one key: every NaN is one group, and
/// -0 groups with +0.
uint64_t RealKeyBits(double d);

/// How one GROUP BY dimension is encoded into the group key (one uint64
/// word) and decoded into the output.
enum class DimKind : uint8_t {
  kKeyVertex,   // dictionary code of a join vertex
  kStringCode,  // dictionary code of a string annotation column
  kInt,         // integer-valued expression (int/long columns, EXTRACT)
  kDate,        // integer days since epoch
  kReal,        // bit-cast double (generic numeric expressions)
};

struct DimInfo {
  DimKind kind = DimKind::kReal;
  const Dictionary* dict = nullptr;  // decoding for the two code kinds
  int vertex_pos = -1;  // kKeyVertex: position in the node attribute order
};

/// Classifies one dimension. `join_path` selects kKeyVertex treatment for
/// bare key vertices (the caller resolves vertex_pos).
DimInfo ClassifyDim(const GroupDimExec& dim, const PhysicalPlan& plan,
                    const Catalog& catalog, bool join_path);

/// Group keys (fixed-width uint64 words) plus 2 doubles (main, aux) per
/// aggregate slot. Hash mode handles arbitrary key arrival; append mode
/// exploits grouped arrival.
class GroupAccum {
 public:
  GroupAccum(size_t key_width, const std::vector<AggExec>* aggs);

  size_t num_groups() const {
    return key_width_ == 0 ? scalar_groups_ : keys_.size() / key_width_;
  }
  const uint64_t* key(size_t g) const { return keys_.data() + g * key_width_; }
  const double* accs(size_t g) const { return accs_.data() + g * stride_; }

  double* FindOrCreate(const uint64_t* key);
  /// FindOrCreate returning the group's ordinal instead of its acc
  /// pointer. Ordinals are stable across later inserts (acc pointers are
  /// not), so callers may cache them — see the fused scan kernel's dense
  /// group cache (core/expr_kernels.h).
  uint32_t FindOrCreateOrdinal(const uint64_t* key);
  double* AppendOrLast(const uint64_t* key);
  double* ScalarGroup();
  /// Mutable accumulator row of group `g` (invalidated by inserts).
  double* acc_mut(size_t g) { return accs_.data() + g * stride_; }

  /// Applies one row's deltas (per-aggregate semiring op).
  void Apply(double* acc, const double* main_delta,
             const double* aux_delta) const;
  /// Append-mode flush of one sorted run: for each i, the group `key` with
  /// every word in `patch` set to `values[i]` absorbs the accumulator row
  /// `rows + values[i] * stride` (main/aux pairs, as Apply's deltas). `values` is strictly
  /// ascending and `patch` non-empty, so only the first value can land on
  /// the current last group (AppendOrLast's rule); the rest append with one
  /// table growth. `key` is scratch (its patched words are overwritten).
  void AppendRun(uint64_t* key, const std::vector<size_t>& patch,
                 const uint32_t* values, size_t n, const double* rows);

  /// Finalized value of aggregate `slot` for group `g` (AVG divides).
  double Finalize(size_t g, size_t slot) const;

  void MergeFrom(const GroupAccum& other);
  /// Concatenates grouped tables arriving in global key order.
  void ConcatFrom(const GroupAccum& other);
  /// The boundary rule of grouped concatenation: when `next`'s first key
  /// equals group `g`'s key, combines next's first group into `g` and
  /// returns true.
  bool CombineBoundary(size_t g, const GroupAccum& next);

 private:
  struct U64VecHash {
    size_t operator()(const std::vector<uint64_t>& v) const {
      uint64_t h = 1469598103934665603ULL;
      for (uint64_t w : v) {
        h ^= w;
        h *= 1099511628211ULL;
      }
      return static_cast<size_t>(h);
    }
  };

  /// Combines accumulator row `oa` (this table's layout) into `acc`; the
  /// same per-aggregate op as Apply with main/aux read from `oa`.
  void CombineInto(double* acc, const double* oa) const;
  void InitAccs(double* acc) const;
  void AppendGroup(const uint64_t* key);

  size_t key_width_;
  size_t stride_;
  const std::vector<AggExec>* aggs_;
  size_t scalar_groups_ = 0;
  std::vector<uint64_t> keys_;
  std::vector<double> accs_;
  std::unordered_map<std::vector<uint64_t>, uint32_t, U64VecHash> index_;
  std::vector<uint64_t> scratch_key_;
};

/// Evaluates a post-aggregation output expression for one group.
double EvalOutputExpr(const Expr& e, const PhysicalPlan& plan,
                      const GroupAccum& groups,
                      const std::vector<DimInfo>& dim_infos, size_t g);

/// Evaluates the HAVING predicate for one group (true = keep).
bool EvalHaving(const Expr& e, const PhysicalPlan& plan,
                const GroupAccum& groups,
                const std::vector<DimInfo>& dim_infos, size_t g);

/// Output rows at or above which MaterializeGroups decodes its partials
/// as pool tasks, one per partial; smaller results decode on the calling
/// thread. A function of the row count alone, never of the thread count.
inline constexpr size_t kParallelDecodeRows = size_t{1} << 16;

/// Decodes group tables into the query's output columns, applying the
/// query's HAVING filter when present. `partials` is one table, or
/// append-mode chunk partials in global key order: a partial whose first
/// key equals the previous non-empty partial's last key has that group
/// combined into the earlier one first (ConcatFrom's boundary rule, in
/// partial order), so the output — row order included — is bit-identical
/// to decoding their concatenation. Each partial then decodes straight
/// into its slice of the output columns. The row bound of `guard`
/// (nullable) is checked on the post-HAVING row count before any output
/// column is allocated. `span` (nullable) receives the `chunks` and
/// `parallel` metrics.
[[nodiscard]] Result<QueryResult> MaterializeGroups(
    const PhysicalPlan& plan, const std::vector<GroupAccum*>& partials,
    const std::vector<DimInfo>& dim_infos, const QueryGuard* guard = nullptr,
    obs::TraceSpan* span = nullptr);

/// Applies ORDER BY and LIMIT to a materialized result (all engines share
/// this final step).
void ApplyOrderAndLimit(const LogicalQuery& query, QueryResult* result);

}  // namespace levelheaded

#endif  // LEVELHEADED_CORE_GROUP_ACCUM_H_
