// Shared group-by machinery: group-key encoding/decoding, the accumulation
// table, and output materialization. Used by the WCOJ executor, the scan
// path, and the pairwise baseline engines so that every engine produces
// results through identical aggregation semantics.

#ifndef LEVELHEADED_CORE_GROUP_ACCUM_H_
#define LEVELHEADED_CORE_GROUP_ACCUM_H_

#include <cstdint>
#include <cstring>
#include <limits>
#include <optional>
#include <unordered_map>
#include <vector>

#include "core/expr_vm.h"
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

/// The per-aggregate semiring ops on one accumulator row (a main/aux pair
/// of doubles per aggregate slot). Every group table and every append-mode
/// open group folds through these, so all paths share one FP order rule.
///
/// Sets `acc` to the identity of every aggregate.
void InitAccs(const std::vector<AggExec>& aggs, double* acc);
/// Applies one row's deltas (per-aggregate semiring op).
void ApplyDeltas(const std::vector<AggExec>& aggs, double* acc,
                 const double* main_delta, const double* aux_delta);
/// Combines accumulator row `oa` into `acc`: ApplyDeltas with main/aux
/// read from `oa`.
void CombineAccs(const std::vector<AggExec>& aggs, double* acc,
                 const double* oa);

/// Group keys (fixed-width uint64 words) plus 2 doubles (main, aux) per
/// aggregate slot, grouped by hash (any key arrival order), or one scalar
/// group when the key is empty.
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
  double* ScalarGroup();
  /// Mutable accumulator row of group `g` (invalidated by inserts).
  double* acc_mut(size_t g) { return accs_.data() + g * stride_; }

  /// Applies one row's deltas to `acc` (ApplyDeltas over this table's
  /// aggregates).
  void Apply(double* acc, const double* main_delta,
             const double* aux_delta) const {
    ApplyDeltas(*aggs_, acc, main_delta, aux_delta);
  }

  /// Finalized value of aggregate `slot` for group `g` (AVG divides).
  double Finalize(size_t g, size_t slot) const;

  void MergeFrom(const GroupAccum& other);

  /// Empties an unindexed table (one never probed by FindOrCreate) and
  /// starts its one group, `key`, at the identity; returns that group's
  /// accumulator row. RowChunk keeps its open group in such a table, so
  /// its GroupPrograms read it as group 0.
  double* ResetTo(const uint64_t* key);

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

/// The query's post-aggregation expressions — HAVING and every output item
/// that is neither a bare GROUP BY dimension nor a bare aggregate —
/// compiled to ExprPrograms over one group. A program reads one column per
/// dimension and aggregate slot it references (integer key vertices
/// decoded, string dimensions as codes plus dictionary, key words as ints
/// or reals, aggregates finalized) from a one-row scratch that Load()
/// fills. The scratch makes an instance single-threaded: each concurrent
/// user compiles its own.
class GroupPrograms {
 public:
  /// kInvalidArgument when the VM rejects an expression (a bare string
  /// literal output, say). `plan` and `dim_infos` must outlive the result.
  [[nodiscard]] static Result<GroupPrograms> Compile(
      const PhysicalPlan& plan, const std::vector<DimInfo>& dim_infos);

  // The programs point into the scratch: a move keeps its buffers in
  // place, a copy would share them.
  GroupPrograms(GroupPrograms&&) = default;
  GroupPrograms& operator=(GroupPrograms&&) = default;

  /// Loads group `g` of `groups` into the scratch.
  void Load(const GroupAccum& groups, size_t g);
  /// The loaded group passes HAVING (always, without one).
  bool Keep() const;
  /// Output item `i` of the loaded group; the item is an expression.
  double Output(size_t i) const;

 private:
  GroupPrograms() = default;

  const std::vector<DimInfo>* dim_infos_ = nullptr;
  std::vector<int64_t> ints_;  // the scratch: element c is column c
  std::vector<double> reals_;
  std::vector<uint32_t> codes_;
  std::vector<uint32_t> read_;  // the columns some program reads
  std::optional<ExprProgram> having_;
  std::vector<ExprProgram> outputs_;  // per output item; empty when direct
};

/// Decodes one hash-mode (or scalar) group table into the query's output
/// columns, applying the query's HAVING filter when present (both through
/// GroupPrograms, whose compile errors it returns). The row bound
/// of `guard` (nullable) is checked on the post-HAVING row count before
/// any output column is allocated. The WCOJ executor's hash mode, the scan
/// path and the pairwise baseline engines all materialize through it.
[[nodiscard]] Result<QueryResult> MaterializeGroups(
    const PhysicalPlan& plan, const GroupAccum& groups,
    const std::vector<DimInfo>& dim_infos, const QueryGuard* guard = nullptr);

// ---------------------------------------------------------------------------
// Append mode: every GROUP BY dimension is a key vertex, so groups arrive
// grouped and in key order, and each chunk writes finished groups straight
// out as result rows.

/// Where one output column's values come from, resolved once per query so
/// the row writers switch per column rather than per row.
struct OutColumn {
  enum class Source : uint8_t {
    kIntCode,     // key vertex over an integer domain: int_values[code]
    kStringCode,  // string dictionary code, kept encoded
    kString,      // string dictionary code, decoded to text
    kIntWord,     // integer or date key word
    kRealWord,    // bit-cast double key word
    kAgg,         // finalized aggregate slot
    kExpr,        // post-aggregation output expression (GroupPrograms)
  };
  Source source = Source::kExpr;
  size_t index = 0;  // group dimension or aggregate slot
  const Dictionary* dict = nullptr;     // the string sources
  const int64_t* int_values = nullptr;  // kIntCode: the domain's values
};

/// How an append-mode query writes its result rows, resolved once per
/// query: one column per output item, each kIntCode, kStringCode (a chunk
/// keeps string codes; ConcatRows decodes them), kAgg or kExpr.
struct RowLayout {
  RowLayout(const PhysicalPlan& plan, const std::vector<DimInfo>& dim_infos);

  const PhysicalPlan& plan;
  const std::vector<DimInfo>& dim_infos;
  std::vector<OutColumn> columns;
  /// No HAVING and no output expression: every column is a key or an
  /// aggregate, so RowChunk's bulk writers apply.
  bool direct = true;
  /// Why HAVING or an output expression does not compile (GroupPrograms;
  /// each chunk compiles its own), or OK.
  Status programs_status;
};

/// One append-mode chunk's output: its finished groups as result rows, one
/// typed vector per output column (`ints` for kIntCode, `codes` for
/// kStringCode, `reals` for kAgg and kExpr), in key order. The only raw
/// accumulator state is the one group still accumulating; it closes —
/// HAVING, then one row — when a different key arrives or on Close(). A
/// non-direct layout's chunk compiles its GroupPrograms at its first close;
/// the layout's programs_status must be OK.
class RowChunk {
 public:
  explicit RowChunk(const RowLayout* layout);

  size_t num_rows() const { return num_rows_; }
  const std::vector<ResultColumn>& columns() const { return cols_; }
  void Reserve(size_t rows);

  /// The accumulator row of group `key`: the open group when `key` is its
  /// key, else a new open group at the identity, after the open one closes.
  double* Group(const uint64_t* key);
  /// Closes the open group, if any.
  void Close();

  /// Appends `next`'s rows after this chunk's; both must be closed.
  void Append(const RowChunk& next);
  /// Combines `next`'s open group (if any) into this chunk's open group,
  /// which must have the same key, or adopts it when this chunk has none.
  /// `next` must have no rows: it held one group.
  void CombineOpen(const RowChunk& next);

  /// Bulk writer of `n` groups under a direct layout, with no group open:
  /// group i's key is `key` with the words of the dimensions at attribute
  /// position `pos` set to values[i], and its accumulator is the identity
  /// combined with row `accs + values[i] * stride` (CombineAccs), so each
  /// written aggregate is bit-identical to the fold of that row into a
  /// fresh group. `values` is strictly ascending.
  void WriteRun(const uint64_t* key, int pos, const uint32_t* values,
                size_t n, const double* accs, size_t stride);
  /// WriteRun for one group: `key` with accumulator identity + `acc`.
  void WriteRow(const uint64_t* key, const double* acc) {
    const uint32_t zero = 0;
    WriteRun(key, -1, &zero, 1, acc, 0);
  }

 private:
  const RowLayout* layout_;
  size_t num_rows_ = 0;
  std::vector<ResultColumn> cols_;
  GroupAccum open_;  // group 0, when is_open_: the group still accumulating
  bool is_open_ = false;
  std::optional<GroupPrograms> programs_;  // non-direct layouts, once closed
};

/// Output rows at or above which ConcatRows sizes its columns and copies
/// its chunks as pool tasks, one per column and per chunk; smaller results
/// concatenate on the calling thread. A function of the row count alone,
/// never of the thread count.
inline constexpr size_t kParallelConcatRows = size_t{1} << 16;

/// Concatenates closed append-mode chunks, in order, into the query's
/// output columns: a prefix sum of the chunk row counts, the row bound of
/// `guard` (nullable) on the total before any allocation, then each chunk
/// copies into its slice (string codes decode here unless the query keeps
/// them encoded). `span` (nullable) receives the `chunks` and `parallel`
/// metrics.
[[nodiscard]] Result<QueryResult> ConcatRows(
    const RowLayout& layout, const std::vector<const RowChunk*>& chunks,
    const QueryGuard* guard = nullptr, obs::TraceSpan* span = nullptr);

/// Applies ORDER BY and LIMIT to a materialized result (all engines share
/// this final step).
void ApplyOrderAndLimit(const LogicalQuery& query, QueryResult* result);

}  // namespace levelheaded

#endif  // LEVELHEADED_CORE_GROUP_ACCUM_H_
