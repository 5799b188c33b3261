// The LevelHeaded trie (§III-B, Figure 3): the engine's only physical index.
//
// A trie stores the key attributes of a relation, one attribute per level.
// Each level is a sequence of sets of dictionary-encoded values; a set holds
// the values that extend one particular prefix (one element of the previous
// level). The *global rank* of an element at level i (its set's base rank
// plus its in-set rank) is simultaneously
//   * the index of its child set at level i+1, and
//   * the index into any annotation buffer attached at level i.
// Annotations (§IV-A) attach at the shallowest level whose key prefix
// functionally determines them — the physical half of attribute
// elimination — with aggregated annotations always attached at the last
// level, pre-merged through the aggregation semiring.

#ifndef LEVELHEADED_STORAGE_TRIE_H_
#define LEVELHEADED_STORAGE_TRIE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "set/set.h"
#include "storage/dictionary.h"
#include "storage/value.h"
#include "util/status.h"

namespace levelheaded {

class TrieLazyState;

/// How duplicate key tuples combine an annotation during trie construction.
/// The merge operator must match the aggregation semiring that consumes the
/// annotation (§II-C): + for SUM/AVG, min/max for MIN/MAX.
enum class AnnotationMerge : uint8_t {
  kSum,    ///< semiring ⊕ = +; result stored as double
  kMin,    ///< ⊕ = min; result stored as double
  kMax,    ///< ⊕ = max; result stored as double
  kFirst,  ///< value is functionally determined by the keys; keep type
};

/// A flat columnar buffer of annotation values aligned to the global
/// element ranks of its attachment level.
struct AnnotationBuffer {
  std::string name;
  ValueType type = ValueType::kDouble;
  int level = 0;
  std::vector<double> reals;    // kFloat/kDouble and all kSum annotations
  std::vector<int64_t> ints;    // kInt32/kInt64/kDate kFirst annotations
  std::vector<uint32_t> codes;  // kString kFirst annotations
  const Dictionary* dict = nullptr;

  /// Numeric view of entry `i` (codes are returned as their numeric code).
  /// `i` must be a global element rank of the attachment level.
  double AsDouble(uint32_t i) const {
    if (!reals.empty()) {
      LH_DCHECK_BOUNDS(i, reals.size());
      return reals[i];
    }
    if (!ints.empty()) {
      LH_DCHECK_BOUNDS(i, ints.size());
      return static_cast<double>(ints[i]);
    }
    LH_DCHECK_BOUNDS(i, codes.size());
    return static_cast<double>(codes[i]);
  }
};

/// One trie level: concatenated set storage plus per-set descriptors.
class TrieLevel {
 public:
  uint32_t num_sets() const {
    return lazy_ != nullptr ? static_cast<uint32_t>(set_base_.size() - 1)
                            : static_cast<uint32_t>(sets_.size());
  }
  uint64_t num_elements() const { return num_elements_; }

  /// View of set `set_idx`; valid while the trie is alive. On a lazy level
  /// (DESIGN.md §16) the first call for a set materializes its payload and
  /// the annotation entries of its rank range; concurrent callers of the
  /// same set synchronize on a once-per-set publication slot.
  SetView set(uint32_t set_idx) const;

  /// Global rank of the first element of set `set_idx`. Exact even on lazy
  /// levels: base ranks come from the eager rank skeleton, not from
  /// materialization.
  uint32_t base_rank(uint32_t set_idx) const {
    if (lazy_ != nullptr) {
      LH_DCHECK_BOUNDS(set_idx + 1, set_base_.size());
      return set_base_[set_idx];
    }
    LH_DCHECK_BOUNDS(set_idx, sets_.size());
    return sets_[set_idx].base_rank;
  }

  /// True when this level's set payloads materialize on first probe.
  bool is_lazy() const { return lazy_ != nullptr; }

  /// True when every set in this level is the complete domain [0, domain):
  /// the "completely dense relation" case whose icost is 0 (§V-A1).
  bool all_full() const { return full_size_ > 0; }
  /// The domain size every set of a full level spans (0 when the level is
  /// not all_full()). On a full level value v has in-set rank v, and any
  /// v >= full_size() is absent.
  uint32_t full_size() const { return full_size_; }

  /// Index of the first trie leaf under element `rank` of this level; the
  /// leaves of the element's subtree are [first_leaf(rank),
  /// first_leaf(rank+1)). first_leaf(num_elements()) is the total leaf
  /// count. Used when a query traverses only a prefix of the trie's levels
  /// (the attribute-elimination ablation).
  uint32_t first_leaf(uint64_t rank) const {
    return rank < first_leaf_.size() ? first_leaf_[rank] : leaf_end_;
  }

  /// Rank of this level's element whose subtree contains leaf `leaf`
  /// (inverse of first_leaf).
  uint32_t AncestorOfLeaf(uint32_t leaf) const;

 private:
  friend class Trie;
  friend class TrieLazyState;

  struct SetDesc {
    SetLayout layout;
    uint32_t cardinality;
    uint32_t base_rank;
    uint32_t values_offset;  // uint layout
    uint32_t words_offset;   // bitset layout
    uint32_t num_words;
    uint32_t word_base;
  };

  std::vector<SetDesc> sets_;
  std::vector<uint32_t> uint_values_;
  std::vector<uint64_t> words_;
  std::vector<uint32_t> word_ranks_;
  std::vector<uint32_t> first_leaf_;
  /// Lazy levels only: base rank per set, one extra entry for the total
  /// (set s spans global ranks [set_base_[s], set_base_[s+1])). `sets_` and
  /// the payload vectors stay empty; payloads live in the owning trie's
  /// TrieLazyState once materialized.
  std::vector<uint32_t> set_base_;
  /// Owning trie's deferred-build state when this level is lazy. Points at
  /// mutable heap state so the logically-const set() accessor can
  /// materialize through it.
  TrieLazyState* lazy_ = nullptr;
  int level_index_ = 0;
  uint32_t leaf_end_ = 0;
  uint64_t num_elements_ = 0;
  uint32_t full_size_ = 0;
};

/// Source description for one annotation column fed into a trie build.
/// Exactly one of `ints`/`reals`/`codes` must be non-null, matching `type`.
struct TrieAnnotationSpec {
  std::string name;
  ValueType type = ValueType::kDouble;
  AnnotationMerge merge = AnnotationMerge::kSum;
  const std::vector<int64_t>* ints = nullptr;
  const std::vector<double>* reals = nullptr;
  const std::vector<uint32_t>* codes = nullptr;
  const Dictionary* dict = nullptr;
  /// Optional shared ownership of the `reals` source. A lazy build
  /// (TrieBuildSpec::eager_levels) reads annotation sources at
  /// materialization time, after the builder's scope has unwound; computed
  /// per-row columns must pass ownership here so the trie keeps them alive.
  /// Borrowed table columns may leave this null — the catalog outlives
  /// every trie built over it.
  std::shared_ptr<const std::vector<double>> owned_reals;
};

/// Inputs for Trie::Build.
struct TrieBuildSpec {
  /// Dictionary codes per key level, each of the table's full row count.
  std::vector<const std::vector<uint32_t>*> key_codes;
  /// Domain cardinality per key level (for density detection).
  std::vector<uint32_t> domain_sizes;
  /// Annotations to attach.
  std::vector<TrieAnnotationSpec> annotations;
  /// Optional row subset (selection pushdown); nullptr = all rows.
  const std::vector<uint32_t>* selection = nullptr;
  /// When true, attach a synthetic int64 annotation named "#count" holding
  /// the number of base rows merged into each leaf (COUNT/AVG support).
  bool add_count_annotation = false;
  /// When true, a kFirst annotation whose value is NOT constant within some
  /// leaf element (i.e. not functionally determined by the queried keys)
  /// fails the build instead of silently keeping the first value.
  bool verify_first_unique = false;
  /// Number of trie levels to build eagerly; levels [eager_levels,
  /// num_levels) keep only their rank skeleton (exact element counts, per-
  /// set base ranks, first-leaf index) and materialize per-set payloads plus
  /// the annotation entries attached there on first probe (DESIGN.md §16).
  /// -1 (the default) builds every level eagerly; other values are clamped
  /// to [1, num_levels]. A lazy trie borrows the key-code columns and any
  /// non-owned annotation sources for its lifetime, so only tables that
  /// outlive the trie (catalog columns) may feed a lazy build.
  int eager_levels = -1;
};

/// An immutable trie over the key attributes of one relation instance.
class Trie {
 public:
  Trie();
  ~Trie();
  Trie(Trie&&) noexcept;
  Trie& operator=(Trie&&) noexcept;

  /// Sorts the (selected) rows by the key codes, deduplicates key tuples,
  /// and lays out level sets and annotation buffers. With
  /// `spec.eager_levels` set, the deeper levels defer payload emission and
  /// annotation fills per set until first probe; ranks, element counts and
  /// the verify_first_unique check are computed eagerly either way, so a
  /// lazy trie is observationally identical to an eager one.
  [[nodiscard]] static Result<Trie> Build(const TrieBuildSpec& spec);

  int num_levels() const { return static_cast<int>(levels_.size()); }
  const TrieLevel& level(int i) const {
    LH_DCHECK_BOUNDS(i, levels_.size());
    return levels_[i];
  }

  /// The single set at level 0.
  SetView root() const { return levels_[0].set(0); }

  /// Total number of distinct key tuples (leaf elements).
  uint64_t num_tuples() const { return levels_.back().num_elements(); }

  size_t num_annotations() const { return annotations_.size(); }
  const AnnotationBuffer& annotation(size_t i) const {
    LH_DCHECK_BOUNDS(i, annotations_.size());
    return annotations_[i];
  }
  /// Annotation lookup by name; -1 when absent.
  int FindAnnotation(const std::string& name) const;

  /// True when every level is completely dense — the relation is a full
  /// rectangular array and annotation buffers are BLAS-ready (§III-D).
  bool IsCompletelyDense() const;

  /// Number of levels whose payloads materialize on first probe (0 for a
  /// fully eager trie).
  int lazy_levels() const;
  /// Sets materialized so far across all lazy levels (diagnostics; grows
  /// concurrently while queries probe).
  uint64_t materialized_sets() const;

  /// Approximate heap footprint in bytes (diagnostics and trie-cache
  /// accounting). For a lazy trie this includes the retained build state
  /// and grows as sets materialize — the cache resamples it on every probe.
  size_t MemoryBytes() const;

 private:
  friend class TrieLazyState;

  /// Appends one set of ascending values to `level` during construction.
  static void EmitSet(const std::vector<uint32_t>& vals, uint32_t base_rank,
                      TrieLevel::SetDesc* desc, TrieLevel* level,
                      std::vector<uint64_t>* scratch_words,
                      std::vector<uint32_t>* scratch_ranks);

  std::vector<TrieLevel> levels_;
  std::vector<AnnotationBuffer> annotations_;
  /// Deferred-build state; null for fully eager tries. Heap-allocated so
  /// the per-set publication slots keep their addresses when the Trie
  /// object moves.
  std::unique_ptr<TrieLazyState> lazy_;
};

}  // namespace levelheaded

#endif  // LEVELHEADED_STORAGE_TRIE_H_
