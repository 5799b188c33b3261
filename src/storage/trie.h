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
#include <string>
#include <vector>

#include "set/set.h"
#include "storage/dictionary.h"
#include "storage/value.h"
#include "util/status.h"

namespace levelheaded {

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
  uint32_t num_sets() const { return static_cast<uint32_t>(sets_.size()); }
  uint64_t num_elements() const { return num_elements_; }

  /// View of set `set_idx`; valid while the trie is alive.
  SetView set(uint32_t set_idx) const;

  /// Global rank of the first element of set `set_idx`.
  uint32_t base_rank(uint32_t set_idx) const {
    LH_DCHECK_BOUNDS(set_idx, sets_.size());
    return sets_[set_idx].base_rank;
  }

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
};

/// An immutable trie over the key attributes of one relation instance.
class Trie {
 public:
  /// Sorts the (selected) rows by the key codes, deduplicates key tuples,
  /// and lays out level sets and annotation buffers. The trie borrows
  /// nothing from `spec`: its sources need only outlive the call.
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

  /// Approximate heap footprint in bytes (diagnostics and trie-cache
  /// accounting). Fixed once Build returns.
  size_t MemoryBytes() const;

 private:
  /// Appends one set of ascending values to `level` during construction.
  static void EmitSet(const std::vector<uint32_t>& vals, uint32_t base_rank,
                      TrieLevel::SetDesc* desc, TrieLevel* level,
                      std::vector<uint64_t>* scratch_words,
                      std::vector<uint32_t>* scratch_ranks);

  std::vector<TrieLevel> levels_;
  std::vector<AnnotationBuffer> annotations_;
};

}  // namespace levelheaded

#endif  // LEVELHEADED_STORAGE_TRIE_H_
