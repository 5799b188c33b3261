#include "storage/trie.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <numeric>
#include <thread>
#include <utility>

#include <array>
#include <bit>

#include "obs/stats.h"
#include "util/logging.h"
#include "util/thread_pool.h"
#include "util/total_order.h"

namespace levelheaded {
namespace {

// Sorted runs below this stay on the calling thread; together with the
// cardinality-only AdaptiveGrain it makes small builds take the exact
// sequential path automatically.
constexpr int64_t kMinSortRun = 1 << 15;

/// Parallel sort of the row-id permutation: sort fixed-size runs
/// concurrently, then log2(runs) passes of pairwise merges. `less` must be a
/// strict TOTAL order (the build's comparator tie-breaks on row id), which
/// makes the sorted sequence unique — neither the run width nor the merge
/// tree can change the output, so builds are identical at every thread
/// count.
template <typename Less>
void ParallelSortRows(std::vector<uint32_t>* rows, const Less& less,
                      ThreadPool& pool) {
  const int64_t n = static_cast<int64_t>(rows->size());
  const int64_t run = AdaptiveGrain(n, kMinSortRun);
  if (n <= run) {
    std::sort(rows->begin(), rows->end(), less);
    return;
  }
  pool.ParallelChunks(0, n, run, [&](int, int64_t lo, int64_t hi) {
    std::sort(rows->begin() + lo, rows->begin() + hi, less);
  });
  std::vector<uint32_t> aux(rows->size());
  std::vector<uint32_t>* src = rows;
  std::vector<uint32_t>* dst = &aux;
  for (int64_t width = run; width < n; width *= 2) {
    const int64_t pairs = (n + 2 * width - 1) / (2 * width);
    pool.ParallelFor(0, pairs, 1, [&](int, int64_t p) {
      const int64_t lo = p * 2 * width;
      const int64_t mid = std::min(n, lo + width);
      const int64_t hi = std::min(n, lo + 2 * width);
      std::merge(src->begin() + lo, src->begin() + mid, src->begin() + mid,
                 src->begin() + hi, dst->begin() + lo, less);
    });
    std::swap(src, dst);
  }
  if (src != rows) rows->swap(aux);
}

/// Packed-key fast path for the build's sort: when every level's key codes
/// together fit in 32 bits, one uint64 per row — the concatenated codes in
/// the high half, the row id in the low half — makes plain numeric order
/// exactly the build's (key tuple, row id) total order. A stable LSD
/// counting sort over the key bytes then replaces the comparison sort: no
/// per-compare indirection into the code columns and O(n) passes instead of
/// O(n log n) compares, which matters because the sort dominates cold trie
/// builds (DESIGN.md §16). Histograms and scatter ranges are cut per chunk
/// with the cardinality-only AdaptiveGrain and the sorted sequence is
/// unique, so builds stay byte-identical at every thread count. Returns
/// false — leaving `rows` untouched — when the keys don't fit or the input
/// is not in ascending row order (pass stability substitutes for the row-id
/// tie-break only when the initial order already is row order).
bool PackedRadixSortRows(std::vector<uint32_t>* rows,
                         const std::vector<const uint32_t*>& kc,
                         ThreadPool& pool) {
  const size_t n = rows->size();
  const size_t num_levels = kc.size();
  if (n < 1024) return false;  // std::sort wins below this
  const uint32_t* r = rows->data();
  for (size_t i = 1; i < n; ++i) {
    if (r[i] <= r[i - 1]) return false;
  }

  const int64_t grain = AdaptiveGrain(static_cast<int64_t>(n), kMinSortRun);
  const size_t num_chunks =
      (n + static_cast<size_t>(grain) - 1) / static_cast<size_t>(grain);
  const auto chunk_range = [&](int64_t c, size_t* lo, size_t* hi) {
    *lo = static_cast<size_t>(c) * static_cast<size_t>(grain);
    *hi = std::min(n, *lo + static_cast<size_t>(grain));
  };

  // Bit width per level from the max code over the selected rows.
  std::vector<uint32_t> chunk_max(num_chunks * num_levels, 0);
  pool.ParallelFor(0, static_cast<int64_t>(num_chunks), 1,
                   [&](int, int64_t c) {
                     size_t lo, hi;
                     chunk_range(c, &lo, &hi);
                     for (size_t l = 0; l < num_levels; ++l) {
                       const uint32_t* codes = kc[l];
                       uint32_t m = 0;
                       for (size_t i = lo; i < hi; ++i) {
                         m = std::max(m, codes[r[i]]);
                       }
                       chunk_max[c * num_levels + l] = m;
                     }
                   });
  uint64_t total_bits = 0;
  std::vector<int> bits(num_levels, 0);
  for (size_t l = 0; l < num_levels; ++l) {
    uint32_t max_code = 0;
    for (size_t c = 0; c < num_chunks; ++c) {
      max_code = std::max(max_code, chunk_max[c * num_levels + l]);
    }
    bits[l] = static_cast<int>(std::bit_width(max_code));
    total_bits += static_cast<uint64_t>(bits[l]);
  }
  if (total_bits > 32) return false;

  std::vector<uint64_t> a(n), b(n);
  pool.ParallelChunks(0, static_cast<int64_t>(n), grain,
                      [&](int, int64_t lo, int64_t hi) {
                        for (int64_t i = lo; i < hi; ++i) {
                          const uint32_t row = r[i];
                          uint64_t key = 0;
                          for (size_t l = 0; l < num_levels; ++l) {
                            key = (key << bits[l]) | kc[l][row];
                          }
                          a[i] = (key << 32) | row;
                        }
                      });

  const int passes = static_cast<int>((total_bits + 7) / 8);
  std::vector<std::array<uint32_t, 256>> counts(num_chunks);
  std::vector<uint64_t>* src = &a;
  std::vector<uint64_t>* dst = &b;
  for (int p = 0; p < passes; ++p) {
    const int shift = 32 + 8 * p;
    const uint64_t* s = src->data();
    uint64_t* d = dst->data();
    pool.ParallelFor(0, static_cast<int64_t>(num_chunks), 1,
                     [&](int, int64_t c) {
                       counts[c].fill(0);
                       size_t lo, hi;
                       chunk_range(c, &lo, &hi);
                       for (size_t i = lo; i < hi; ++i) {
                         ++counts[c][(s[i] >> shift) & 0xFF];
                       }
                     });
    // Column-major prefix: every row of digit d precedes every row of digit
    // d+1, and within a digit chunk c's rows precede chunk c+1's. The
    // scatter below is then globally stable — which is what lets pass order
    // stand in for the row-id tie-break.
    uint32_t run = 0;
    for (int digit = 0; digit < 256; ++digit) {
      for (size_t c = 0; c < num_chunks; ++c) {
        const uint32_t cnt = counts[c][digit];
        counts[c][digit] = run;
        run += cnt;
      }
    }
    // Chunks scatter into disjoint destination ranges (the prefix above
    // assigns each (chunk, digit) pair its own slice), so no write races.
    pool.ParallelFor(0, static_cast<int64_t>(num_chunks), 1,
                     [&](int, int64_t c) {
                       size_t lo, hi;
                       chunk_range(c, &lo, &hi);
                       for (size_t i = lo; i < hi; ++i) {
                         d[counts[c][(s[i] >> shift) & 0xFF]++] = s[i];
                       }
                     });
    std::swap(src, dst);
  }
  uint32_t* out = rows->data();
  const uint64_t* s = src->data();
  pool.ParallelChunks(0, static_cast<int64_t>(n), grain,
                      [&](int, int64_t lo, int64_t hi) {
                        for (int64_t i = lo; i < hi; ++i) {
                          out[i] = static_cast<uint32_t>(s[i] & 0xFFFFFFFFu);
                        }
                      });
  return true;
}

}  // namespace

// ---------------------------------------------------------------------------
// Deferred (lazy) materialization state — DESIGN.md §16.
//
// Build() always computes the full *rank skeleton*: the sorted row
// permutation, per-level element starts, per-set base ranks, the first-leaf
// index, and exact element counts. Global ranks, num_tuples() and the
// verify_first_unique check are therefore identical to an eager build. What
// a lazy level defers, per set, is the payload (uint/bitset emission) and
// the annotation entries attached at that level for the set's global rank
// range. Both materialize together, once per set, on first probe:
//
//   nullptr --CAS--> kBuilding(1) --release-store--> MaterializedSet*
//
// The CAS winner emits the set from the sorted rows and fills its
// annotation entries; losers spin-yield on an acquire load. Readers only
// learn an element's rank from the published set view, so the
// acquire/release pair on the slot also orders every annotation entry that
// rank can index — the executor needs no read-side changes.
// ---------------------------------------------------------------------------

class TrieLazyState {
 public:
  struct MaterializedSet {
    TrieLevel::SetDesc desc;
    std::vector<uint32_t> uint_values;
    std::vector<uint64_t> words;
    std::vector<uint32_t> word_ranks;

    size_t HeapBytes() const {
      return sizeof(MaterializedSet) +
             uint_values.capacity() * sizeof(uint32_t) +
             words.capacity() * sizeof(uint64_t) +
             word_ranks.capacity() * sizeof(uint32_t);
    }
  };

  /// One deferred annotation fill: entry j of the target buffer (global
  /// element rank j of `level`) is computed from the sorted rows of
  /// element j when the set containing that element materializes.
  struct Fill {
    AnnotationMerge merge = AnnotationMerge::kSum;
    int level = 0;
    bool is_count = false;
    const int64_t* src_ints = nullptr;
    const double* src_reals = nullptr;
    const uint32_t* src_codes = nullptr;
    double* dst_reals = nullptr;
    int64_t* dst_ints = nullptr;
    uint32_t* dst_codes = nullptr;
  };

  struct LevelSlots {
    std::unique_ptr<std::atomic<MaterializedSet*>[]> slots;
    uint32_t num_sets = 0;
  };

  ~TrieLazyState() {
    for (LevelSlots& ls : slots_) {
      for (uint32_t s = 0; s < ls.num_sets; ++s) {
        // Acquire pairs with the builder's release publish so the payload
        // vectors are fully constructed before the destructor frees them.
        MaterializedSet* m = ls.slots[s].load(std::memory_order_acquire);
        if (IsReal(m)) std::unique_ptr<MaterializedSet> reclaim(m);
      }
    }
  }

  /// Set view for `set_idx` of a lazy `level`, materializing on first call.
  SetView SetOf(const TrieLevel& level, uint32_t set_idx);

  /// Bytes of retained build state (rows, element starts, slot arrays) —
  /// the fixed cost of keeping a trie lazily materializable.
  size_t RetainedBytes() const {
    size_t total = sizeof(TrieLazyState);
    total += rows_.capacity() * sizeof(uint32_t);
    for (const std::vector<uint32_t>& e : elem_starts_) {
      total += e.capacity() * sizeof(uint32_t);
    }
    for (const LevelSlots& ls : slots_) {
      total += ls.num_sets * sizeof(std::atomic<MaterializedSet*>);
    }
    total += fills_.capacity() * sizeof(Fill);
    return total;
  }

  uint64_t materialized_bytes() const {
    // Relaxed: a monotone byte tally for cache accounting; a read that
    // trails an in-flight materialization only under-reports until the
    // next resample. Payloads are published through the slot stores.
    return materialized_bytes_.load(std::memory_order_relaxed);
  }

  uint64_t materialized_sets() const {
    // Relaxed: diagnostic monotone tally; nothing is published through it.
    return materialized_sets_.load(std::memory_order_relaxed);
  }

 private:
  friend class Trie;

  static bool IsReal(const MaterializedSet* m) {
    return reinterpret_cast<uintptr_t>(m) > 1;
  }
  static MaterializedSet* Building() {
    return reinterpret_cast<MaterializedSet*>(uintptr_t{1});
  }
  static SetView View(const MaterializedSet& m) {
    SetView v;
    v.layout = m.desc.layout;
    v.cardinality = m.desc.cardinality;
    if (m.desc.layout == SetLayout::kUint) {
      v.values = m.uint_values.data();
    } else {
      v.words = m.words.data();
      v.word_ranks = m.word_ranks.data();
      v.word_base = m.desc.word_base;
      v.num_words = m.desc.num_words;
    }
    return v;
  }

  std::unique_ptr<MaterializedSet> Materialize(const TrieLevel& level,
                                               uint32_t set_idx);

  int first_lazy_ = 0;
  std::vector<uint32_t> rows_;                     // sorted row permutation
  std::vector<const uint32_t*> key_codes_;         // per level, borrowed
  std::vector<std::vector<uint32_t>> elem_starts_;  // lazy levels only
  std::vector<Fill> fills_;
  /// Keeps computed annotation sources alive for the trie's lifetime
  /// (TrieAnnotationSpec::owned_reals).
  std::vector<std::shared_ptr<const std::vector<double>>> owned_sources_;
  std::vector<LevelSlots> slots_;  // index: level - first_lazy_
  std::atomic<uint64_t> materialized_sets_{0};
  std::atomic<uint64_t> materialized_bytes_{0};
};

SetView TrieLazyState::SetOf(const TrieLevel& level, uint32_t set_idx) {
  LevelSlots& ls = slots_[level.level_index_ - first_lazy_];
  LH_DCHECK_BOUNDS(set_idx, ls.num_sets);
  std::atomic<MaterializedSet*>& slot = ls.slots[set_idx];
  // Acquire pairs with the publishing release store below: it orders the
  // payload and every annotation entry of the set's rank range before any
  // use of a rank learned from this view.
  MaterializedSet* m = slot.load(std::memory_order_acquire);
  if (IsReal(m)) return View(*m);
  if (m == nullptr) {
    MaterializedSet* expected = nullptr;
    // The CAS winner is this set's single builder (the PR-4 single-flight
    // discipline at per-set granularity). Acquire on failure: the slot may
    // already hold another thread's published set.
    if (slot.compare_exchange_strong(expected, Building(),
                                     std::memory_order_acq_rel,
                                     std::memory_order_acquire)) {
      MaterializedSet* built = Materialize(level, set_idx).release();
      // Release-publish the payload and annotation entries to every reader
      // that acquires this slot.
      slot.store(built, std::memory_order_release);
      return View(*built);
    }
    m = expected;
    if (IsReal(m)) return View(*m);
  }
  // Another thread is building this set; spin-yield until it publishes.
  do {
    std::this_thread::yield();
    m = slot.load(std::memory_order_acquire);
  } while (!IsReal(m));
  return View(*m);
}

std::unique_ptr<TrieLazyState::MaterializedSet> TrieLazyState::Materialize(
    const TrieLevel& level, uint32_t set_idx) {
  const int l = level.level_index_;
  const std::vector<uint32_t>& starts = elem_starts_[l];
  const uint32_t b = level.set_base_[set_idx];
  const uint32_t e = level.set_base_[set_idx + 1];
  const uint32_t* kcl = key_codes_[l];

  std::vector<uint32_t> vals(e - b);
  for (uint32_t j = b; j < e; ++j) vals[j - b] = kcl[rows_[starts[j]]];

  auto m = std::make_unique<MaterializedSet>();
  {
    // Reuse the eager emission path (layout choice, bitset build) against a
    // scratch level, then steal its buffers: offsets are zero-based, and
    // the payload bytes are identical to what the eager build would lay
    // out for this set.
    TrieLevel scratch;
    std::vector<uint64_t> scratch_words;
    std::vector<uint32_t> scratch_ranks;
    Trie::EmitSet(vals, b, &m->desc, &scratch, &scratch_words,
                  &scratch_ranks);
    m->uint_values = std::move(scratch.uint_values_);
    m->words = std::move(scratch.words_);
    m->word_ranks = std::move(scratch.word_ranks_);
  }

  const auto range_end = [&](uint32_t j) {
    return j + 1 < starts.size() ? starts[j + 1]
                                 : static_cast<uint32_t>(rows_.size());
  };
  for (const Fill& f : fills_) {
    if (f.level != l) continue;
    for (uint32_t j = b; j < e; ++j) {
      const uint32_t lo = starts[j];
      const uint32_t hi = range_end(j);
      if (f.is_count) {
        f.dst_ints[j] = hi - lo;
        continue;
      }
      if (f.merge == AnnotationMerge::kFirst) {
        const uint32_t row = rows_[lo];
        if (f.dst_ints != nullptr) {
          f.dst_ints[j] = f.src_ints[row];
        } else if (f.dst_codes != nullptr) {
          f.dst_codes[j] = f.src_codes[row];
        } else {
          f.dst_reals[j] = f.src_reals[row];
        }
        continue;
      }
      const auto source_double = [&](uint32_t r) -> double {
        if (f.src_reals != nullptr) return f.src_reals[r];
        if (f.src_ints != nullptr) return static_cast<double>(f.src_ints[r]);
        return static_cast<double>(f.src_codes[r]);
      };
      // Same fold order and initial value as the eager build, so lazy and
      // eager annotation values are bit-identical.
      double acc = f.merge == AnnotationMerge::kSum
                       ? 0.0
                       : source_double(rows_[lo]);
      for (uint32_t i = lo; i < hi; ++i) {
        const double v = source_double(rows_[i]);
        switch (f.merge) {
          case AnnotationMerge::kSum:
            acc += v;
            break;
          case AnnotationMerge::kMin:
            acc = TotalMin(acc, v);
            break;
          case AnnotationMerge::kMax:
            acc = TotalMax(acc, v);
            break;
          case AnnotationMerge::kFirst:
            break;
        }
      }
      f.dst_reals[j] = acc;
    }
  }

  const uint64_t bytes = m->HeapBytes();
  // Relaxed: independent monotone tally for diagnostics and cache
  // accounting; the payload itself is published through the slot store.
  materialized_sets_.fetch_add(1, std::memory_order_relaxed);
  // Relaxed: same rationale — a byte tally, nothing published through it.
  materialized_bytes_.fetch_add(bytes, std::memory_order_relaxed);
  if (obs::ExecStats* stats = obs::ActiveStats()) {
    stats->CountMaterializedSubtries();
    stats->CountLazyBytes(bytes);
  }
  return m;
}

Trie::Trie() = default;
Trie::~Trie() = default;
Trie::Trie(Trie&&) noexcept = default;
Trie& Trie::operator=(Trie&&) noexcept = default;

int Trie::lazy_levels() const {
  return lazy_ == nullptr
             ? 0
             : static_cast<int>(levels_.size()) - lazy_->first_lazy_;
}

uint64_t Trie::materialized_sets() const {
  return lazy_ == nullptr ? 0 : lazy_->materialized_sets();
}

SetView TrieLevel::set(uint32_t set_idx) const {
  if (lazy_ != nullptr) return lazy_->SetOf(*this, set_idx);
  LH_DCHECK_BOUNDS(set_idx, sets_.size());
  const SetDesc& d = sets_[set_idx];
  SetView v;
  v.layout = d.layout;
  v.cardinality = d.cardinality;
  if (d.layout == SetLayout::kUint) {
    v.values = uint_values_.data() + d.values_offset;
  } else {
    v.words = words_.data() + d.words_offset;
    v.word_ranks = word_ranks_.data() + d.words_offset;
    v.word_base = d.word_base;
    v.num_words = d.num_words;
  }
  return v;
}

uint32_t TrieLevel::AncestorOfLeaf(uint32_t leaf) const {
  LH_DCHECK_BOUNDS(leaf, leaf_end_);
  auto it = std::upper_bound(first_leaf_.begin(), first_leaf_.end(), leaf);
  LH_DCHECK(it != first_leaf_.begin());
  return static_cast<uint32_t>(it - first_leaf_.begin()) - 1;
}

int Trie::FindAnnotation(const std::string& name) const {
  for (size_t i = 0; i < annotations_.size(); ++i) {
    if (annotations_[i].name == name) return static_cast<int>(i);
  }
  return -1;
}

bool Trie::IsCompletelyDense() const {
  for (const TrieLevel& l : levels_) {
    if (!l.all_full()) return false;
  }
  return true;
}

size_t Trie::MemoryBytes() const {
  size_t total = 0;
  for (const TrieLevel& l : levels_) {
    total += l.sets_.size() * sizeof(TrieLevel::SetDesc);
    total += l.uint_values_.size() * sizeof(uint32_t);
    total += l.words_.size() * sizeof(uint64_t);
    total += l.word_ranks_.size() * sizeof(uint32_t);
    total += l.first_leaf_.size() * sizeof(uint32_t);
    total += l.set_base_.size() * sizeof(uint32_t);
  }
  if (lazy_ != nullptr) {
    // Retained build state plus payloads materialized so far — the cache
    // resamples this on every probe to track a partial trie as it grows.
    total += lazy_->RetainedBytes();
    total += static_cast<size_t>(lazy_->materialized_bytes());
  }
  for (const AnnotationBuffer& a : annotations_) {
    total += a.reals.size() * sizeof(double) +
             a.ints.size() * sizeof(int64_t) +
             a.codes.size() * sizeof(uint32_t);
  }
  return total;
}

// Appends one set (ascending `vals`) to `level`, choosing its layout.
void Trie::EmitSet(const std::vector<uint32_t>& vals, uint32_t base_rank,
             TrieLevel::SetDesc* desc, TrieLevel* level,
             std::vector<uint64_t>* scratch_words,
             std::vector<uint32_t>* scratch_ranks) {
  const uint32_t card = static_cast<uint32_t>(vals.size());
  desc->cardinality = card;
  desc->base_rank = base_rank;
  if (card == 0) {
    desc->layout = SetLayout::kUint;
    desc->values_offset = static_cast<uint32_t>(level->uint_values_.size());
    desc->words_offset = 0;
    desc->num_words = 0;
    desc->word_base = 0;
    return;
  }
  desc->layout = ChooseLayout(card, vals.front(), vals.back());
  if (desc->layout == SetLayout::kUint) {
    desc->values_offset = static_cast<uint32_t>(level->uint_values_.size());
    level->uint_values_.insert(level->uint_values_.end(), vals.begin(),
                               vals.end());
  } else {
    set_internal::BuildBitset(vals.data(), card, scratch_words, scratch_ranks,
                              &desc->word_base, &desc->num_words);
    desc->words_offset = static_cast<uint32_t>(level->words_.size());
    level->words_.insert(level->words_.end(), scratch_words->begin(),
                         scratch_words->begin() + desc->num_words);
    level->word_ranks_.insert(level->word_ranks_.end(),
                              scratch_ranks->begin(),
                              scratch_ranks->begin() + desc->num_words);
  }
}

Result<Trie> Trie::Build(const TrieBuildSpec& spec) {
  const size_t num_levels = spec.key_codes.size();
  if (num_levels == 0) {
    return Status::InvalidArgument("trie needs at least one key level");
  }
  const size_t table_rows = spec.key_codes[0]->size();
  for (const auto* codes : spec.key_codes) {
    if (codes == nullptr || codes->size() != table_rows) {
      return Status::InvalidArgument(
          "key code columns are missing or have mismatched lengths");
    }
  }
  for (const TrieAnnotationSpec& a : spec.annotations) {
    const size_t sources = (a.ints != nullptr) + (a.reals != nullptr) +
                           (a.codes != nullptr);
    if (sources != 1) {
      return Status::InvalidArgument("annotation " + a.name +
                                     " must have exactly one source column");
    }
    if (a.merge != AnnotationMerge::kFirst &&
        (a.codes != nullptr || a.type == ValueType::kString)) {
      return Status::InvalidArgument("annotation " + a.name +
                                     " cannot aggregate string values");
    }
  }

  // Row set (selection pushdown), sorted lexicographically by key codes.
  std::vector<uint32_t> rows;
  if (spec.selection != nullptr) {
    rows = *spec.selection;
  } else {
    rows.resize(table_rows);
    std::iota(rows.begin(), rows.end(), 0u);
  }
  const size_t n = rows.size();

  // Depth of the eager build. Level 0 is always eager (the WCOJ root set is
  // probed unconditionally), and empty builds gain nothing from deferral.
  int eager = spec.eager_levels;
  if (eager < 0 || eager > static_cast<int>(num_levels) || n == 0) {
    eager = static_cast<int>(num_levels);
  }
  if (eager < 1) eager = 1;

  std::vector<const uint32_t*> kc(num_levels);
  for (size_t l = 0; l < num_levels; ++l) kc[l] = spec.key_codes[l]->data();

  ThreadPool& pool = ThreadPool::Global();

  // Strict TOTAL order: ties on the full key tuple break on row id, so
  // duplicate key rows keep table order. That pins one canonical sorted
  // permutation — required both by the parallel sort (merge-tree invariant)
  // and by annotation merging, whose floating-point folds must visit
  // duplicates in one fixed sequence to stay bit-reproducible.
  const auto row_less = [&](uint32_t a, uint32_t b) {
    for (size_t l = 0; l < num_levels; ++l) {
      if (kc[l][a] != kc[l][b]) return kc[l][a] < kc[l][b];
    }
    return a < b;
  };
  if (!PackedRadixSortRows(&rows, kc, pool)) {
    ParallelSortRows(&rows, row_less, pool);
  }

  // dlev[i]: first key level on which sorted row i differs from row i-1
  // (num_levels when the full key tuple repeats). dlev[0] = 0.
  std::vector<uint32_t> dlev(n);
  pool.ParallelChunks(
      1, static_cast<int64_t>(n), AdaptiveGrain(n, kMinSortRun),
      [&](int, int64_t lo, int64_t hi) {
        for (int64_t i = lo; i < hi; ++i) {
          uint32_t d = static_cast<uint32_t>(num_levels);
          for (size_t l = 0; l < num_levels; ++l) {
            if (kc[l][rows[i]] != kc[l][rows[i - 1]]) {
              d = static_cast<uint32_t>(l);
              break;
            }
          }
          dlev[i] = d;
        }
      });
  if (n > 0) dlev[0] = 0;

  // Root-value starts (== level-0 element starts). Deeper levels are built
  // in parallel over partitions cut at these row positions: a partition
  // boundary has dlev == 0, so every per-partition set and element decision
  // matches what the sequential sweep would make, and fragments splice into
  // the identical level layout. Cuts depend only on cardinality — trie
  // bytes are the same at every thread count.
  std::vector<uint32_t> root_starts;
  for (size_t i = 0; i < n; ++i) {
    if (i == 0 || dlev[i] == 0) root_starts.push_back(static_cast<uint32_t>(i));
  }
  std::vector<uint32_t> part_start;
  {
    const int64_t part_grain = AdaptiveGrain(n, 1 << 14);
    int64_t next_target = 0;
    for (uint32_t rs : root_starts) {
      if (static_cast<int64_t>(rs) >= next_target) {
        part_start.push_back(rs);
        next_target = static_cast<int64_t>(rs) + part_grain;
      }
    }
  }

  Trie trie;
  trie.levels_.resize(num_levels);

  // Per-level element start positions (into `rows`), kept transiently for
  // annotation construction.
  std::vector<std::vector<uint32_t>> elem_starts(num_levels);

  // Builds level `l` (>= 1) over sorted-row range [ps, pe) into `level` /
  // `elems` — the whole range or one root-aligned partition. `ps` must be a
  // set boundary (row 0 or dlev[ps] < l).
  const auto build_level_range = [&](size_t l, size_t ps, size_t pe,
                                     TrieLevel* level,
                                     std::vector<uint32_t>* elems) {
    std::vector<uint64_t> scratch_words;
    std::vector<uint32_t> scratch_ranks;
    std::vector<uint32_t> current_vals;
    uint32_t base_rank = 0;
    for (size_t i = ps; i < pe; ++i) {
      const bool new_set = (i == ps) || dlev[i] < l;
      const bool new_elem = (i == ps) || dlev[i] <= l;
      if (new_set && i != ps) {
        TrieLevel::SetDesc desc;
        EmitSet(current_vals, base_rank, &desc, level, &scratch_words,
                &scratch_ranks);
        base_rank += desc.cardinality;
        level->sets_.push_back(desc);
        current_vals.clear();
      }
      if (new_elem) {
        current_vals.push_back(kc[l][rows[i]]);
        elems->push_back(static_cast<uint32_t>(i));
      }
    }
    TrieLevel::SetDesc desc;
    EmitSet(current_vals, base_rank, &desc, level, &scratch_words,
            &scratch_ranks);
    level->sets_.push_back(desc);
  };

  // Lazy-level rank skeleton: element starts and per-set base ranks from
  // dlev, with no payload emission. Chunk-parallel two-pass (count, then
  // fill at prefix offsets); both per-row predicates depend only on dlev,
  // so any chunking reproduces the sequential sweep exactly.
  const auto build_lazy_skeleton = [&](size_t l, TrieLevel* level,
                                       std::vector<uint32_t>* elems) {
    const int64_t grain =
        std::max<int64_t>(int64_t{1}, AdaptiveGrain(n, kMinSortRun));
    const size_t num_chunks =
        (n + static_cast<size_t>(grain) - 1) / static_cast<size_t>(grain);
    std::vector<uint64_t> elems_before(num_chunks + 1, 0);
    std::vector<uint64_t> sets_before(num_chunks + 1, 0);
    pool.ParallelFor(0, static_cast<int64_t>(num_chunks), 1,
                     [&](int, int64_t c) {
                       const size_t lo =
                           static_cast<size_t>(c) * static_cast<size_t>(grain);
                       const size_t hi =
                           std::min(n, lo + static_cast<size_t>(grain));
                       uint64_t ne = 0, ns = 0;
                       for (size_t i = lo; i < hi; ++i) {
                         if (i == 0 || dlev[i] <= l) ++ne;
                         if (i == 0 || dlev[i] < l) ++ns;
                       }
                       elems_before[c + 1] = ne;
                       sets_before[c + 1] = ns;
                     });
    for (size_t c = 0; c < num_chunks; ++c) {
      elems_before[c + 1] += elems_before[c];
      sets_before[c + 1] += sets_before[c];
    }
    elems->resize(elems_before[num_chunks]);
    std::vector<uint32_t>& set_base = level->set_base_;
    set_base.resize(sets_before[num_chunks] + 1);
    pool.ParallelFor(0, static_cast<int64_t>(num_chunks), 1,
                     [&](int, int64_t c) {
                       const size_t lo =
                           static_cast<size_t>(c) * static_cast<size_t>(grain);
                       const size_t hi =
                           std::min(n, lo + static_cast<size_t>(grain));
                       uint64_t ei = elems_before[c];
                       uint64_t si = sets_before[c];
                       for (size_t i = lo; i < hi; ++i) {
                         if (i == 0 || dlev[i] < l) {
                           set_base[si++] = static_cast<uint32_t>(ei);
                         }
                         if (i == 0 || dlev[i] <= l) {
                           (*elems)[ei++] = static_cast<uint32_t>(i);
                         }
                       }
                     });
    set_base.back() = static_cast<uint32_t>(elems->size());
  };

  for (size_t l = 0; l < num_levels; ++l) {
    TrieLevel& level = trie.levels_[l];
    level.level_index_ = static_cast<int>(l);
    if (static_cast<int>(l) >= eager) {
      build_lazy_skeleton(l, &level, &elem_starts[l]);
    } else if (l == 0) {
      // Level 0 is a single set of the root values.
      std::vector<uint64_t> scratch_words;
      std::vector<uint32_t> scratch_ranks;
      std::vector<uint32_t> vals;
      vals.reserve(root_starts.size());
      for (uint32_t rs : root_starts) vals.push_back(kc[0][rows[rs]]);
      TrieLevel::SetDesc desc;
      EmitSet(vals, 0, &desc, &level, &scratch_words, &scratch_ranks);
      level.sets_.push_back(desc);
      elem_starts[0] = root_starts;
    } else if (part_start.size() <= 1) {
      build_level_range(l, 0, n, &level, &elem_starts[l]);
    } else {
      const size_t num_parts = part_start.size();
      std::vector<TrieLevel> frags(num_parts);
      std::vector<std::vector<uint32_t>> frag_elems(num_parts);
      pool.ParallelFor(0, static_cast<int64_t>(num_parts), 1,
                       [&](int, int64_t p) {
                         const size_t ps = part_start[p];
                         const size_t pe = p + 1 < static_cast<int64_t>(
                                                       num_parts)
                                               ? part_start[p + 1]
                                               : n;
                         build_level_range(l, ps, pe, &frags[p],
                                           &frag_elems[p]);
                       });
      // Splice the fragments in partition order, rebasing buffer offsets
      // and global ranks by the preceding fragments' totals. Fragment-local
      // base_ranks are already cumulative within the fragment, so every set
      // shifts by the same constant: the element count of all prior
      // fragments.
      uint32_t rank_off = 0;
      for (size_t p = 0; p < num_parts; ++p) {
        const TrieLevel& f = frags[p];
        const uint32_t voff =
            static_cast<uint32_t>(level.uint_values_.size());
        const uint32_t woff = static_cast<uint32_t>(level.words_.size());
        uint32_t frag_elements = 0;
        for (TrieLevel::SetDesc d : f.sets_) {
          d.base_rank += rank_off;
          if (d.layout == SetLayout::kUint) {
            d.values_offset += voff;
          } else {
            d.words_offset += woff;
          }
          level.sets_.push_back(d);
          frag_elements += d.cardinality;
        }
        rank_off += frag_elements;
        level.uint_values_.insert(level.uint_values_.end(),
                                  f.uint_values_.begin(),
                                  f.uint_values_.end());
        level.words_.insert(level.words_.end(), f.words_.begin(),
                            f.words_.end());
        level.word_ranks_.insert(level.word_ranks_.end(),
                                 f.word_ranks_.begin(), f.word_ranks_.end());
        elem_starts[l].insert(elem_starts[l].end(), frag_elems[p].begin(),
                              frag_elems[p].end());
      }
    }
    level.num_elements_ = elem_starts[l].size();

    if (l < spec.domain_sizes.size() && spec.domain_sizes[l] > 0) {
      bool full = true;
      if (static_cast<int>(l) >= eager) {
        // Lazy level: cardinalities come from the base-rank skeleton.
        const std::vector<uint32_t>& sb = level.set_base_;
        for (size_t s = 0; s + 1 < sb.size(); ++s) {
          if (sb[s + 1] - sb[s] != spec.domain_sizes[l]) {
            full = false;
            break;
          }
        }
        full = full && sb.size() > 1 && n > 0;
      } else {
        for (const TrieLevel::SetDesc& s : level.sets_) {
          if (s.cardinality != spec.domain_sizes[l]) {
            full = false;
            break;
          }
        }
        full = full && !level.sets_.empty() && n > 0;
      }
      level.full_size_ = full ? spec.domain_sizes[l] : 0;
    }
  }

  // Leaf element ranges: [leaf_starts[j], leaf_starts[j+1]) over `rows`.
  const std::vector<uint32_t>& leaf_starts = elem_starts[num_levels - 1];
  const size_t num_leaves = leaf_starts.size();

  // Per-level first-leaf index (subtree leaf ranges). Every element start
  // row is also a leaf start row: each chunk binary-searches its first
  // element, then walks a two-pointer like the sequential sweep.
  for (size_t l = 0; l < num_levels; ++l) {
    TrieLevel& level = trie.levels_[l];
    const std::vector<uint32_t>& starts = elem_starts[l];
    level.first_leaf_.resize(starts.size());
    pool.ParallelChunks(
        0, static_cast<int64_t>(starts.size()),
        AdaptiveGrain(starts.size(), 1 << 14),
        [&](int, int64_t jlo, int64_t jhi) {
          size_t leaf = static_cast<size_t>(
              std::lower_bound(leaf_starts.begin(), leaf_starts.end(),
                               starts[jlo]) -
              leaf_starts.begin());
          for (int64_t j = jlo; j < jhi; ++j) {
            while (leaf < num_leaves && leaf_starts[leaf] < starts[j]) {
              ++leaf;
            }
            level.first_leaf_[j] = static_cast<uint32_t>(leaf);
          }
        });
    level.leaf_end_ = static_cast<uint32_t>(num_leaves);
  }

  auto elem_range_end = [&](const std::vector<uint32_t>& starts, size_t j) {
    return j + 1 < starts.size() ? starts[j + 1]
                                 : static_cast<uint32_t>(n);
  };

  // Annotations attached at a lazy level pre-size their (zeroed) buffer now
  // — executor fast paths capture stable data pointers at setup — and
  // record a deferred fill that runs when each set materializes.
  std::vector<TrieLazyState::Fill> deferred_fills;
  std::vector<std::shared_ptr<const std::vector<double>>> owned_sources;
  const auto defer_fill = [&](const TrieAnnotationSpec& a, int attach,
                              AnnotationBuffer* buf) {
    TrieLazyState::Fill fill;
    fill.merge = a.merge;
    fill.level = attach;
    fill.src_ints = a.ints != nullptr ? a.ints->data() : nullptr;
    fill.src_reals = a.reals != nullptr ? a.reals->data() : nullptr;
    fill.src_codes = a.codes != nullptr ? a.codes->data() : nullptr;
    if (!buf->ints.empty()) {
      fill.dst_ints = buf->ints.data();
    } else if (!buf->codes.empty()) {
      fill.dst_codes = buf->codes.data();
    } else {
      fill.dst_reals = buf->reals.data();
    }
    deferred_fills.push_back(fill);
    if (a.owned_reals != nullptr) owned_sources.push_back(a.owned_reals);
  };

  for (const TrieAnnotationSpec& a : spec.annotations) {
    AnnotationBuffer buf;
    buf.name = a.name;
    buf.dict = a.dict;

    auto source_double = [&](uint32_t row) -> double {
      if (a.reals != nullptr) return (*a.reals)[row];
      if (a.ints != nullptr) return static_cast<double>((*a.ints)[row]);
      return static_cast<double>((*a.codes)[row]);
    };

    if (a.merge != AnnotationMerge::kFirst) {
      buf.type = ValueType::kDouble;
      buf.level = static_cast<int>(num_levels) - 1;
      buf.reals.resize(num_leaves);
      if (buf.level >= eager) {
        // Leaf level is lazy: each leaf's fold runs when its set
        // materializes, in the same sorted-row order as the eager path.
        defer_fill(a, buf.level, &buf);
        trie.annotations_.push_back(std::move(buf));
        continue;
      }
      // Parallel over leaves; each leaf's fold runs whole on one thread in
      // sorted-row order, so the result is bit-identical to the sequential
      // build at any thread count.
      pool.ParallelChunks(
          0, static_cast<int64_t>(num_leaves),
          AdaptiveGrain(num_leaves, 1 << 13),
          [&](int, int64_t jlo, int64_t jhi) {
            for (int64_t j = jlo; j < jhi; ++j) {
              const uint32_t end = elem_range_end(leaf_starts, j);
              double acc = a.merge == AnnotationMerge::kSum
                               ? 0.0
                               : source_double(rows[leaf_starts[j]]);
              for (uint32_t i = leaf_starts[j]; i < end; ++i) {
                const double v = source_double(rows[i]);
                switch (a.merge) {
                  case AnnotationMerge::kSum:
                    acc += v;
                    break;
                  case AnnotationMerge::kMin:
                    acc = TotalMin(acc, v);
                    break;
                  case AnnotationMerge::kMax:
                    acc = TotalMax(acc, v);
                    break;
                  case AnnotationMerge::kFirst:
                    break;
                }
              }
              buf.reals[j] = acc;
            }
          });
    } else {
      // kFirst: attach at the shallowest level where the value is constant
      // within every element's row range.
      buf.type = a.type;
      int attach = static_cast<int>(num_levels) - 1;
      auto value_at = [&](uint32_t row) -> uint64_t {
        if (a.ints != nullptr) {
          return static_cast<uint64_t>((*a.ints)[row]);
        }
        if (a.codes != nullptr) return (*a.codes)[row];
        // Bit-compare doubles for constancy detection.
        double d = (*a.reals)[row];
        uint64_t bits;
        static_assert(sizeof(bits) == sizeof(d));
        __builtin_memcpy(&bits, &d, sizeof(bits));
        return bits;
      };
      auto constant_at_level = [&](int l) {
        const std::vector<uint32_t>& starts = elem_starts[l];
        std::atomic<bool> constant{true};
        pool.ParallelChunks(
            0, static_cast<int64_t>(starts.size()),
            AdaptiveGrain(starts.size(), 1 << 13),
            [&](int, int64_t jlo, int64_t jhi) {
              // Relaxed (all three ops on `constant`): a one-way false flag;
              // chunks that miss the store just scan rows whose answer no
              // longer matters, and the final load happens after the
              // ParallelChunks join, which orders every store before it.
              if (!constant.load(std::memory_order_relaxed)) return;
              for (int64_t j = jlo; j < jhi; ++j) {
                const uint32_t end = elem_range_end(starts, j);
                const uint64_t first = value_at(rows[starts[j]]);
                for (uint32_t i = starts[j] + 1; i < end; ++i) {
                  if (value_at(rows[i]) != first) {
                    // One-way flag; justified above.
                    constant.store(false, std::memory_order_relaxed);
                    return;
                  }
                }
              }
            });
        // Relaxed: reads after the join (see above).
        return constant.load(std::memory_order_relaxed);
      };
      bool found = false;
      for (int l = 0; l < static_cast<int>(num_levels) - 1; ++l) {
        if (constant_at_level(l)) {
          attach = l;
          found = true;
          break;
        }
      }
      if (!found && spec.verify_first_unique &&
          !constant_at_level(static_cast<int>(num_levels) - 1)) {
        return Status::ExecutionError(
            "annotation " + a.name +
            " is not functionally determined by the queried key attributes");
      }
      buf.level = attach;
      const std::vector<uint32_t>& starts = elem_starts[attach];
      const size_t count = starts.size();
      if (a.ints != nullptr) {
        buf.ints.resize(count);
      } else if (a.codes != nullptr) {
        buf.codes.resize(count);
      } else {
        buf.reals.resize(count);
      }
      if (attach >= eager) {
        // Attach level is lazy: gather each element's value when its set
        // materializes.
        defer_fill(a, attach, &buf);
        trie.annotations_.push_back(std::move(buf));
        continue;
      }
      pool.ParallelChunks(0, static_cast<int64_t>(count),
                          AdaptiveGrain(count, 1 << 14),
                          [&](int, int64_t jlo, int64_t jhi) {
                            for (int64_t j = jlo; j < jhi; ++j) {
                              const uint32_t row = rows[starts[j]];
                              if (a.ints != nullptr) {
                                buf.ints[j] = (*a.ints)[row];
                              } else if (a.codes != nullptr) {
                                buf.codes[j] = (*a.codes)[row];
                              } else {
                                buf.reals[j] = (*a.reals)[row];
                              }
                            }
                          });
    }
    trie.annotations_.push_back(std::move(buf));
  }

  if (spec.add_count_annotation) {
    AnnotationBuffer buf;
    buf.name = "#count";
    buf.type = ValueType::kInt64;
    buf.level = static_cast<int>(num_levels) - 1;
    buf.ints.resize(num_leaves);
    if (buf.level >= eager) {
      TrieLazyState::Fill fill;
      fill.level = buf.level;
      fill.is_count = true;
      fill.dst_ints = buf.ints.data();
      deferred_fills.push_back(fill);
    } else {
      pool.ParallelChunks(0, static_cast<int64_t>(num_leaves),
                          AdaptiveGrain(num_leaves, 1 << 14),
                          [&](int, int64_t jlo, int64_t jhi) {
                            for (int64_t j = jlo; j < jhi; ++j) {
                              buf.ints[j] = elem_range_end(leaf_starts, j) -
                                            leaf_starts[j];
                            }
                          });
    }
    trie.annotations_.push_back(std::move(buf));
  }

  if (eager < static_cast<int>(num_levels)) {
    auto lazy = std::make_unique<TrieLazyState>();
    lazy->first_lazy_ = eager;
    lazy->key_codes_ = kc;
    lazy->fills_ = std::move(deferred_fills);
    lazy->owned_sources_ = std::move(owned_sources);
    lazy->elem_starts_.resize(num_levels);
    lazy->slots_.resize(num_levels - static_cast<size_t>(eager));
    for (size_t l = static_cast<size_t>(eager); l < num_levels; ++l) {
      TrieLevel& level = trie.levels_[l];
      lazy->elem_starts_[l] = std::move(elem_starts[l]);
      const uint32_t num_sets =
          static_cast<uint32_t>(level.set_base_.size() - 1);
      TrieLazyState::LevelSlots& ls = lazy->slots_[l - eager];
      ls.num_sets = num_sets;
      ls.slots = std::make_unique<std::atomic<TrieLazyState::MaterializedSet*>[]>(
          num_sets);
      level.lazy_ = lazy.get();
    }
    lazy->rows_ = std::move(rows);
    trie.lazy_ = std::move(lazy);
    if (obs::ExecStats* stats = obs::ActiveStats()) {
      stats->CountLazyLevels(
          static_cast<uint64_t>(static_cast<int>(num_levels) - eager));
    }
  }

  if (obs::ExecStats* stats = obs::ActiveStats()) stats->CountTrieBuilt();
  return trie;
}

}  // namespace levelheaded
