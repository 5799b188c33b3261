#include "storage/trie.h"

#include <algorithm>
#include <atomic>
#include <numeric>
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

SetView TrieLevel::set(uint32_t set_idx) const {
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

  for (size_t l = 0; l < num_levels; ++l) {
    TrieLevel& level = trie.levels_[l];
    if (l == 0) {
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
      for (const TrieLevel::SetDesc& s : level.sets_) {
        if (s.cardinality != spec.domain_sizes[l]) {
          full = false;
          break;
        }
      }
      full = full && !level.sets_.empty() && n > 0;
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
    pool.ParallelChunks(0, static_cast<int64_t>(num_leaves),
                        AdaptiveGrain(num_leaves, 1 << 14),
                        [&](int, int64_t jlo, int64_t jhi) {
                          for (int64_t j = jlo; j < jhi; ++j) {
                            buf.ints[j] = elem_range_end(leaf_starts, j) -
                                          leaf_starts[j];
                          }
                        });
    trie.annotations_.push_back(std::move(buf));
  }

  if (obs::ExecStats* stats = obs::ActiveStats()) stats->CountTrieBuilt();
  return trie;
}

}  // namespace levelheaded
