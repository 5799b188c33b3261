// Plan execution: trie construction (with selection pushdown and caching),
// the interpreted generic worst-case-optimal join (Algorithm 1) over GHD
// nodes, Yannakakis-style existential semijoins for child nodes, the
// column-scan path for join-free queries, and the dense BLAS dispatch.

#ifndef LEVELHEADED_CORE_EXECUTOR_H_
#define LEVELHEADED_CORE_EXECUTOR_H_

#include <cstdint>
#include <memory>

#include "core/plan.h"
#include "core/result.h"
#include "core/trie_cache.h"
#include "storage/table.h"
#include "storage/trie.h"
#include "util/status.h"

namespace levelheaded {

class ThreadPool;

namespace obs {
struct QueryObs;
}  // namespace obs

/// Executes a physical plan. `cache` may be nullptr (no trie reuse); it is
/// the engine's shared, thread-safe trie cache (core/trie_cache.h), so
/// plans for different queries may execute concurrently.
/// Timing fields filter_ms / exec_ms / index_build_ms are filled here.
/// `qobs`, when non-null, receives tracing spans, per-node tuple counts, and
/// coordinator-side counters (kernel counters flow through the global
/// ActiveStats() hook, activated by the engine).
/// `guard`, when non-null, is polled cooperatively at adaptive-grain
/// boundaries (core/cancel.h): deadline/cancel unwinds with
/// kDeadlineExceeded / kCancelled, and the max_result_rows bound is
/// enforced during accumulation and on the final row count, before the
/// output columns are allocated.
[[nodiscard]] Result<QueryResult> ExecutePlan(const PhysicalPlan& plan,
                                const Catalog& catalog, TrieCache* cache,
                                QueryResult::Timing* timing,
                                obs::QueryObs* qobs = nullptr,
                                const QueryGuard* guard = nullptr);

/// Phase-split execution handle for the scatter-gather router (src/shard).
///
/// ExecutePlan's scan and join paths already decompose their work into
/// cardinality-only adaptive-grain chunks whose boundaries are the
/// floating-point merge boundaries (DESIGN.md §10): per-chunk partial
/// accumulators are folded in global chunk order, so results are
/// bit-identical no matter which thread runs which chunk. ChunkedPlanExec
/// exposes exactly those chunks to an external scheduler: Prepare runs the
/// serial setup (trie builds, semijoin children, root-set computation) on
/// the calling thread, RunChunk executes one chunk (thread-safe for
/// distinct chunks; `pool` receives nested skew-split sub-tasks), and
/// Gather merges the partials in chunk order, materializes (decoding on the
/// pools the chunks ran on), and applies the same row-bound check and
/// ORDER BY / LIMIT tail as ExecutePlan — so a scattered run returns
/// byte-for-byte the single-engine answer.
///
/// Lifetime: `plan`, `catalog`, `timing`, `qobs`, and `guard` must outlive
/// the handle. Run every chunk at most once, then call Gather exactly once.
class ChunkedPlanExec {
 public:
  /// True when `plan` routes through the chunked scan/join paths. Dense
  /// BLAS dispatch and always-empty plans execute whole — route them
  /// through ExecutePlan instead.
  static bool Chunkable(const PhysicalPlan& plan);

  /// Runs plan setup; on success the handle has num_chunks() runnable
  /// chunks (possibly zero — Gather alone then produces the empty result).
  static Result<std::unique_ptr<ChunkedPlanExec>> Prepare(
      const PhysicalPlan& plan, const Catalog& catalog, TrieCache* cache,
      QueryResult::Timing* timing, obs::QueryObs* qobs,
      const QueryGuard* guard);

  ~ChunkedPlanExec();
  ChunkedPlanExec(const ChunkedPlanExec&) = delete;
  ChunkedPlanExec& operator=(const ChunkedPlanExec&) = delete;

  int64_t num_chunks() const;

  /// Executes chunk `chunk` on the calling thread. Safe to call
  /// concurrently for distinct chunks. Skew-split sub-tasks spawned by a
  /// heavy root value are submitted to `pool`.
  void RunChunk(int64_t chunk, ThreadPool& pool);

  /// Merges per-chunk partials in chunk order and materializes the result
  /// (or the recorded abort status). Call once, after all RunChunk calls
  /// have returned, while the pools they ran on are alive.
  [[nodiscard]] Result<QueryResult> Gather();

 private:
  ChunkedPlanExec();
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace levelheaded

#endif  // LEVELHEADED_CORE_EXECUTOR_H_
