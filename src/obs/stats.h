// Execution counters for one query: set intersections by kernel type,
// trie traversal and build activity, trie-cache effectiveness, and thread
// pool scheduling. The paper's cost model (§V-A1) prices exactly these
// kernel invocations (uint/uint = 1, uint/bitset = 10, bitset/bitset = 50
// per element), so regressions in kernel dispatch show up here before they
// drift a benchmark table.
//
// Collection is off by default. Instrumentation sites in the hot kernels
// (set/intersect.cc, storage/trie.cc, util/thread_pool.cc) go through
// ActiveStats(): one thread-local load and a branch when disabled —
// measured < 2% on the Figure 5a intersection microbenchmark. While a
// query runs with QueryOptions::collect_stats, a StatsScope points the
// calling thread's hook at that query's ExecStats block; the thread pool
// captures the submitter's hook with each task/job and re-installs it on
// the worker, so concurrent queries never cross-attribute counters.
// Counters are atomic so pool workers can increment concurrently.

#ifndef LEVELHEADED_OBS_STATS_H_
#define LEVELHEADED_OBS_STATS_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace levelheaded::obs {

/// Intersection kernel layout pairs (§III-C layout dispatch).
enum class IntersectKernel : int {
  kUintUint = 0,
  kUintBitset = 1,
  kBitsetBitset = 2,
};

/// Plain-value snapshot of ExecStats — what QueryProfile stores and the
/// JSON/text renderers consume.
struct StatsSnapshot {
  uint64_t intersect_uint_uint = 0;
  uint64_t intersect_uint_bitset = 0;
  uint64_t intersect_bitset_bitset = 0;
  /// Sum of result cardinalities across all intersections.
  uint64_t intersect_result_values = 0;
  /// Intersections and Rank() probes the executor skipped because a trie
  /// level was full (every set the whole domain: icost 0, rank = base + v).
  uint64_t intersect_elided = 0;
  uint64_t trie_nodes_visited = 0;
  uint64_t tuples_emitted = 0;
  /// Logical cache lookups: one per relation probe, regardless of how many
  /// signature variants the probe tried (see trie_cache_probes).
  uint64_t trie_cache_hits = 0;
  uint64_t trie_cache_misses = 0;
  /// Raw signature probes. A lookup tries up to two signatures (plain and
  /// "|rowid"-widened), so probes >= hits + misses.
  uint64_t trie_cache_probes = 0;
  uint64_t tries_built = 0;
  /// Trie levels whose payloads were deferred to first probe by lazy
  /// builds this query started (DESIGN.md §16).
  uint64_t trie_lazy_levels = 0;
  /// Lazily deferred sets (subtries) this query materialized on first
  /// probe, including fills of the annotation entries attached there.
  uint64_t trie_materialized_subtries = 0;
  /// Payload bytes those materializations produced.
  uint64_t trie_lazy_bytes = 0;
  /// Trie-cache resident bytes after the query (gauge, not a counter).
  uint64_t cache_bytes = 0;
  /// Entries this query's inserts pushed out of the budgeted cache.
  uint64_t cache_evictions = 0;
  /// Lookups that waited on another query's in-flight build of the same
  /// signature (single-flight deduplication) instead of building.
  uint64_t cache_build_waits = 0;
  /// LIKE matchers compiled during per-row evaluation — the binder
  /// precompiles one matcher per expression, so this stays 0 for engine
  /// queries; nonzero means a pattern was recompiled per tuple.
  uint64_t expr_like_compiles = 0;
  /// Bound expressions successfully compiled to bytecode programs
  /// (DESIGN.md §15).
  uint64_t expr_programs = 0;
  /// Compile attempts that fell back to the tree-walking interpreter
  /// (unsupported shape).
  uint64_t expr_fallbacks = 0;
  /// Row evaluations executed by the batch VM (rows × programs).
  uint64_t expr_vm_rows = 0;
  /// Rows accumulated through the fused filter+aggregate scan kernel.
  uint64_t expr_fused_rows = 0;
  uint64_t thread_pool_chunks = 0;
  /// Tasks enqueued through ThreadPool::Submit (skew splits, parallel
  /// decode); ParallelChunks region runners are not counted.
  uint64_t pool_tasks_spawned = 0;
  /// Tasks that ran on a different thread slot than the one that submitted
  /// them — how much fan-out work other threads actually absorbed.
  uint64_t pool_task_steals = 0;
  /// Heavy root values whose level-1 iteration was split across tasks.
  uint64_t exec_skew_splits = 0;

  uint64_t TotalIntersections() const {
    return intersect_uint_uint + intersect_uint_bitset +
           intersect_bitset_bitset;
  }

  /// (counter name, value) pairs in render order — single source of truth
  /// for the text profile, the JSON schema, and the docs glossary.
  std::vector<std::pair<std::string, uint64_t>> Items() const;
};

/// Atomic counter block, safe for concurrent increments from thread-pool
/// workers. Relaxed ordering everywhere: counters are diagnostics, read
/// only after the query's joins/barriers complete.
class ExecStats {
 public:
  /// Relaxed ordering for every counter op: these are independent monotone
  /// tallies with no data published through them; readers (Snapshot, the
  /// metrics endpoint) run after the query's thread-pool join or tolerate
  /// being a few in-flight increments behind.
  static constexpr auto kRelaxed = std::memory_order_relaxed;

  void CountIntersect(IntersectKernel kernel, uint64_t result_cardinality) {
    intersect_[static_cast<int>(kernel)].fetch_add(
        1, kRelaxed);
    intersect_result_values_.fetch_add(result_cardinality,
                                       kRelaxed);
  }
  void CountIntersectElided(uint64_t n) {
    intersect_elided_.fetch_add(n, kRelaxed);
  }
  void CountTrieNodesVisited(uint64_t n) {
    trie_nodes_visited_.fetch_add(n, kRelaxed);
  }
  void CountTuplesEmitted(uint64_t n) {
    tuples_emitted_.fetch_add(n, kRelaxed);
  }
  void CountTrieCacheHit() {
    trie_cache_hits_.fetch_add(1, kRelaxed);
  }
  void CountTrieCacheMiss() {
    trie_cache_misses_.fetch_add(1, kRelaxed);
  }
  void CountTrieCacheProbe(uint64_t n = 1) {
    trie_cache_probes_.fetch_add(n, kRelaxed);
  }
  void CountTrieBuilt() { tries_built_.fetch_add(1, kRelaxed); }
  void CountLazyLevels(uint64_t n) {
    trie_lazy_levels_.fetch_add(n, kRelaxed);
  }
  void CountMaterializedSubtries(uint64_t n = 1) {
    trie_materialized_subtries_.fetch_add(n, kRelaxed);
  }
  void CountLazyBytes(uint64_t n) {
    trie_lazy_bytes_.fetch_add(n, kRelaxed);
  }
  void SetCacheBytes(uint64_t bytes) {
    cache_bytes_.store(bytes, kRelaxed);
  }
  void CountCacheEviction(uint64_t n = 1) {
    cache_evictions_.fetch_add(n, kRelaxed);
  }
  void CountCacheBuildWait() {
    cache_build_waits_.fetch_add(1, kRelaxed);
  }
  void CountLikeCompile() {
    expr_like_compiles_.fetch_add(1, kRelaxed);
  }
  void CountExprProgram() {
    expr_programs_.fetch_add(1, kRelaxed);
  }
  void CountExprFallback() {
    expr_fallbacks_.fetch_add(1, kRelaxed);
  }
  void CountExprVmRows(uint64_t n) {
    expr_vm_rows_.fetch_add(n, kRelaxed);
  }
  void CountExprFusedRows(uint64_t n) {
    expr_fused_rows_.fetch_add(n, kRelaxed);
  }
  void CountThreadPoolChunk(uint64_t n = 1) {
    thread_pool_chunks_.fetch_add(n, kRelaxed);
  }
  void CountTaskSpawned(uint64_t n = 1) {
    pool_tasks_spawned_.fetch_add(n, kRelaxed);
  }
  void CountTaskStolen(uint64_t n = 1) {
    pool_task_steals_.fetch_add(n, kRelaxed);
  }
  void CountSkewSplit(uint64_t n = 1) {
    exec_skew_splits_.fetch_add(n, kRelaxed);
  }

  StatsSnapshot Snapshot() const;
  void Reset();

  /// Accumulates a finished query's snapshot into this block — how the
  /// engine folds per-query profiles into its lifetime totals for the
  /// metrics endpoint. Counters add; cache_bytes (a gauge) takes the
  /// incoming sample.
  void Add(const StatsSnapshot& s);

 private:
  std::atomic<uint64_t> intersect_[3] = {};
  std::atomic<uint64_t> intersect_result_values_{0};
  std::atomic<uint64_t> intersect_elided_{0};
  std::atomic<uint64_t> trie_nodes_visited_{0};
  std::atomic<uint64_t> tuples_emitted_{0};
  std::atomic<uint64_t> trie_cache_hits_{0};
  std::atomic<uint64_t> trie_cache_misses_{0};
  std::atomic<uint64_t> trie_cache_probes_{0};
  std::atomic<uint64_t> tries_built_{0};
  std::atomic<uint64_t> trie_lazy_levels_{0};
  std::atomic<uint64_t> trie_materialized_subtries_{0};
  std::atomic<uint64_t> trie_lazy_bytes_{0};
  std::atomic<uint64_t> cache_bytes_{0};
  std::atomic<uint64_t> cache_evictions_{0};
  std::atomic<uint64_t> cache_build_waits_{0};
  std::atomic<uint64_t> expr_like_compiles_{0};
  std::atomic<uint64_t> expr_programs_{0};
  std::atomic<uint64_t> expr_fallbacks_{0};
  std::atomic<uint64_t> expr_vm_rows_{0};
  std::atomic<uint64_t> expr_fused_rows_{0};
  std::atomic<uint64_t> thread_pool_chunks_{0};
  std::atomic<uint64_t> pool_tasks_spawned_{0};
  std::atomic<uint64_t> pool_task_steals_{0};
  std::atomic<uint64_t> exec_skew_splits_{0};
};

/// The counter block the *calling thread* is collecting into, or null when
/// collection is off. Hot kernels check this before every increment. The
/// hook is thread-local: each concurrent query sees only its own block, and
/// the thread pool re-installs the submitting query's hook on whichever
/// worker runs its tasks (util/thread_pool.cc).
ExecStats* ActiveStats();

/// RAII activation of a counter block on the current thread. Scopes nest by
/// restoring the previous hook on destruction; because the hook is
/// thread-local, concurrent queries on different threads never clobber each
/// other's scope.
class StatsScope {
 public:
  explicit StatsScope(ExecStats* stats);
  ~StatsScope();
  StatsScope(const StatsScope&) = delete;
  StatsScope& operator=(const StatsScope&) = delete;

 private:
  ExecStats* previous_;
};

}  // namespace levelheaded::obs

#endif  // LEVELHEADED_OBS_STATS_H_
