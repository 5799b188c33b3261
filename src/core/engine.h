// The LevelHeaded engine: SQL in, columnar results out (Figure 2).
//
//   Catalog catalog;                       // tables + shared key domains
//   ... create tables, load data ...
//   catalog.Finalize();
//   Engine engine(&catalog);
//   auto result = engine.Query("SELECT ...");
//
// Query processing follows §III: parse -> bind -> hypergraph -> GHD ->
// cost-based attribute ordering -> generic WCOJ execution (or the scan /
// dense-BLAS fast paths).

#ifndef LEVELHEADED_CORE_ENGINE_H_
#define LEVELHEADED_CORE_ENGINE_H_

#include <string>
#include <vector>

#include "core/cancel.h"
#include "core/executor.h"
#include "core/options.h"
#include "core/plan.h"
#include "core/result.h"
#include "obs/slow_query_log.h"
#include "obs/stats.h"
#include "storage/table.h"
#include "util/status.h"

namespace levelheaded {

/// Plan diagnostics for tooling and the Figure 5 experiments.
struct ExplainInfo {
  bool scan_only = false;
  DenseKernel dense = DenseKernel::kNone;
  size_t num_ghd_nodes = 0;
  double fhw = 0;
  std::string root_order;
  double root_cost = 0;
  bool union_relaxed = false;
  /// Every valid root attribute order with its cost, best first. Each entry
  /// is (comma-joined vertex names, cost, relaxed?).
  struct Candidate {
    std::string order;
    double cost = 0;
    bool union_relaxed = false;
  };
  std::vector<Candidate> root_candidates;
};

/// Engine-lifetime configuration (per-query knobs live in QueryOptions).
struct EngineOptions {
  /// Trie-cache memory budget in bytes; 0 = unbounded. When set, least-
  /// recently-used cached tries are evicted to stay under budget (tries a
  /// running query still holds are never evicted mid-query).
  size_t trie_cache_budget_bytes = 0;
  /// Trie-cache lock shards (concurrent probes of different relations
  /// contend per-shard, not globally).
  int trie_cache_shards = 8;
  /// Max rows one query may accumulate/materialize (0 = unlimited). Hitting
  /// the bound returns a clean kResourceExhausted instead of an OOM on
  /// accidental cross-product SELECTs; servers should set a sane default
  /// (lh_serve defaults to 4M rows).
  size_t max_result_rows = 0;
  /// Queries (ok or failed) whose wall time crosses this threshold are
  /// recorded in the engine's slow-query log (DESIGN.md §13). 0 disables
  /// the log.
  double slow_query_ms = 0;
  /// Most-recent slow queries the log retains.
  size_t slow_query_log_capacity = 128;
};

/// A facade over parse/bind/plan/execute with a shared trie cache.
///
/// Thread-safe: concurrent Query / QueryAnalyze / Explain calls from any
/// number of threads are supported. The trie cache is sharded and lock-
/// protected with single-flight build deduplication, and EXPLAIN ANALYZE
/// counters are collected per query through a thread-local hook the thread
/// pool propagates to its workers, so overlapping queries never cross-
/// attribute counters (DESIGN.md §11).
class Engine {
 public:
  /// `catalog` must be finalized and outlive the engine.
  explicit Engine(Catalog* catalog, const EngineOptions& options = {})
      : catalog_(catalog),
        options_(options),
        trie_cache_(TrieCache::Config{options.trie_cache_budget_bytes,
                                      options.trie_cache_shards}),
        slow_query_log_(options.slow_query_log_capacity,
                        options.slow_query_ms) {}

  /// Runs one SELECT statement. Statements prefixed with EXPLAIN return the
  /// plan shape as a one-column ("QUERY PLAN") text result; EXPLAIN ANALYZE
  /// executes the query with stats collection and returns the rendered
  /// profile (span tree + counters) instead of the query's rows.
  [[nodiscard]] Result<QueryResult> Query(
      const std::string& sql,
      const QueryOptions& options = QueryOptions());

  /// Runs one SELECT with stats collection forced on: the normal result
  /// rows plus the execution profile in QueryResult::profile.
  [[nodiscard]] Result<QueryResult> QueryAnalyze(
      const std::string& sql,
      const QueryOptions& options = QueryOptions());

  /// Plans without executing.
  [[nodiscard]] Result<ExplainInfo> Explain(
      const std::string& sql,
      const QueryOptions& options = QueryOptions());

  /// The unfiltered-trie cache ("index creation"); exposed so benchmarks
  /// can warm or clear it explicitly.
  TrieCache* trie_cache() { return &trie_cache_; }

  /// Engine-lifetime execution counters: the sum of every profiled query's
  /// counter snapshot (plain queries without collect_stats contribute
  /// nothing), with cache_bytes sampled live from the trie cache. Feeds
  /// the exec.*/pool.* families on the metrics surfaces.
  [[nodiscard]] obs::StatsSnapshot LifetimeStats() const;

  /// The slow-query log (disabled unless EngineOptions::slow_query_ms > 0).
  obs::SlowQueryLog* slow_query_log() { return &slow_query_log_; }

 private:
  [[nodiscard]] Result<QueryResult> RunQuery(const std::string& sql,
                               const QueryOptions& options);
  [[nodiscard]] Result<QueryResult> RunQueryImpl(const std::string& sql,
                               const QueryOptions& options);
  [[nodiscard]] Result<PhysicalPlan> Prepare(const std::string& sql,
                               const QueryOptions& options,
                               QueryResult::Timing* timing, obs::Trace* trace,
                               const QueryGuard* guard = nullptr);
  /// Per-query cancellation/limit view from the query + engine options;
  /// the deadline clock starts at the call.
  [[nodiscard]] QueryGuard MakeGuard(const QueryOptions& options) const;

  // Synchronization inventory (DESIGN.md §14): the engine itself holds no
  // mutex. catalog_/options_ are immutable after construction; all shared
  // mutable state lives in the members below, each internally synchronized
  // (trie_cache_: ranked shard/flight/evict mutexes; lifetime_stats_:
  // relaxed atomic counters; slow_query_log_: one ranked mutex).
  Catalog* catalog_;
  EngineOptions options_;
  TrieCache trie_cache_;
  /// Accumulates profiled queries' counters; see LifetimeStats().
  obs::ExecStats lifetime_stats_;
  obs::SlowQueryLog slow_query_log_;
};

}  // namespace levelheaded

#endif  // LEVELHEADED_CORE_ENGINE_H_
