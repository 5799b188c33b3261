// Shared cache of unfiltered query tries ("index creation" in the paper's
// measurement protocol, §VI-A: tries are built once per (table, key order,
// annotations) signature and reused across queries).
//
// The cache is the engine's central piece of cross-query shared mutable
// state, so it is built for concurrent callers:
//
//   * Sharded storage. Signatures hash onto shards, each guarded by its own
//     shared_mutex: lookups take a shard's shared lock, inserts/evictions
//     its exclusive lock. Hot concurrent probes of different relations
//     never contend on one mutex.
//   * Memory budget with LRU eviction. Entries are charged their
//     Trie::MemoryBytes(); when an insert pushes the total over the budget,
//     least-recently-used entries are dropped — except entries some query
//     is still executing against (their shared_ptr use count shows external
//     holders), which are never evicted mid-query.
//   * Single-flight build deduplication. N queries missing on the same
//     signature elect one leader that runs the build; the others wait on a
//     shared future and reuse the leader's trie instead of building N
//     copies (EmptyHeaded/Free Join treat the trie as exactly this kind of
//     build-once shared index).
//
// Accounting is two-level: hits/misses are *logical* (one per lookup, even
// though a lookup probes up to two signature variants), probes are the raw
// per-signature count. validate_stats and the docs glossary key on the
// counter names in obs/stats.cc.

#ifndef LEVELHEADED_CORE_TRIE_CACHE_H_
#define LEVELHEADED_CORE_TRIE_CACHE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "storage/trie.h"
#include "util/lock_rank.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace levelheaded {

class TrieCache {
 public:
  struct Config {
    /// Resident-bytes budget; 0 = unbounded (the default keeps benchmark
    /// warm-cache behavior byte-for-byte unchanged).
    size_t budget_bytes = 0;
    /// Number of lock shards (clamped to >= 1).
    int num_shards = 8;
  };

  /// How a GetOrBuild lookup was satisfied.
  enum class Outcome {
    kHit,     ///< found in the cache
    kBuilt,   ///< this caller was the single-flight leader and built it
    kWaited,  ///< reused a concurrent leader's in-flight build
  };

  /// What a build function returns: the signature to cache the trie under
  /// (the build may widen it, e.g. with a "|rowid" surrogate level) and the
  /// built trie.
  struct Built {
    std::string signature;
    std::shared_ptr<Trie> trie;
  };
  using BuildFn = std::function<Result<Built>()>;

  TrieCache();  // default Config
  explicit TrieCache(Config config);

  /// Looks up `probe_signatures` in order; on miss, runs `build_fn` exactly
  /// once across all concurrent callers of the same base signature
  /// (probe_signatures[0]) and inserts the result. Counts one logical
  /// hit/miss per call plus one raw probe per signature tried, into both
  /// the lifetime tallies and the calling query's ActiveStats() hook.
  /// `outcome`, when non-null, reports how the lookup was satisfied.
  [[nodiscard]] Result<std::shared_ptr<Trie>> GetOrBuild(
      const std::vector<std::string>& probe_signatures,
      const BuildFn& build_fn, Outcome* outcome = nullptr);

  /// Plain probe of one signature (tests, cache warmers). Counts one
  /// probe and one logical hit/miss.
  std::shared_ptr<Trie> Get(const std::string& signature);

  /// Inserts (or replaces) an entry and enforces the budget. Null tries
  /// are ignored.
  void Put(const std::string& signature, std::shared_ptr<Trie> trie);

  /// Drops every cached entry AND detaches the in-flight builds.
  ///
  /// Clear-vs-GetOrBuild contract (tests/concurrency_stress_test):
  ///   * After Clear() returns, flights_ is empty: the next miss on any
  ///     signature elects a fresh leader instead of waiting on a build that
  ///     predates the clear.
  ///   * A leader that registered its flight *before* the clear completes
  ///     its build privately — it returns the trie to its own caller but
  ///     does not Put it, so pre-clear builds never repopulate the cache.
  ///     Its waiting followers are woken normally, miss, and take another
  ///     lap under the new epoch.
  ///   * Builds that start after the clear cache normally. A Put racing
  ///     with the clear's shard sweep may land on either side of it.
  void Clear();
  size_t size() const;
  /// Resident bytes currently charged against the budget.
  size_t bytes() const { return bytes_.load(kRelaxed); }
  size_t budget_bytes() const { return config_.budget_bytes; }

  /// Lifetime tallies (across all queries against this cache).
  uint64_t hits() const { return hits_.load(kRelaxed); }
  uint64_t misses() const { return misses_.load(kRelaxed); }
  uint64_t probes() const { return probes_.load(kRelaxed); }
  uint64_t evictions() const { return evictions_.load(kRelaxed); }
  uint64_t build_waits() const { return build_waits_.load(kRelaxed); }
  /// Build functions actually executed (single-flight: concurrent misses on
  /// one signature still count one build).
  uint64_t builds() const { return builds_.load(kRelaxed); }

 private:
  /// Relaxed ordering: every counter here is an independent monotone tally
  /// (or, for stamp/tick_, an LRU heuristic where a stale read only picks a
  /// slightly different eviction victim); nothing is published *through*
  /// these atomics — entry payloads travel under the shard locks.
  static constexpr auto kRelaxed = std::memory_order_relaxed;

  struct Entry {
    std::shared_ptr<Trie> trie;
    /// Bytes charged against the budget for this entry: the trie's
    /// MemoryBytes(), taken once in Put (a built trie never grows).
    size_t bytes = 0;
    /// Last-touch tick for LRU ordering; updated under the shard's shared
    /// lock, hence atomic.
    std::atomic<uint64_t> stamp{0};
  };

  struct Shard {
    mutable SharedMutex mu{LockRank::kCacheShard};
    std::unordered_map<std::string, std::unique_ptr<Entry>> map
        LH_GUARDED_BY(mu);
  };

  /// One in-flight build, keyed by base signature.
  struct Flight {
    std::shared_future<Status> done;
  };

  Shard& ShardFor(const std::string& signature);
  /// Probes without flight coordination; returns nullptr on miss.
  std::shared_ptr<Trie> Probe(const std::string& signature);
  /// Drops LRU entries (skipping in-use ones) until within budget.
  /// Callers hold no cache locks (it takes evict_mu_, then shard locks).
  void EnforceBudget() LH_EXCLUDES(evict_mu_);

  Config config_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<size_t> bytes_{0};
  std::atomic<uint64_t> tick_{0};

  Mutex flight_mu_{LockRank::kCacheFlight};
  std::unordered_map<std::string, std::shared_ptr<Flight>> flights_
      LH_GUARDED_BY(flight_mu_);
  /// Bumped by Clear(). A single-flight leader snapshots it at registration
  /// and skips the Put when it changed by finish time (its build is
  /// detached: the result goes to its caller, not the cleared cache).
  uint64_t clear_epoch_ LH_GUARDED_BY(flight_mu_) = 0;
  /// Serializes budget-enforcement scans (a phase lock over the scan loop;
  /// the data it walks is guarded by the shard locks, taken inside it).
  Mutex evict_mu_{LockRank::kCacheEvict};  // lint: unguarded(phase lock: one evictor at a time, guards no fields)

  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> probes_{0};
  std::atomic<uint64_t> evictions_{0};
  std::atomic<uint64_t> build_waits_{0};
  std::atomic<uint64_t> builds_{0};
};

}  // namespace levelheaded

#endif  // LEVELHEADED_CORE_TRIE_CACHE_H_
