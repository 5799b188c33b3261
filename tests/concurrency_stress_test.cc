// Concurrency stress suite — the TSan leg's main workload (labelled
// `concurrency` in tests/CMakeLists.txt; `ctest --preset tsan` runs it).
//
// Each test hammers one shared-state surface the engine relies on under
// concurrent queries: the global thread pool (concurrent ParallelFor /
// ParallelChunks drivers, pool construction/teardown churn), the atomic
// ExecStats counter block incremented by all workers, the thread-local
// ActiveStats() hook and its propagation into pool workers, the Trace span
// collector, the sharded TrieCache (logical hit/miss accounting,
// single-flight build dedup, budget eviction), and whole-Engine concurrent
// Query/QueryAnalyze callers. Sizes are small (the point is interleavings,
// not throughput) so the suite stays inside the tier-1 budget even under
// TSan.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <latch>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/engine.h"
#include "core/executor.h"
#include "obs/profile.h"
#include "obs/stats.h"
#include "obs/trace.h"
#include "storage/table.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace levelheaded {
namespace {

TEST(ThreadPoolStressTest, ConcurrentParallelChunksDrivers) {
  // Several caller threads drive the *same* global pool at once; their
  // regions interleave on the one task deque without losing or
  // double-running indices.
  constexpr int kCallers = 4;
  constexpr int64_t kN = 2000;
  std::vector<std::atomic<int64_t>> sums(kCallers);
  for (auto& s : sums) s.store(0);
  std::vector<std::thread> callers;
  callers.reserve(kCallers);
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([c, &sums] {
      ThreadPool::Global().ParallelChunks(
          0, kN, 7, [c, &sums](int, int64_t lo, int64_t hi) {
            int64_t local = 0;
            for (int64_t i = lo; i < hi; ++i) local += i;
            sums[c].fetch_add(local, std::memory_order_relaxed);
          });
    });
  }
  for (auto& t : callers) t.join();
  for (int c = 0; c < kCallers; ++c) {
    EXPECT_EQ(sums[c].load(), kN * (kN - 1) / 2) << "caller " << c;
  }
}

TEST(ThreadPoolStressTest, RegionsOfConcurrentCallersOverlapInTime) {
  // Each region's first chunk waits (bounded) for the other region to
  // enter: only regions that really run at the same time both see it.
  ThreadPool pool(2);
  constexpr auto kTimeout = std::chrono::seconds(2);
  std::atomic<bool> entered[2] = {false, false};
  std::atomic<bool> saw_other[2] = {false, false};
  std::vector<std::thread> callers;
  for (int c = 0; c < 2; ++c) {
    callers.emplace_back([&, c] {
      pool.ParallelChunks(0, 8, 1, [&, c](int, int64_t lo, int64_t) {
        if (lo != 0) return;
        entered[c].store(true);
        const auto deadline = std::chrono::steady_clock::now() + kTimeout;
        while (!entered[1 - c].load() &&
               std::chrono::steady_clock::now() < deadline) {
          std::this_thread::yield();
        }
        saw_other[c].store(entered[1 - c].load());
      });
    });
  }
  for (auto& t : callers) t.join();
  EXPECT_TRUE(saw_other[0].load());
  EXPECT_TRUE(saw_other[1].load());
}

TEST(ThreadPoolStressTest, OverlappingRegionsKeepSlotsExclusive) {
  // Per-slot scratch is only safe if, within one region, a slot is never
  // held by two running chunks at once — also while other regions share
  // the pool's threads.
  ThreadPool pool(3);
  constexpr int kRegions = 4;
  const int slots = pool.num_threads() + 1;
  std::atomic<int> out_of_range{0};
  std::atomic<int> double_held{0};
  std::atomic<int64_t> chunks_run{0};
  std::vector<std::thread> callers;
  for (int c = 0; c < kRegions; ++c) {
    callers.emplace_back([&] {
      for (int round = 0; round < 20; ++round) {
        std::vector<std::atomic<int>> in_use(static_cast<size_t>(slots));
        for (auto& u : in_use) u.store(0);
        pool.ParallelChunks(0, 64, 1, [&](int slot, int64_t, int64_t) {
          chunks_run.fetch_add(1, std::memory_order_relaxed);
          if (slot < 0 || slot >= slots) {
            ++out_of_range;
            return;
          }
          if (in_use[static_cast<size_t>(slot)].exchange(1) != 0) {
            ++double_held;
          }
          std::this_thread::yield();
          in_use[static_cast<size_t>(slot)].store(0);
        });
      }
    });
  }
  for (auto& t : callers) t.join();
  EXPECT_EQ(chunks_run.load(), int64_t{kRegions} * 20 * 64);
  EXPECT_EQ(out_of_range.load(), 0);
  EXPECT_EQ(double_held.load(), 0);
}

TEST(ThreadPoolStressTest, ConstructionTeardownChurn) {
  // Pools must join their workers cleanly even when destroyed immediately
  // after a burst of work (the shutdown handshake is a TSan magnet).
  for (int round = 0; round < 8; ++round) {
    ThreadPool pool(3);
    std::atomic<int64_t> count{0};
    pool.ParallelFor(0, 500, 1, [&count](int, int64_t) {
      count.fetch_add(1, std::memory_order_relaxed);
    });
    EXPECT_EQ(count.load(), 500);
  }
}

TEST(ThreadPoolStressTest, ThreadSlotsStayInRange) {
  ThreadPool pool(2);
  const int upper = pool.num_threads() + 1;
  std::atomic<bool> ok{true};
  pool.ParallelChunks(0, 1000, 3, [&ok, upper](int slot, int64_t, int64_t) {
    if (slot < 0 || slot >= upper) ok.store(false);
  });
  EXPECT_TRUE(ok.load());
}

TEST(ExecStatsStressTest, ConcurrentCountersAggregateExactly) {
  obs::ExecStats stats;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 5000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&stats] {
      for (int i = 0; i < kPerThread; ++i) {
        stats.CountIntersect(obs::IntersectKernel::kUintUint, 2);
        stats.CountTrieNodesVisited(3);
        stats.CountTuplesEmitted(1);
        stats.CountThreadPoolChunk();
      }
    });
  }
  for (auto& t : threads) t.join();
  const obs::StatsSnapshot snap = stats.Snapshot();
  EXPECT_EQ(snap.intersect_uint_uint,
            static_cast<uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(snap.intersect_result_values,
            static_cast<uint64_t>(kThreads) * kPerThread * 2);
  EXPECT_EQ(snap.trie_nodes_visited,
            static_cast<uint64_t>(kThreads) * kPerThread * 3);
  EXPECT_EQ(snap.tuples_emitted, static_cast<uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(snap.thread_pool_chunks,
            static_cast<uint64_t>(kThreads) * kPerThread);
}

TEST(ExecStatsStressTest, ActiveStatsHookVisibleToPoolWorkers) {
  // The engine publishes the hook before fanning work out; pool tasks must
  // inherit the submitting thread's hook (it is thread-local now, so
  // propagation is explicit via ThreadPool::Submit / ParallelChunks).
  obs::ExecStats stats;
  obs::StatsScope scope(&stats);
  ThreadPool::Global().ParallelFor(0, 3000, 5, [](int, int64_t) {
    if (obs::ExecStats* s = obs::ActiveStats()) {
      s->CountIntersect(obs::IntersectKernel::kBitsetBitset, 1);
    }
  });
  EXPECT_EQ(stats.Snapshot().intersect_bitset_bitset, 3000u);
}

TEST(ExecStatsStressTest, ConcurrentHooksStayIsolated) {
  // Two caller threads, two stats blocks, one shared pool: every increment
  // must land in the caller's own block even when workers interleave tasks
  // from both jobs.
  constexpr int kCallers = 4;
  constexpr int64_t kN = 4000;
  std::vector<obs::ExecStats> stats(kCallers);
  std::vector<std::thread> callers;
  callers.reserve(kCallers);
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([c, &stats] {
      obs::StatsScope scope(&stats[c]);
      ThreadPool::Global().ParallelFor(0, kN, 7, [](int, int64_t) {
        if (obs::ExecStats* s = obs::ActiveStats()) {
          s->CountTuplesEmitted(1);
        }
      });
    });
  }
  for (auto& t : callers) t.join();
  for (int c = 0; c < kCallers; ++c) {
    EXPECT_EQ(stats[c].Snapshot().tuples_emitted, static_cast<uint64_t>(kN))
        << "caller " << c;
  }
}

TEST(TraceStressTest, ConcurrentOpenCloseKeepsEverySpan) {
  obs::Trace trace;
  constexpr int kThreads = 6;
  constexpr int kPerThread = 400;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&trace] {
      for (int i = 0; i < kPerThread; ++i) {
        obs::TraceSpan span(&trace, "wcoj");
        span.AddMetric("tuples", 1.0);
      }
    });
  }
  for (auto& t : threads) t.join();
  const auto spans = trace.Spans();
  ASSERT_EQ(spans.size(), static_cast<size_t>(kThreads) * kPerThread);
  for (const auto& s : spans) {
    EXPECT_EQ(s.name, "wcoj");
    EXPECT_GE(s.duration_ms, 0.0);
  }
}

// --- TrieCache -------------------------------------------------------------

/// Builds a small real two-level trie (the cache charges Trie::MemoryBytes,
/// so entries must be actual tries, not nulls).
std::shared_ptr<Trie> MakeTrie(uint32_t salt = 0, size_t tuples = 8) {
  std::vector<uint32_t> a(tuples), b(tuples);
  std::vector<double> w(tuples);
  for (size_t i = 0; i < tuples; ++i) {
    a[i] = static_cast<uint32_t>(i / 2 + salt);
    b[i] = static_cast<uint32_t>(i + salt);
    w[i] = static_cast<double>(i);
  }
  TrieBuildSpec spec;
  spec.key_codes = {&a, &b};
  TrieAnnotationSpec ann;
  ann.name = "w";
  ann.type = ValueType::kDouble;
  ann.merge = AnnotationMerge::kSum;
  ann.reals = &w;
  spec.annotations.push_back(ann);
  return std::make_shared<Trie>(Trie::Build(spec).ValueOrDie());
}

TEST(TrieCacheStressTest, LogicalCountersSurviveConcurrentReaders) {
  // Get() may run from many query threads at once; the logical hit/miss
  // tallies (one per lookup) and the raw probe count must add up exactly.
  TrieCache cache;
  cache.Put("sig", MakeTrie());
  constexpr int kThreads = 6;
  constexpr int kPerThread = 2000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache] {
      for (int i = 0; i < kPerThread; ++i) {
        (void)cache.Get("sig");
        (void)cache.Get("missing");
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(cache.hits(), static_cast<uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(cache.misses(), static_cast<uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(cache.probes(), 2u * kThreads * kPerThread);
}

TEST(TrieCacheStressTest, SingleFlightBuildsOncePerSignature) {
  // N concurrent misses on one signature elect exactly one builder; the
  // rest wait and reuse its trie. With four distinct signatures hit by two
  // threads each, exactly four builds run in total.
  TrieCache cache;
  constexpr int kSignatures = 4;
  constexpr int kThreadsPerSig = 4;
  std::latch start(kSignatures * kThreadsPerSig);
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int s = 0; s < kSignatures; ++s) {
    for (int t = 0; t < kThreadsPerSig; ++t) {
      threads.emplace_back([s, &cache, &start, &failures] {
        const std::string sig = "sig" + std::to_string(s);
        auto build = [s, &sig]() -> Result<TrieCache::Built> {
          // Widen the race window so followers really do overlap the build.
          std::this_thread::sleep_for(std::chrono::milliseconds(2));
          return TrieCache::Built{sig, MakeTrie(static_cast<uint32_t>(s))};
        };
        start.arrive_and_wait();
        auto trie = cache.GetOrBuild({sig}, build);
        if (!trie.ok() || trie.value() == nullptr ||
            trie.value()->num_tuples() == 0) {
          failures.fetch_add(1);
        }
      });
    }
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  // The dedup invariant: however the threads interleave, each signature is
  // built exactly once. (Exact miss/wait splits are timing-dependent — a
  // thread scheduled after the leader finishes just hits.)
  EXPECT_EQ(cache.builds(), static_cast<uint64_t>(kSignatures));
  EXPECT_EQ(cache.size(), static_cast<size_t>(kSignatures));
  EXPECT_EQ(cache.hits() + cache.misses(),
            static_cast<uint64_t>(kSignatures) * kThreadsPerSig);
  EXPECT_GE(cache.misses(), static_cast<uint64_t>(kSignatures));
}

TEST(TrieCacheStressTest, BudgetEvictionSkipsInUseTries) {
  std::shared_ptr<Trie> probe_trie = MakeTrie();
  const size_t one = probe_trie->MemoryBytes();
  // Room for ~2 resident tries.
  TrieCache cache(TrieCache::Config{2 * one + one / 2, 4});
  cache.Put("keep", MakeTrie());
  std::shared_ptr<Trie> held = cache.Get("keep");
  ASSERT_NE(held, nullptr);

  // Flood the cache well past its budget. "keep" has an external holder
  // (use_count > 1) and must survive every eviction sweep.
  for (int i = 0; i < 6; ++i) {
    cache.Put("x" + std::to_string(i), MakeTrie(static_cast<uint32_t>(i)));
  }
  EXPECT_GT(cache.evictions(), 0u);
  EXPECT_EQ(cache.Get("keep").get(), held.get());

  // Once the query lets go, the entry becomes evictable again and the
  // budget is enforceable.
  held.reset();
  for (int i = 6; i < 12; ++i) {
    cache.Put("x" + std::to_string(i), MakeTrie(static_cast<uint32_t>(i)));
  }
  EXPECT_LE(cache.bytes(), cache.budget_bytes());
}

TEST(TrieCacheStressTest, BudgetThrashUnderConcurrentLoadStaysSafe) {
  // Tiny budget + many signatures: constant eviction while other threads
  // hold and read the tries they were handed. TSan verifies no trie is
  // freed out from under a reader; the invariant check is that every
  // returned trie is intact.
  std::shared_ptr<Trie> probe_trie = MakeTrie();
  TrieCache cache(TrieCache::Config{2 * probe_trie->MemoryBytes(), 2});
  constexpr int kThreads = 4;
  constexpr int kIters = 60;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, &cache, &failures] {
      Rng rng(1234u + static_cast<uint32_t>(t));
      for (int i = 0; i < kIters; ++i) {
        const uint32_t which = static_cast<uint32_t>(rng.Uniform(8));
        const std::string sig = "s" + std::to_string(which);
        auto build = [which, &sig]() -> Result<TrieCache::Built> {
          return TrieCache::Built{sig, MakeTrie(which)};
        };
        auto trie = cache.GetOrBuild({sig}, build);
        if (!trie.ok() || trie.value() == nullptr) {
          failures.fetch_add(1);
          continue;
        }
        // Read through the trie while eviction churns around it.
        if (trie.value()->num_tuples() == 0 ||
            trie.value()->root().ToVector().empty()) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST(TrieCacheStressTest, ClearDetachesInFlightBuilds) {
  // The Clear-vs-GetOrBuild contract (trie_cache.h): a leader registered
  // before the clear finishes privately — its caller gets the trie, the
  // cache does not — while its follower wakes, misses, and re-leads a
  // fresh build under the new epoch, which caches normally.
  TrieCache cache;
  std::latch gate(1);
  std::atomic<bool> leader_in_build{false};
  std::shared_ptr<Trie> leader_got, follower_got;
  std::atomic<int> failures{0};

  std::thread leader([&] {
    auto build = [&]() -> Result<TrieCache::Built> {
      leader_in_build.store(true);
      gate.wait();  // hold the build open until after Clear()
      return TrieCache::Built{"sig", MakeTrie(1)};
    };
    auto r = cache.GetOrBuild({"sig"}, build);
    if (!r.ok() || r.value() == nullptr) {
      failures.fetch_add(1);
    } else {
      leader_got = r.value();
    }
  });
  while (!leader_in_build.load()) std::this_thread::yield();

  std::thread follower([&] {
    auto build = [&]() -> Result<TrieCache::Built> {
      return TrieCache::Built{"sig", MakeTrie(2)};
    };
    auto r = cache.GetOrBuild({"sig"}, build);
    if (!r.ok() || r.value() == nullptr) {
      failures.fetch_add(1);
    } else {
      follower_got = r.value();
    }
  });
  while (cache.build_waits() == 0) std::this_thread::yield();

  cache.Clear();
  gate.count_down();
  leader.join();
  follower.join();

  EXPECT_EQ(failures.load(), 0);
  // Two real builds ran: the detached pre-clear one and the follower's
  // post-clear re-lead.
  EXPECT_EQ(cache.builds(), 2u);
  std::shared_ptr<Trie> cached = cache.Get("sig");
  ASSERT_NE(cached, nullptr);
  EXPECT_NE(cached.get(), leader_got.get())
      << "a pre-clear build must never repopulate the cache";
  EXPECT_EQ(cached.get(), follower_got.get());
}

TEST(TrieCacheStressTest, ClearHammerVsGetOrBuildStaysLive) {
  // Clears racing a full GetOrBuild load: no caller may deadlock, lap
  // forever against a cleared flight table, or receive a broken trie. The
  // test completing is the liveness assertion; the checks below are the
  // safety half.
  TrieCache cache;
  constexpr int kThreads = 4;
  constexpr int kIters = 120;
  std::latch start(kThreads + 1);
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, &cache, &start, &failures] {
      start.arrive_and_wait();
      for (int i = 0; i < kIters; ++i) {
        const uint32_t which = static_cast<uint32_t>((i + t) % 5);
        const std::string sig = "s" + std::to_string(which);
        auto build = [which, &sig]() -> Result<TrieCache::Built> {
          return TrieCache::Built{sig, MakeTrie(which)};
        };
        auto trie = cache.GetOrBuild({sig}, build);
        if (!trie.ok() || trie.value() == nullptr ||
            trie.value()->num_tuples() == 0) {
          failures.fetch_add(1);
        }
      }
    });
  }
  std::thread clearer([&cache, &start] {
    start.arrive_and_wait();
    for (int i = 0; i < 200; ++i) {
      cache.Clear();
      std::this_thread::yield();
    }
  });
  for (auto& t : threads) t.join();
  clearer.join();
  EXPECT_EQ(failures.load(), 0);

  // The cache still works end to end after the churn.
  auto post = cache.GetOrBuild(
      {"post"}, []() -> Result<TrieCache::Built> {
        return TrieCache::Built{"post", MakeTrie(9)};
      });
  ASSERT_TRUE(post.ok());
  EXPECT_EQ(cache.Get("post").get(), post.value().get());
}

// --- Whole-engine concurrency ---------------------------------------------

/// Mixed-workload fixture: a small graph plus a customer/nation star, one
/// Engine shared by all test threads (the thread-safety contract under
/// test; see DESIGN.md §11).
class EngineConcurrencyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(20260807);
    {
      Table* t = catalog_
                     .CreateTable(TableSchema(
                         "edge",
                         {ColumnSpec::Key("src", ValueType::kInt64, "node"),
                          ColumnSpec::Key("dst", ValueType::kInt64, "node"),
                          ColumnSpec::Annotation("w", ValueType::kDouble)}))
                     .ValueOrDie();
      std::set<std::pair<int, int>> seen;
      while (seen.size() < 40) {
        int a = static_cast<int>(rng.Uniform(12));
        int b = static_cast<int>(rng.Uniform(12));
        if (a == b || !seen.insert({a, b}).second) continue;
        ASSERT_TRUE(t->AppendRow({Value::Int(a), Value::Int(b),
                                  Value::Real(rng.UniformDouble(0, 2))})
                        .ok());
      }
    }
    {
      Table* t = catalog_
                     .CreateTable(TableSchema(
                         "nation",
                         {ColumnSpec::Key("n_nationkey", ValueType::kInt64,
                                          "nationkey"),
                          ColumnSpec::Annotation("n_name",
                                                 ValueType::kString)}))
                     .ValueOrDie();
      const char* names[] = {"ALGERIA", "BRAZIL", "CHINA", "DENMARK"};
      for (int n = 0; n < 4; ++n) {
        ASSERT_TRUE(t->AppendRow({Value::Int(n), Value::Str(names[n])}).ok());
      }
    }
    {
      Table* t = catalog_
                     .CreateTable(TableSchema(
                         "customer",
                         {ColumnSpec::Key("c_custkey", ValueType::kInt64,
                                          "custkey"),
                          ColumnSpec::Key("c_nationkey", ValueType::kInt64,
                                          "nationkey"),
                          ColumnSpec::Annotation("c_acctbal",
                                                 ValueType::kDouble),
                          ColumnSpec::Annotation("c_mktsegment",
                                                 ValueType::kString)}))
                     .ValueOrDie();
      const char* segs[] = {"BUILDING", "MACHINERY", "AUTOMOBILE"};
      for (int c = 0; c < 24; ++c) {
        ASSERT_TRUE(t->AppendRow({Value::Int(c),
                                  Value::Int(static_cast<int>(rng.Uniform(4))),
                                  Value::Real(rng.UniformDouble(-100, 1000)),
                                  Value::Str(segs[rng.Uniform(3)])})
                        .ok());
      }
    }
    ASSERT_TRUE(catalog_.Finalize().ok());
    engine_ = std::make_unique<Engine>(&catalog_);
  }

  static std::vector<std::string> MixedQueries() {
    return {
        "SELECT count(*) FROM edge e1, edge e2, edge e3 "
        "WHERE e1.dst = e2.src AND e2.dst = e3.src AND e3.dst = e1.src",
        "SELECT n_name, sum(c_acctbal) FROM customer, nation "
        "WHERE c_nationkey = n_nationkey GROUP BY n_name",
        "SELECT count(*) FROM customer WHERE c_mktsegment LIKE 'B%'",
        "SELECT count(*) FROM edge e1, edge e2 WHERE e1.dst = e2.src",
    };
  }

  static std::string Canonical(QueryResult result) {
    result.SortRows();
    return result.ToString(1u << 20);
  }

  /// The counters whose values are a function of the query alone (not of
  /// scheduling): kernel/tuple work and — with a prewarmed cache — the
  /// cache interaction. pool.* and steal counts depend on the scheduler
  /// and are deliberately excluded.
  static std::vector<std::pair<std::string, uint64_t>> DeterministicCounters(
      const obs::StatsSnapshot& c) {
    return {
        {"intersect.uint_uint", c.intersect_uint_uint},
        {"intersect.uint_bitset", c.intersect_uint_bitset},
        {"intersect.bitset_bitset", c.intersect_bitset_bitset},
        {"intersect.result_values", c.intersect_result_values},
        {"trie.nodes_visited", c.trie_nodes_visited},
        {"exec.tuples_emitted", c.tuples_emitted},
        {"exec.skew_splits", c.exec_skew_splits},
        {"trie.built", c.tries_built},
        {"trie.cache_hits", c.trie_cache_hits},
        {"trie.cache_misses", c.trie_cache_misses},
        {"cache.evictions", c.cache_evictions},
        {"expr.like_compiles", c.expr_like_compiles},
    };
  }

  Catalog catalog_;
  std::unique_ptr<Engine> engine_;
};

TEST_F(EngineConcurrencyTest, EightCallersMatchSerialBitForBit) {
  const std::vector<std::string> queries = MixedQueries();

  // Serial pass: prewarm the trie cache, then record per-query baselines
  // (sorted result text + deterministic counters).
  for (const std::string& sql : queries) {
    ASSERT_TRUE(engine_->Query(sql).ok()) << sql;
  }
  std::vector<std::string> baseline_text;
  std::vector<obs::StatsSnapshot> baseline_counters;
  for (const std::string& sql : queries) {
    auto r = engine_->QueryAnalyze(sql);
    ASSERT_TRUE(r.ok()) << sql << "\n" << r.status().ToString();
    ASSERT_NE(r.value().profile, nullptr);
    baseline_counters.push_back(r.value().profile->counters);
    baseline_text.push_back(Canonical(std::move(r.value())));
    // Warm cache: every relation hits, nothing is built or missed.
    EXPECT_EQ(baseline_counters.back().trie_cache_misses, 0u) << sql;
    EXPECT_EQ(baseline_counters.back().tries_built, 0u) << sql;
  }

  // Concurrent pass: 8 threads, each running the whole mix (rotated so
  // different queries overlap), recording result text and counters.
  constexpr int kThreads = 8;
  constexpr int kRounds = 3;
  const size_t kQ = queries.size();
  std::vector<std::vector<std::string>> got_text(kThreads);
  std::vector<std::vector<obs::StatsSnapshot>> got_counters(kThreads);
  std::vector<std::vector<size_t>> got_query(kThreads);
  std::atomic<int> failures{0};
  std::latch start(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, kQ, &queries, &got_text, &got_counters,
                          &got_query, &failures, &start, this] {
      start.arrive_and_wait();
      for (int round = 0; round < kRounds; ++round) {
        for (size_t q = 0; q < kQ; ++q) {
          const size_t idx = (q + static_cast<size_t>(t)) % kQ;
          auto r = engine_->QueryAnalyze(queries[idx]);
          if (!r.ok() || r.value().profile == nullptr) {
            failures.fetch_add(1);
            continue;
          }
          got_query[t].push_back(idx);
          got_counters[t].push_back(r.value().profile->counters);
          got_text[t].push_back(Canonical(std::move(r.value())));
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  ASSERT_EQ(failures.load(), 0);

  // Every concurrent execution must be bit-identical to its serial
  // baseline, and its per-query counters must match exactly — proof that
  // results and EXPLAIN ANALYZE accounting are isolated per caller.
  for (int t = 0; t < kThreads; ++t) {
    ASSERT_EQ(got_text[t].size(), static_cast<size_t>(kRounds) * kQ);
    for (size_t i = 0; i < got_text[t].size(); ++i) {
      const size_t idx = got_query[t][i];
      EXPECT_EQ(got_text[t][i], baseline_text[idx])
          << "thread " << t << " run " << i << " query " << idx;
      const auto want = DeterministicCounters(baseline_counters[idx]);
      const auto have = DeterministicCounters(got_counters[t][i]);
      for (size_t k = 0; k < want.size(); ++k) {
        EXPECT_EQ(have[k].second, want[k].second)
            << "thread " << t << " query " << idx << " counter "
            << want[k].first;
      }
    }
  }
}

TEST_F(EngineConcurrencyTest, ColdCacheConcurrentStartBuildsEachTrieOnce) {
  // All callers start on a cold cache: single-flight must collapse the
  // concurrent builds so each distinct relation signature is built once
  // engine-wide, and every caller still gets correct results.
  const std::string sql = MixedQueries()[1];  // customer ⋈ nation group-by
  auto serial = engine_->Query(sql);
  ASSERT_TRUE(serial.ok());
  const std::string expected = Canonical(std::move(serial.value()));
  const uint64_t builds_after_serial = engine_->trie_cache()->builds();
  engine_->trie_cache()->Clear();

  constexpr int kThreads = 8;
  std::latch start(kThreads);
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&sql, &expected, &start, &failures, this] {
      start.arrive_and_wait();
      auto r = engine_->Query(sql);
      if (!r.ok() || Canonical(std::move(r.value())) != expected) {
        failures.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  // Single-flight: the 8 concurrent cold starts re-built each signature
  // exactly once (same number of builds the serial pass needed).
  EXPECT_EQ(engine_->trie_cache()->builds() - builds_after_serial,
            builds_after_serial);
  EXPECT_EQ(engine_->trie_cache()->size(), static_cast<size_t>(2));
}

}  // namespace
}  // namespace levelheaded
