// Tests for the debug lock-rank checker (util/lock_rank.h, DESIGN.md §14):
// in-order acquisition is silent, an injected inversion aborts with a
// rank-pair diagnostic, and release builds compile the checker to a
// zero-cost no-op (asserted via sizeof and the enabled flag).
//
// Labeled `concurrency` so the TSan preset runs it: the checker's
// thread-local stacks must themselves be race-free.

#include "util/lock_rank.h"

#include <thread>

#include <gtest/gtest.h>

#include "util/mutex.h"

namespace levelheaded {
namespace {

#if LH_LOCK_RANK_ENABLED

TEST(LockRankTest, InOrderAcquisitionIsSilent) {
  Mutex outer(LockRank::kGlobalPool);
  Mutex inner(LockRank::kPool);
  SharedMutex shard(LockRank::kCacheShard);
  EXPECT_EQ(lock_rank::HeldCount(), 0);
  {
    MutexLock a(&outer);
    EXPECT_EQ(lock_rank::HeldCount(), 1);
    MutexLock b(&inner);
    ReadLock c(&shard);
    EXPECT_EQ(lock_rank::HeldCount(), 3);
  }
  EXPECT_EQ(lock_rank::HeldCount(), 0);
}

TEST(LockRankTest, ReacquiringAfterReleaseIsSilent) {
  Mutex mu(LockRank::kPool);
  for (int i = 0; i < 3; ++i) {
    MutexLock lock(&mu);
  }
  EXPECT_EQ(lock_rank::HeldCount(), 0);
}

TEST(LockRankTest, OutOfLifoReleaseIsSilent) {
  // TaskGroup::Wait-style interleaving: locks need not release in LIFO
  // order, only acquire in rank order.
  Mutex a(LockRank::kGlobalPool);
  Mutex b(LockRank::kPool);
  a.Lock();
  b.Lock();
  a.Unlock();
  EXPECT_EQ(lock_rank::HeldCount(), 1);
  b.Unlock();
  EXPECT_EQ(lock_rank::HeldCount(), 0);
}

using LockRankDeathTest = ::testing::Test;

TEST(LockRankDeathTest, InversionAbortsWithRankPairDiagnostic) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Mutex outer(LockRank::kGlobalPool);
  Mutex inner(LockRank::kPool);
  // pool (40) then global_pool (20) inverts the documented order; the
  // diagnostic names both the offending rank and the held stack.
  EXPECT_DEATH(
      {
        MutexLock a(&inner);
        MutexLock b(&outer);
      },
      "lock_rank.*global_pool.*held ranks.*pool");
}

TEST(LockRankDeathTest, SameRankReacquisitionAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  // Strictly-greater rule: two kLeaf mutexes may not nest — with a leaf
  // held, nothing (not even another leaf) may be acquired.
  Mutex a;  // kLeaf
  Mutex b;  // kLeaf
  EXPECT_DEATH(
      {
        MutexLock l1(&a);
        MutexLock l2(&b);
      },
      "lock_rank.*leaf.*held ranks.*leaf");
}

TEST(LockRankTest, HeldStacksArePerThread) {
  // One thread holding a high rank must not constrain another thread.
  Mutex high(LockRank::kSlowQueryLog);
  Mutex low(LockRank::kServerQueue);
  MutexLock hold_high(&high);
  std::thread other([&] {
    MutexLock lock(&low);  // would abort if stacks were shared
    EXPECT_EQ(lock_rank::HeldCount(), 1);
  });
  other.join();
  EXPECT_EQ(lock_rank::HeldCount(), 1);
}

TEST(LockRankTest, CondVarWaitKeepsMutexHeld) {
  // The waiting thread's rank stack is unchanged across a Wait: the mutex
  // is re-held on return and still releases cleanly.
  Mutex mu(LockRank::kPool);
  CondVar cv;
  bool ready = false;
  std::thread waiter([&] {
    MutexLock lock(&mu);
    while (!ready) cv.Wait(&mu);
    EXPECT_EQ(lock_rank::HeldCount(), 1);
  });
  {
    MutexLock lock(&mu);
    ready = true;
  }
  cv.NotifyAll();
  waiter.join();
}

#else  // !LH_LOCK_RANK_ENABLED

// Release builds: the checker must be a zero-cost no-op. The rank member
// is compiled out of the wrappers (so Mutex is exactly a std::mutex plus
// the vanished annotations) and the note functions are empty inlines.
static_assert(sizeof(Mutex) == sizeof(std::mutex),
              "release Mutex must carry no rank storage");
static_assert(sizeof(SharedMutex) == sizeof(std::shared_mutex),
              "release SharedMutex must carry no rank storage");

TEST(LockRankTest, DisabledCheckerIgnoresInversions) {
  Mutex outer(LockRank::kGlobalPool);
  Mutex inner(LockRank::kPool);
  {
    MutexLock a(&inner);
    MutexLock b(&outer);  // inverted on purpose: must be silent
  }
  EXPECT_EQ(lock_rank::HeldCount(), 0);
}

#endif  // LH_LOCK_RANK_ENABLED

}  // namespace
}  // namespace levelheaded
