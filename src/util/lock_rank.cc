#include "util/lock_rank.h"

#include <cstdio>
#include <cstdlib>

namespace levelheaded {

const char* LockRankName(LockRank rank) {
  switch (rank) {
    case LockRank::kServerQueue:
      return "server_queue";
    case LockRank::kGlobalPool:
      return "global_pool";
    case LockRank::kPool:
      return "pool";
    case LockRank::kExecScratch:
      return "exec_scratch";
    case LockRank::kCacheFlight:
      return "cache_flight";
    case LockRank::kCacheEvict:
      return "cache_evict";
    case LockRank::kCacheShard:
      return "cache_shard";
    case LockRank::kExecAbort:
      return "exec_abort";
    case LockRank::kTrace:
      return "trace";
    case LockRank::kSlowQueryLog:
      return "slow_query_log";
    case LockRank::kLeaf:
      return "leaf";
  }
  return "unknown";
}

namespace lock_rank {

#if LH_LOCK_RANK_ENABLED

namespace {

// Deep enough for any real nesting (the engine's deepest documented chain
// is 4: server_queue would-be → pool → trace-ish leaves);
// overflowing it is itself a discipline bug and aborts.
constexpr int kMaxHeldLocks = 32;

thread_local LockRank t_held[kMaxHeldLocks];
thread_local int t_held_count = 0;

// Diagnostics use only fprintf/abort: the failure path must not allocate
// or lock (it may run while arbitrary engine mutexes are held).
[[noreturn]] void RankFailure(const char* verb, LockRank rank) {
  std::fprintf(stderr,
               "lock_rank: FATAL: %s \"%s\" (rank %d) violates the lock "
               "order; held ranks (outermost first): [",
               verb, LockRankName(rank), static_cast<int>(rank));
  for (int i = 0; i < t_held_count; ++i) {
    std::fprintf(stderr, "%s%s (%d)", i > 0 ? ", " : "",
                 LockRankName(t_held[i]), static_cast<int>(t_held[i]));
  }
  std::fprintf(stderr, "]\nlock_rank: see the rank table in DESIGN.md §14\n");
  std::fflush(stderr);
  std::abort();
}

}  // namespace

void NoteAcquire(LockRank rank) {
  // Held ranks are strictly increasing, so the innermost entry is the max.
  if (t_held_count > 0 &&
      static_cast<int>(rank) <= static_cast<int>(t_held[t_held_count - 1])) {
    RankFailure("acquiring", rank);
  }
  if (t_held_count >= kMaxHeldLocks) {
    RankFailure("overflowing the held-lock stack while acquiring", rank);
  }
  t_held[t_held_count++] = rank;
}

void NoteRelease(LockRank rank) {
  for (int i = t_held_count - 1; i >= 0; --i) {
    if (t_held[i] == rank) {
      for (int j = i; j + 1 < t_held_count; ++j) {
        t_held[j] = t_held[j + 1];
      }
      --t_held_count;
      return;
    }
  }
  RankFailure("releasing the never-acquired", rank);
}

int HeldCount() { return t_held_count; }

#endif  // LH_LOCK_RANK_ENABLED

}  // namespace lock_rank
}  // namespace levelheaded
