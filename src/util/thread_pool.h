// Shared-memory parallelism substrate. LevelHeaded parallelizes the
// outermost loop of the generic WCOJ algorithm (the paper's `parfor`
// operator, §III-D) and the MiniBLAS kernels through this pool.

#ifndef LEVELHEADED_UTIL_THREAD_POOL_H_
#define LEVELHEADED_UTIL_THREAD_POOL_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "util/lock_rank.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace levelheaded {

namespace obs {
class ExecStats;
}  // namespace obs

/// Shared grain heuristic for every parallel loop in the engine. Targets a
/// fixed number of chunks so chunk boundaries — which are also the merge
/// boundaries for floating-point partials — depend only on the input
/// cardinality, never on the thread count. That is what keeps query results
/// bit-identical across LH_THREADS settings: more threads change who runs a
/// chunk, not where the chunks are cut.
inline int64_t AdaptiveGrain(int64_t total, int64_t min_grain = 1) {
  constexpr int64_t kTargetChunks = 64;
  const int64_t grain = (total + kTargetChunks - 1) / kTargetChunks;
  return std::max<int64_t>(min_grain, grain);
}

/// A fixed-size worker pool: one task deque that runs both Submit() tasks
/// and the runner tasks of ParallelChunks regions.
///
/// Thread-safe: any number of threads may Submit and drive ParallelChunks
/// regions concurrently; their tasks interleave on the one deque.
class ThreadPool {
 public:
  /// Creates a pool with `num_threads` workers (defaults to the hardware
  /// concurrency, at least 1).
  explicit ThreadPool(int num_threads = 0);

  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return static_cast<int>(workers_.size()); }

  /// Runs `fn(thread_slot, index)` for every index in [begin, end).
  /// Indices are distributed dynamically in chunks of `grain`.
  /// `thread_slot` is in [0, num_threads()+1), is held by one thread at a
  /// time within this call, and is stable within one chunk, letting callers
  /// keep per-slot scratch state local to the call. The calling thread
  /// participates (slot num_threads()). Blocks until all indices are done.
  void ParallelFor(int64_t begin, int64_t end, int64_t grain,
                   const std::function<void(int, int64_t)>& fn);

  /// Chunked variant: runs `fn(thread_slot, chunk_begin, chunk_end)` over
  /// dynamically scheduled chunks. The region enqueues up to num_threads()
  /// runner tasks, runner r holding slot r; runners and the caller claim
  /// chunks from the region's own cursor, so regions of concurrent callers
  /// overlap. A call from inside a region or task runs inline (one chunk,
  /// slot num_threads()).
  void ParallelChunks(
      int64_t begin, int64_t end, int64_t grain,
      const std::function<void(int, int64_t, int64_t)>& fn);

  /// Tracks a batch of tasks submitted via Submit(). Wait() blocks until all
  /// of the group's tasks have finished, *helping*: while waiting it pops and
  /// runs the group's own queued tasks on the calling thread, so a worker
  /// inside a ParallelChunks chunk can fan out sub-work and wait for it
  /// without deadlocking even when every pool thread is busy, and never
  /// stalls behind another query's work.
  ///
  /// A group must be waited (pending reaches zero) before it is destroyed
  /// and before its pool is destroyed.
  class TaskGroup {
   public:
    explicit TaskGroup(ThreadPool* pool) : pool_(pool) {}
    ~TaskGroup();
    TaskGroup(const TaskGroup&) = delete;
    TaskGroup& operator=(const TaskGroup&) = delete;

    void Wait();

   private:
    friend class ThreadPool;
    ThreadPool* pool_;
    /// Outstanding task count. Atomic rather than guarded by pool_->mu_:
    /// the increment (Submit) and decrement (RunTask) need no lock, and
    /// TSA cannot match a `pool_->mu_` guard against the `this->mu_`
    /// capability held at those sites anyway. The release half of the
    /// final acq_rel fetch_sub publishes every task's side effects to the
    /// acquire load in Wait().
    std::atomic<int64_t> pending_{0};
  };

  /// Enqueues `fn` to run on any pool thread (or on a thread that helps while
  /// waiting on the group). Unlike ParallelChunks this never blocks and is
  /// legal from inside a parallel region — it is the nesting escape hatch the
  /// skew splitter uses. Tasks run with the nested-region flag set, so a
  /// ParallelChunks call made from inside a task executes inline.
  void Submit(TaskGroup* group, std::function<void()> fn);

  /// Process-wide default pool (created on first use). Thread count comes
  /// from the LH_THREADS environment variable when set (and positive),
  /// otherwise the hardware concurrency.
  static ThreadPool& Global();

  /// Replaces the global pool with one of `num_threads` workers, joining the
  /// old pool first. Test-only: must not race with in-flight queries.
  static void SetGlobalThreadsForTesting(int num_threads);

 private:
  /// One ParallelChunks call: the chunk cursor its runners claim from.
  struct Region {
    std::atomic<int64_t> next{0};
    int64_t end = 0;
    int64_t grain = 1;
    const std::function<void(int, int64_t, int64_t)>* fn = nullptr;
  };

  /// A Submit() task (`fn`) or a region runner (`region`, `slot`).
  struct Task {
    std::function<void()> fn;
    Region* region = nullptr;
    /// Submit task: the submitting thread's slot (steal accounting).
    /// Runner: the region-local slot the runner hands to `fn`.
    int slot = -1;
    TaskGroup* group = nullptr;
    /// The enqueuing query's stats hook, re-installed (via StatsScope) on
    /// whichever thread runs the task, so counters land in the right query
    /// even when a worker runs tasks of several queries in turn.
    obs::ExecStats* stats = nullptr;
  };

  void WorkerLoop(int slot);
  void RunTask(Task& task, int slot);
  /// Claims and runs `region`'s chunks as `slot` until its cursor is spent.
  static void RunRegion(Region& region, int slot);

  std::vector<std::thread> workers_;
  Mutex mu_{LockRank::kPool};
  CondVar wake_cv_;  // workers: new tasks / shutdown
  CondVar task_cv_;  // signaled as a group's last task finishes
  std::deque<Task> tasks_ LH_GUARDED_BY(mu_);
  bool shutdown_ LH_GUARDED_BY(mu_) = false;
};

/// Concatenates per-chunk outputs in chunk order. The prefix sums of the
/// part sizes give each part its own slice of the result, and the parts
/// copy into their slices in parallel, so the result is the same at every
/// thread count. Small totals copy on the calling thread.
template <typename T>
std::vector<T> ConcatInOrder(std::vector<std::vector<T>>* parts,
                             ThreadPool& pool) {
  if (parts->size() == 1) return std::move(parts->front());
  std::vector<size_t> offset(parts->size() + 1, 0);
  for (size_t p = 0; p < parts->size(); ++p) {
    offset[p + 1] = offset[p] + (*parts)[p].size();
  }
  std::vector<T> out(offset.back());
  constexpr size_t kMinParallelCopy = size_t{1} << 16;
  const int64_t num_parts = static_cast<int64_t>(parts->size());
  const int64_t grain =
      out.size() < kMinParallelCopy ? std::max<int64_t>(1, num_parts) : 1;
  pool.ParallelFor(0, num_parts, grain, [&](int, int64_t p) {
    std::copy((*parts)[p].begin(), (*parts)[p].end(),
              out.begin() + static_cast<int64_t>(offset[p]));
  });
  return out;
}

}  // namespace levelheaded

#endif  // LEVELHEADED_UTIL_THREAD_POOL_H_
