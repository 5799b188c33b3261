#include "util/thread_pool.h"

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <utility>

#include "obs/stats.h"
#include "util/logging.h"

namespace levelheaded {
namespace {
// Nested ParallelChunks calls (e.g. a parallel BLAS kernel invoked from a
// parallel WCOJ loop) run inline on the calling thread: the pool's threads
// are already busy with the outer region, so more runners would only queue.
thread_local bool t_in_parallel_region = false;

// Pool-worker slot of the current thread, or -1 for external threads.
// Submit() records it so task execution can tell a steal (task ran on a
// different slot than it was submitted from) from a local run.
thread_local int t_worker_slot = -1;

// The global pool lives behind a unique_ptr (instead of a plain Meyers
// static) so SetGlobalThreadsForTesting can join and replace it; the static
// local still destroys the final pool at process exit, keeping the clean
// sanitizer shutdown from the singleton design.
std::unique_ptr<ThreadPool>& GlobalPoolSlot() {
  static std::unique_ptr<ThreadPool> pool;  // lint: allow(global-state)
  return pool;
}

// Published pointer for the lock-free Global() fast path. Every parallel
// kernel (BLAS-from-WCOJ, trie builds, each query's chunk loop) calls
// Global(), often from inside chunks; taking the slot mutex there would
// serialize every kernel of every query on one global mutex.
std::atomic<ThreadPool*>& GlobalPoolPtr() {
  static std::atomic<ThreadPool*> pool{nullptr};
  return pool;
}

// Guards pool creation/replacement only; never on the query path.
Mutex& GlobalPoolMutex() {
  static Mutex mu{LockRank::kGlobalPool};  // lint: allow(global-state) unguarded(guards the init/replace phase of GlobalPoolSlot, not a field)
  return mu;
}
}  // namespace

ThreadPool::ThreadPool(int num_threads) {
  if (num_threads <= 0) {
    num_threads = std::max(1u, std::thread::hardware_concurrency());
  }
  workers_.reserve(num_threads);
  for (int i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(&mu_);
    shutdown_ = true;
  }
  wake_cv_.NotifyAll();
  for (auto& w : workers_) w.join();
}

void ThreadPool::WorkerLoop(int slot) {
  t_worker_slot = slot;
  while (true) {
    Task task;
    {
      MutexLock lock(&mu_);
      while (!shutdown_ && tasks_.empty()) wake_cv_.Wait(&mu_);
      if (shutdown_) return;
      task = std::move(tasks_.front());
      tasks_.pop_front();
    }
    RunTask(task, slot);
  }
}

void ThreadPool::RunTask(Task& task, int slot) {
  // Tasks count as a parallel region: a ParallelChunks issued from inside a
  // task runs inline. Save and restore rather than set/clear — helping
  // threads run tasks from within regions that are themselves parallel.
  const bool saved_region = t_in_parallel_region;
  t_in_parallel_region = true;
  {
    // Install the enqueuing query's stats hook for the duration of the
    // task: a worker may run any query's task, and its increments must
    // land in that query's counters.
    obs::StatsScope stats_scope(task.stats);
    if (task.region != nullptr) {
      RunRegion(*task.region, task.slot);
    } else {
      task.fn();
      if (slot != task.slot && task.stats != nullptr) {
        task.stats->CountTaskStolen(1);
      }
    }
  }
  t_in_parallel_region = saved_region;
  // acq_rel: the release half publishes this task's side effects to the
  // acquire load in Wait(); the acquire half orders the "last task" winner
  // after every other task's release. The notify is taken under mu_ so it
  // cannot fire between Wait's predicate check and its sleep.
  if (task.group->pending_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    MutexLock lock(&mu_);
    task_cv_.NotifyAll();
  }
}

void ThreadPool::Submit(TaskGroup* group, std::function<void()> fn) {
  LH_DCHECK(group->pool_ == this);
  const int submitter = t_worker_slot >= 0 ? t_worker_slot : num_threads();
  obs::ExecStats* stats = obs::ActiveStats();
  // Relaxed: the count must only reach the running task before that task's
  // matching fetch_sub, which same-variable atomic ordering guarantees; the
  // task's *payload* is published by the mu_ hand-off below.
  group->pending_.fetch_add(1, std::memory_order_relaxed);
  {
    MutexLock lock(&mu_);
    tasks_.push_back(Task{std::move(fn), nullptr, submitter, group, stats});
  }
  wake_cv_.NotifyOne();
  if (stats != nullptr) stats->CountTaskSpawned(1);
}

ThreadPool::TaskGroup::~TaskGroup() {
  // Acquire pairs with the final fetch_sub's release so the destructor
  // (and whatever owns the group's captured state) sees all task effects.
  LH_CHECK_EQ(pending_.load(std::memory_order_acquire), 0);
}

void ThreadPool::TaskGroup::Wait() {
  const int slot =
      t_worker_slot >= 0 ? t_worker_slot : pool_->num_threads();
  pool_->mu_.Lock();
  // Acquire: pairs with the final task's acq_rel fetch_sub in RunTask,
  // making every task's writes visible once the count reads zero.
  while (pending_.load(std::memory_order_acquire) > 0) {
    // Only this group's tasks: another query's task could hold this
    // thread long after its own group is done.
    auto it = std::find_if(pool_->tasks_.begin(), pool_->tasks_.end(),
                           [this](const Task& t) { return t.group == this; });
    if (it != pool_->tasks_.end()) {
      Task task = std::move(*it);
      pool_->tasks_.erase(it);
      pool_->mu_.Unlock();
      pool_->RunTask(task, slot);
      pool_->mu_.Lock();
    } else {
      // All of this group's remaining tasks are running on other threads;
      // task_cv_ fires as each group's last one completes.
      pool_->task_cv_.Wait(&pool_->mu_);
    }
  }
  pool_->mu_.Unlock();
}

void ThreadPool::RunRegion(Region& region, int slot) {
  const int64_t grain = region.grain;
  uint64_t chunks = 0;
  while (true) {
    // Relaxed: next is a pure claim ticket — no data is published through
    // it; the region was published by the mu_ hand-off of its runners.
    int64_t start = region.next.fetch_add(grain, std::memory_order_relaxed);
    if (start >= region.end) break;
    (*region.fn)(slot, start, std::min(start + grain, region.end));
    ++chunks;
  }
  if (chunks > 0) {
    if (obs::ExecStats* stats = obs::ActiveStats()) {
      stats->CountThreadPoolChunk(chunks);
    }
  }
}

void ThreadPool::ParallelChunks(
    int64_t begin, int64_t end, int64_t grain,
    const std::function<void(int, int64_t, int64_t)>& fn) {
  if (begin >= end) return;
  LH_CHECK_GT(grain, 0);
  const int64_t total = end - begin;
  // Small regions run inline (dispatch overhead would dominate); so do
  // nested ones, whose pool threads are already busy with the outer region.
  if (total <= grain || workers_.empty() || t_in_parallel_region) {
    fn(num_threads(), begin, end);
    if (obs::ExecStats* stats = obs::ActiveStats()) {
      stats->CountThreadPoolChunk(1);
    }
    return;
  }
  Region region;
  // Relaxed: the region is not yet visible to any runner; publication
  // happens via the mu_ critical section below.
  region.next.store(begin, std::memory_order_relaxed);
  region.end = end;
  region.grain = grain;
  region.fn = &fn;
  // The caller takes a chunk too, so more runners than chunks - 1 would
  // only find the cursor spent.
  const int64_t chunks = (total + grain - 1) / grain;
  const int runners =
      static_cast<int>(std::min<int64_t>(num_threads(), chunks - 1));
  TaskGroup group(this);
  // Relaxed: as in Submit, the runners' matching fetch_subs follow on the
  // same variable.
  group.pending_.store(runners, std::memory_order_relaxed);
  obs::ExecStats* stats = obs::ActiveStats();
  {
    MutexLock lock(&mu_);
    for (int r = 0; r < runners; ++r) {
      tasks_.push_back(Task{nullptr, &region, r, &group, stats});
    }
  }
  wake_cv_.NotifyAll();

  // The calling thread participates with slot num_threads(), then helps
  // with (or waits for) the runners it enqueued.
  t_in_parallel_region = true;
  RunRegion(region, num_threads());
  t_in_parallel_region = false;
  group.Wait();
}

void ThreadPool::ParallelFor(int64_t begin, int64_t end, int64_t grain,
                             const std::function<void(int, int64_t)>& fn) {
  ParallelChunks(begin, end, grain,
                 [&fn](int slot, int64_t lo, int64_t hi) {
                   for (int64_t i = lo; i < hi; ++i) fn(slot, i);
                 });
}

ThreadPool& ThreadPool::Global() {
  // Lock-free fast path — see GlobalPoolPtr. Acquire pairs with the
  // release store below so the caller sees the fully constructed pool.
  if (ThreadPool* pool = GlobalPoolPtr().load(std::memory_order_acquire)) {
    return *pool;
  }
  MutexLock lock(&GlobalPoolMutex());
  auto& slot = GlobalPoolSlot();
  if (!slot) {
    int num_threads = 0;  // 0 = hardware concurrency
    if (const char* env = std::getenv("LH_THREADS")) {
      const int parsed = std::atoi(env);
      if (parsed > 0) num_threads = parsed;
    }
    slot = std::make_unique<ThreadPool>(num_threads);
  }
  GlobalPoolPtr().store(slot.get(), std::memory_order_release);
  return *slot;
}

void ThreadPool::SetGlobalThreadsForTesting(int num_threads) {
  MutexLock lock(&GlobalPoolMutex());
  auto& slot = GlobalPoolSlot();
  // Unpublish before joining: a racing Global() must fall through to the
  // slot mutex rather than return a pool that is being destroyed. (Test-only
  // contract: no in-flight queries, so no one still holds the old pointer.)
  GlobalPoolPtr().store(nullptr, std::memory_order_release);
  slot.reset();  // join the old pool before the new one spins up
  slot = std::make_unique<ThreadPool>(num_threads);
  GlobalPoolPtr().store(slot.get(), std::memory_order_release);
}

}  // namespace levelheaded
