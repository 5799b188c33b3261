// Cooperative query cancellation (deadlines, client cancels, server
// shutdown) and in-flight resource bounds.
//
// LevelHeaded queries can run for a long time inside tight WCOJ loops, so
// cancellation is cooperative: the executor and planner poll a QueryGuard
// at adaptive-grain boundaries (the same chunk boundaries the parallel
// scheduler uses) and unwind with kDeadlineExceeded / kCancelled /
// kResourceExhausted. A cancelled query therefore stops burning cores
// within one grain of work instead of running to completion.
//
// Ownership: the CancelToken is caller-owned (QueryOptions::cancel_token)
// and must outlive the query; the QueryGuard is built per query by the
// engine and handed down by pointer.

#ifndef LEVELHEADED_CORE_CANCEL_H_
#define LEVELHEADED_CORE_CANCEL_H_

#include <atomic>
#include <chrono>
#include <cstddef>

#include "util/status.h"

namespace levelheaded {

/// A thread-safe one-way cancellation flag. Cancel() may be called from any
/// thread, any number of times; the query observes it at its next guard
/// check. Reusable only across sequential queries (Reset between them).
class CancelToken {
 public:
  void Cancel() { cancelled_.store(true, std::memory_order_release); }
  bool IsCancelled() const {
    // Relaxed: hot-loop poll of a lone one-way flag; a stale false costs at
    // most one extra grain of (discarded) work before the next poll.
    return cancelled_.load(std::memory_order_relaxed);
  }
  /// Re-arms the token for a new query. Must not race with a running query
  /// holding this token.
  // Relaxed: the no-concurrent-query contract above means there is nothing
  // to order against.
  void Reset() { cancelled_.store(false, std::memory_order_relaxed); }

 private:
  std::atomic<bool> cancelled_{false};
};

/// Per-query cancellation + resource-bound view, assembled by the engine
/// from QueryOptions/EngineOptions and polled by the planner and executor.
/// Cheap to copy; Check() is one relaxed atomic load when only a token is
/// attached, plus one steady_clock read when a deadline is set.
struct QueryGuard {
  const CancelToken* token = nullptr;
  bool has_deadline = false;
  std::chrono::steady_clock::time_point deadline{};
  /// Max rows the engine will accumulate/materialize for one query
  /// (0 = unlimited). Enforced against group counts during accumulation
  /// (the OOM backstop) and against the final row count, before the output
  /// columns are allocated.
  size_t max_result_rows = 0;

  /// True when any cancellation source is attached (the row bound is
  /// checked separately, against actual row counts).
  bool CancelEnabled() const { return token != nullptr || has_deadline; }

  /// OK, or the error to unwind with (kCancelled / kDeadlineExceeded).
  [[nodiscard]] Status Check() const {
    if (token != nullptr && token->IsCancelled()) {
      return Status::Cancelled("query cancelled");
    }
    if (has_deadline && std::chrono::steady_clock::now() >= deadline) {
      return Status::DeadlineExceeded("query deadline exceeded");
    }
    return Status::OK();
  }

  /// OK, or kResourceExhausted once `rows` exceeds max_result_rows.
  [[nodiscard]] Status CheckRows(size_t rows) const {
    if (max_result_rows > 0 && rows > max_result_rows) {
      return Status::ResourceExhausted(
          "result exceeds max_result_rows (" +
          std::to_string(max_result_rows) +
          "); narrow the query or raise EngineOptions::max_result_rows");
    }
    return Status::OK();
  }
};

}  // namespace levelheaded

#endif  // LEVELHEADED_CORE_CANCEL_H_
