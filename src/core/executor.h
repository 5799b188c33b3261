// Plan execution: trie construction (with selection pushdown and caching),
// the interpreted generic worst-case-optimal join (Algorithm 1) over GHD
// nodes, Yannakakis-style existential semijoins for child nodes, the
// column-scan path for join-free queries, and the dense BLAS dispatch.

#ifndef LEVELHEADED_CORE_EXECUTOR_H_
#define LEVELHEADED_CORE_EXECUTOR_H_

#include "core/plan.h"
#include "core/result.h"
#include "core/trie_cache.h"
#include "storage/table.h"
#include "storage/trie.h"
#include "util/status.h"

namespace levelheaded {

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

}  // namespace levelheaded

#endif  // LEVELHEADED_CORE_EXECUTOR_H_
