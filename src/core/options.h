// Per-query execution options. The defaults run the full LevelHeaded
// pipeline; the toggles exist for the Table III ablations and the Figure 5
// cost-model experiments. Expression evaluation has no switch: every scan,
// filter, aggregate argument and group dimension runs as compiled bytecode
// (DESIGN.md §15).

#ifndef LEVELHEADED_CORE_OPTIONS_H_
#define LEVELHEADED_CORE_OPTIONS_H_

#include <string>
#include <vector>

namespace levelheaded {

class CancelToken;

/// Attribute-order selection policy (§V).
enum class OrderMode {
  kBest,   ///< cost-based optimizer (minimum icost × weight)
  kWorst,  ///< maximum-cost valid order (the Table III "-Attr. Ord." arm)
  kAppearance,  ///< vertices in query-appearance order (EmptyHeaded-like
                ///< naive choice, no cost model)
};

struct QueryOptions {
  /// §IV attribute elimination: build tries over exactly the queried key
  /// attributes and load only referenced annotations. Disabling it keys
  /// tries on every key column of each table and makes scans touch every
  /// column (the Table III "-Attr. Elim." arm); it also disables the dense
  /// BLAS dispatch, which depends on eliminated buffers being contiguous.
  bool use_attribute_elimination = true;

  OrderMode order_mode = OrderMode::kBest;

  /// §III-D: route completely dense LA plans to MiniBLAS.
  bool enable_blas = true;

  /// §V-A2: allow the 1-attribute-union relaxation of the
  /// materialized-attributes-first rule when it lowers icost.
  bool enable_union_relaxation = true;

  /// Force the root node's attribute order by vertex display name (for the
  /// Figure 5b/5c order-sweep experiments). Empty = optimizer's choice.
  std::vector<std::string> force_attr_order;

  /// Materialize string output columns as dictionary codes (codes + dict)
  /// instead of decoded strings — LevelHeaded's native form, consumed
  /// directly by the ML pipeline (§VII) without a decode/re-encode pass.
  bool keep_strings_encoded = false;

  /// Reuse cached unfiltered tries across queries ("index creation" is
  /// excluded from measured time, §VI-A). Filtered relations always build
  /// their tries inside the measured query.
  bool use_trie_cache = true;

  /// Let the planner choose lazy trie builds (DESIGN.md §16): deep levels of
  /// a relation's trie defer per-set payload emission until first probe when
  /// the cost model predicts the join touches only a fraction of them. Off
  /// forces every trie fully eager — the comparison arm for bench/lazy_build
  /// and a bisection switch; results are identical either way.
  bool use_lazy_tries = true;

  /// Collect an execution profile (tracing spans + kernel counters) into
  /// QueryResult::profile. Off by default: enabling it turns on per-kernel
  /// counting in the hot intersection loops.
  bool collect_stats = false;

  /// Query deadline in milliseconds from the Query() call (0 = none). The
  /// planner and executor poll the deadline cooperatively at adaptive-grain
  /// boundaries; an expired query unwinds with kDeadlineExceeded.
  double timeout_ms = 0;

  /// Optional caller-owned cancellation flag (core/cancel.h); must outlive
  /// the query. Cancel() from any thread makes the query unwind with
  /// kCancelled at its next guard check.
  CancelToken* cancel_token = nullptr;
};

}  // namespace levelheaded

#endif  // LEVELHEADED_CORE_OPTIONS_H_
