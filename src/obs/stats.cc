#include "obs/stats.h"

namespace levelheaded::obs {

namespace {
// Per-thread hook: concurrent queries each point their own thread (and, via
// the thread pool's task/job capture, the workers executing on their
// behalf) at their own counter block. A process-global pointer here was the
// PR-4 cross-talk bug: two overlapping queries would exchange/restore one
// shared slot and misattribute every worker increment.
thread_local ExecStats* t_active_stats = nullptr;
}  // namespace

ExecStats* ActiveStats() { return t_active_stats; }

StatsScope::StatsScope(ExecStats* stats) : previous_(t_active_stats) {
  t_active_stats = stats;
}

StatsScope::~StatsScope() { t_active_stats = previous_; }

StatsSnapshot ExecStats::Snapshot() const {
  StatsSnapshot s;
  s.intersect_uint_uint = intersect_[0].load(kRelaxed);
  s.intersect_uint_bitset = intersect_[1].load(kRelaxed);
  s.intersect_bitset_bitset = intersect_[2].load(kRelaxed);
  s.intersect_result_values =
      intersect_result_values_.load(kRelaxed);
  s.intersect_elided = intersect_elided_.load(kRelaxed);
  s.trie_nodes_visited = trie_nodes_visited_.load(kRelaxed);
  s.tuples_emitted = tuples_emitted_.load(kRelaxed);
  s.trie_cache_hits = trie_cache_hits_.load(kRelaxed);
  s.trie_cache_misses = trie_cache_misses_.load(kRelaxed);
  s.trie_cache_probes = trie_cache_probes_.load(kRelaxed);
  s.tries_built = tries_built_.load(kRelaxed);
  s.trie_lazy_levels = trie_lazy_levels_.load(kRelaxed);
  s.trie_materialized_subtries =
      trie_materialized_subtries_.load(kRelaxed);
  s.trie_lazy_bytes = trie_lazy_bytes_.load(kRelaxed);
  s.cache_bytes = cache_bytes_.load(kRelaxed);
  s.cache_evictions = cache_evictions_.load(kRelaxed);
  s.cache_build_waits = cache_build_waits_.load(kRelaxed);
  s.expr_like_compiles = expr_like_compiles_.load(kRelaxed);
  s.expr_programs = expr_programs_.load(kRelaxed);
  s.expr_fallbacks = expr_fallbacks_.load(kRelaxed);
  s.expr_vm_rows = expr_vm_rows_.load(kRelaxed);
  s.expr_fused_rows = expr_fused_rows_.load(kRelaxed);
  s.thread_pool_chunks = thread_pool_chunks_.load(kRelaxed);
  s.pool_tasks_spawned = pool_tasks_spawned_.load(kRelaxed);
  s.pool_task_steals = pool_task_steals_.load(kRelaxed);
  s.exec_skew_splits = exec_skew_splits_.load(kRelaxed);
  return s;
}

void ExecStats::Reset() {
  for (auto& c : intersect_) c.store(0, kRelaxed);
  intersect_result_values_.store(0, kRelaxed);
  intersect_elided_.store(0, kRelaxed);
  trie_nodes_visited_.store(0, kRelaxed);
  tuples_emitted_.store(0, kRelaxed);
  trie_cache_hits_.store(0, kRelaxed);
  trie_cache_misses_.store(0, kRelaxed);
  trie_cache_probes_.store(0, kRelaxed);
  tries_built_.store(0, kRelaxed);
  trie_lazy_levels_.store(0, kRelaxed);
  trie_materialized_subtries_.store(0, kRelaxed);
  trie_lazy_bytes_.store(0, kRelaxed);
  cache_bytes_.store(0, kRelaxed);
  cache_evictions_.store(0, kRelaxed);
  cache_build_waits_.store(0, kRelaxed);
  expr_like_compiles_.store(0, kRelaxed);
  expr_programs_.store(0, kRelaxed);
  expr_fallbacks_.store(0, kRelaxed);
  expr_vm_rows_.store(0, kRelaxed);
  expr_fused_rows_.store(0, kRelaxed);
  thread_pool_chunks_.store(0, kRelaxed);
  pool_tasks_spawned_.store(0, kRelaxed);
  pool_task_steals_.store(0, kRelaxed);
  exec_skew_splits_.store(0, kRelaxed);
}

void ExecStats::Add(const StatsSnapshot& s) {
  intersect_[0].fetch_add(s.intersect_uint_uint, kRelaxed);
  intersect_[1].fetch_add(s.intersect_uint_bitset, kRelaxed);
  intersect_[2].fetch_add(s.intersect_bitset_bitset,
                          kRelaxed);
  intersect_result_values_.fetch_add(s.intersect_result_values,
                                     kRelaxed);
  intersect_elided_.fetch_add(s.intersect_elided, kRelaxed);
  trie_nodes_visited_.fetch_add(s.trie_nodes_visited,
                                kRelaxed);
  tuples_emitted_.fetch_add(s.tuples_emitted, kRelaxed);
  trie_cache_hits_.fetch_add(s.trie_cache_hits, kRelaxed);
  trie_cache_misses_.fetch_add(s.trie_cache_misses,
                               kRelaxed);
  trie_cache_probes_.fetch_add(s.trie_cache_probes,
                               kRelaxed);
  tries_built_.fetch_add(s.tries_built, kRelaxed);
  trie_lazy_levels_.fetch_add(s.trie_lazy_levels, kRelaxed);
  trie_materialized_subtries_.fetch_add(s.trie_materialized_subtries,
                                        kRelaxed);
  trie_lazy_bytes_.fetch_add(s.trie_lazy_bytes, kRelaxed);
  cache_bytes_.store(s.cache_bytes, kRelaxed);
  cache_evictions_.fetch_add(s.cache_evictions, kRelaxed);
  cache_build_waits_.fetch_add(s.cache_build_waits,
                               kRelaxed);
  expr_like_compiles_.fetch_add(s.expr_like_compiles,
                                kRelaxed);
  expr_programs_.fetch_add(s.expr_programs, kRelaxed);
  expr_fallbacks_.fetch_add(s.expr_fallbacks, kRelaxed);
  expr_vm_rows_.fetch_add(s.expr_vm_rows, kRelaxed);
  expr_fused_rows_.fetch_add(s.expr_fused_rows, kRelaxed);
  thread_pool_chunks_.fetch_add(s.thread_pool_chunks,
                                kRelaxed);
  pool_tasks_spawned_.fetch_add(s.pool_tasks_spawned,
                                kRelaxed);
  pool_task_steals_.fetch_add(s.pool_task_steals,
                              kRelaxed);
  exec_skew_splits_.fetch_add(s.exec_skew_splits, kRelaxed);
}

std::vector<std::pair<std::string, uint64_t>> StatsSnapshot::Items() const {
  return {
      {"intersect.uint_uint", intersect_uint_uint},
      {"intersect.uint_bitset", intersect_uint_bitset},
      {"intersect.bitset_bitset", intersect_bitset_bitset},
      {"intersect.result_values", intersect_result_values},
      {"intersect.elided", intersect_elided},
      {"trie.nodes_visited", trie_nodes_visited},
      {"trie.cache_hits", trie_cache_hits},
      {"trie.cache_misses", trie_cache_misses},
      {"trie.cache_probes", trie_cache_probes},
      {"trie.built", tries_built},
      {"trie.lazy_levels", trie_lazy_levels},
      {"trie.materialized_subtries", trie_materialized_subtries},
      {"trie.lazy_bytes", trie_lazy_bytes},
      {"cache.bytes", cache_bytes},
      {"cache.evictions", cache_evictions},
      {"cache.build_waits", cache_build_waits},
      {"expr.like_compiles", expr_like_compiles},
      {"expr.programs", expr_programs},
      {"expr.fallbacks", expr_fallbacks},
      {"expr.vm_rows", expr_vm_rows},
      {"expr.fused_rows", expr_fused_rows},
      {"exec.tuples_emitted", tuples_emitted},
      {"exec.skew_splits", exec_skew_splits},
      {"pool.chunks", thread_pool_chunks},
      {"pool.tasks_spawned", pool_tasks_spawned},
      {"pool.task_steals", pool_task_steals},
  };
}

}  // namespace levelheaded::obs
