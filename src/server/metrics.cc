#include "server/metrics.h"

#include "core/trie_cache.h"
#include "obs/metrics_text.h"
#include "obs/stats.h"

namespace levelheaded::server {

namespace {

/// Trie-cache lifetime tallies as dotted cache.* keys. These are live
/// regardless of per-request profiling (the cache counts its own traffic),
/// which is why they — not the profile-accumulated duplicates — are the
/// cache.* surface.
std::vector<std::pair<std::string, double>> CacheExport(TrieCache* cache) {
  return {
      {"cache.hits", static_cast<double>(cache->hits())},
      {"cache.misses", static_cast<double>(cache->misses())},
      {"cache.probes", static_cast<double>(cache->probes())},
      {"cache.builds", static_cast<double>(cache->builds())},
      {"cache.build_waits", static_cast<double>(cache->build_waits())},
      {"cache.evictions", static_cast<double>(cache->evictions())},
      {"cache.bytes", static_cast<double>(cache->bytes())},
      {"cache.entries", static_cast<double>(cache->size())},
  };
}

bool IsGaugeCounter(const std::string& dotted) {
  // The gauges among the StatsSnapshot items; everything else is a
  // monotone total.
  return dotted == "engine.cache.bytes";
}

}  // namespace

std::vector<std::pair<std::string, double>> CollectStatsExport(
    const obs::ServerStats& stats, Engine* engine) {
  std::vector<std::pair<std::string, double>> out = stats.Export();
  for (auto& kv : CacheExport(engine->trie_cache())) {
    out.push_back(std::move(kv));
  }
  const obs::StatsSnapshot lifetime = engine->LifetimeStats();
  for (const auto& [name, value] : lifetime.Items()) {
    if (name.rfind("cache.", 0) == 0) continue;  // trie cache authoritative
    out.emplace_back(name, static_cast<double>(value));
  }
  return out;
}

std::string RenderPrometheusMetrics(const obs::ServerStats& stats,
                                    Engine* engine) {
  obs::MetricsTextWriter w;
  const obs::ServerStats::Snapshot s = stats.snapshot();

  w.Counter("lh_server_accepted_total",
            "Connections admitted by the accept loop.",
            static_cast<double>(s.accepted));
  w.Counter("lh_server_rejected_overload_total",
            "Connections refused because the admission queue was full.",
            static_cast<double>(s.rejected_overload));
  w.Counter("lh_server_requests_total",
            "Requests answered, by outcome (ok|error|timeout|cancelled).",
            static_cast<double>(s.completed), {{"outcome", "ok"}});
  w.Counter("lh_server_requests_total", "",
            static_cast<double>(s.errors), {{"outcome", "error"}});
  w.Counter("lh_server_requests_total", "",
            static_cast<double>(s.timeouts), {{"outcome", "timeout"}});
  w.Counter("lh_server_requests_total", "",
            static_cast<double>(s.cancelled), {{"outcome", "cancelled"}});
  w.Gauge("lh_server_inflight", "Requests currently being served.",
          static_cast<double>(s.inflight));

  w.Histogram("lh_server_latency_seconds",
              "Request wall time, request line to response write, any "
              "class or outcome.",
              stats.LatencySnapshot());
  for (int c = 0; c < obs::kNumRequestClasses; ++c) {
    const auto cls = static_cast<obs::RequestClass>(c);
    w.Histogram("lh_server_latency_class_seconds",
                "Request wall time by request class "
                "(query|analyze|explain|other).",
                stats.LatencySnapshot(cls),
                {{"class", obs::RequestClassName(cls)}});
  }
  for (int o = 0; o < obs::kNumRequestOutcomes; ++o) {
    const auto outcome = static_cast<obs::RequestOutcome>(o);
    w.Histogram("lh_server_latency_outcome_seconds",
                "Request wall time by outcome "
                "(ok|error|timeout|cancelled).",
                stats.LatencySnapshot(outcome),
                {{"outcome", obs::RequestOutcomeName(outcome)}});
  }

  TrieCache* cache = engine->trie_cache();
  w.Counter("lh_trie_cache_hits_total", "Trie-cache lookup hits.",
            static_cast<double>(cache->hits()));
  w.Counter("lh_trie_cache_misses_total", "Trie-cache lookup misses.",
            static_cast<double>(cache->misses()));
  w.Counter("lh_trie_cache_probes_total",
            "Raw signature probes (a lookup tries up to two signatures).",
            static_cast<double>(cache->probes()));
  w.Counter("lh_trie_cache_builds_total", "Tries built into the cache.",
            static_cast<double>(cache->builds()));
  w.Counter("lh_trie_cache_build_waits_total",
            "Lookups that waited on another query's in-flight build "
            "(single-flight deduplication).",
            static_cast<double>(cache->build_waits()));
  w.Counter("lh_trie_cache_evictions_total",
            "Entries evicted to stay under the cache budget.",
            static_cast<double>(cache->evictions()));
  w.Gauge("lh_trie_cache_bytes", "Resident trie-cache bytes.",
          static_cast<double>(cache->bytes()));
  w.Gauge("lh_trie_cache_entries", "Resident trie-cache entries.",
          static_cast<double>(cache->size()));
  w.Gauge("lh_trie_cache_budget_bytes",
          "Configured trie-cache budget (0 = unbounded).",
          static_cast<double>(cache->budget_bytes()));

  // Engine-lifetime execution totals: the sum of every profiled query's
  // counter snapshot, under an engine_ prefix so the per-query counter
  // names (DESIGN.md §8 glossary) stay recognizable without colliding
  // with the trie-cache families above.
  const obs::StatsSnapshot lifetime = engine->LifetimeStats();
  for (const auto& [name, value] : lifetime.Items()) {
    const std::string dotted = "engine." + name;
    const std::string metric = obs::MetricsTextWriter::SanitizeName(dotted);
    const std::string help =
        "Engine-lifetime total of the " + name +
        " execution counter (accumulated from profiled queries).";
    if (IsGaugeCounter(dotted)) {
      w.Gauge(metric,
              "Engine-lifetime sample of the " + name +
                  " execution gauge (from the last profiled query).",
              static_cast<double>(value));
    } else {
      w.Counter(metric + "_total", help, static_cast<double>(value));
    }
  }

  return w.str();
}

}  // namespace levelheaded::server
