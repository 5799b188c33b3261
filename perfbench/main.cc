// perfbench entry point: set-up, the timed closed loop, the traced run,
// result verification, and the one-line JSON result.
//
//   perfbench --workload bi_tpch --seed 1 --seconds 10 --trace 0
//
// Untraced runs (--trace 0) report the end-to-end metrics; traced runs
// (--trace 1) call each layer's public function separately with spans and
// counters and report the per-layer metrics. METRICS.md defines them all.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "core/executor.h"
#include "core/plan.h"
#include "obs/json_writer.h"
#include "obs/profile.h"
#include "obs/stats.h"
#include "server/protocol.h"
#include "sql/binder.h"
#include "sql/parser.h"
#include "util/socket.h"
#include "util/thread_pool.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;
namespace obs = levelheaded::obs;

double SecondsSince(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

double MillisSince(Clock::time_point t) { return 1000.0 * SecondsSince(t); }

/// Set-ups per untraced run; setup_s is their median.
constexpr int kSetupReps = 3;

int Nproc() {
  return std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
}

/// Connections (and server workers) of the served workload: half the
/// cores but at least two, so concurrent queries contend for the pool
/// without clients, workers and pool threads oversubscribing every core.
int ServeClients() { return std::max(2, Nproc() / 2); }

/// Run-wide tally of checked queries.
struct Tally {
  std::atomic<uint64_t> attempted{0};
  std::atomic<uint64_t> failed{0};

  void Fail(const std::string& what) {
    // Only the first few failures are worth reading.
    if (failed.fetch_add(1) < 5) {
      std::fprintf(stderr, "FAIL %s\n", what.c_str());
    }
  }
};

/// Per-class latency samples of one measurement window.
struct Window {
  explicit Window(size_t classes) : by_class(classes) {}

  std::vector<std::vector<double>> by_class;  ///< wall ms per completed query
  double wall_s = 0;

  std::vector<double> All() const {
    std::vector<double> all;
    for (const auto& v : by_class) all.insert(all.end(), v.begin(), v.end());
    return all;
  }
  /// Power-style: geometric mean over classes of each class's median.
  double GeoMeanOfMedians() const {
    std::vector<double> medians;
    for (const auto& v : by_class) {
      if (!v.empty()) medians.push_back(Median(v));
    }
    return GeoMean(medians);
  }
};

// ---- wire helpers -----------------------------------------------------------

std::string RequestLine(const std::string& sql) {
  obs::JsonWriter w(/*pretty=*/false);
  w.BeginObject();
  w.Key("sql");
  w.String(sql);
  w.EndObject();
  return w.str() + "\n";
}

/// The `"columns":[...]` member of an ok result response: the part of the
/// response that must be identical on every run of a class.
bool ColumnsPayload(const std::string& response, std::string* out) {
  if (response.rfind("{\"ok\":true", 0) != 0) return false;
  const size_t begin = response.find("\"columns\":");
  const size_t end = response.rfind(",\"timing\":");
  if (begin == std::string::npos || end == std::string::npos || end < begin) {
    return false;
  }
  *out = response.substr(begin, end - begin);
  return true;
}

/// parse + plan + filter + exec milliseconds the server reported.
double ReportedQueryMs(const std::string& response, double* exec_ms) {
  const size_t key = response.rfind("\"timing\":");
  if (key == std::string::npos) return -1;
  const size_t begin = response.find('{', key);
  const size_t end = response.find('}', begin);
  obs::JsonValue timing;
  if (begin == std::string::npos || end == std::string::npos ||
      !obs::ParseJson(response.substr(begin, end - begin + 1), &timing)) {
    return -1;
  }
  double total = 0;
  for (const char* field : {"parse_ms", "plan_ms", "filter_ms", "exec_ms"}) {
    const obs::JsonValue* v = timing.Find(field);
    if (v == nullptr || !v->IsNumber()) return -1;
    total += v->number;
  }
  *exec_ms = timing.Find("exec_ms")->number;
  return total;
}

/// One wire request's measurements beyond its latency (traced runs).
struct WireSample {
  size_t cls = 0;
  double round_trip_ms = 0;
  double reported_ms = 0;  ///< parse + plan + filter + exec
  double exec_ms = 0;
};

// ---- the benchmark ----------------------------------------------------------

class Bench {
 public:
  Bench(const Options& opts, const Workload& workload)
      : opts_(opts), workload_(workload) {}

  int Run();

 private:
  Result<std::unique_ptr<Fixture>> SetUp();
  Status WireWarmup(Fixture* f, std::vector<uint64_t>* hashes);

  Window RunInProcess(Fixture* f, double seconds, bool traced);
  Window RunServed(Fixture* f, int clients, double seconds,
                   std::vector<WireSample>* samples);
  Result<QueryResult> TracedQuery(Fixture* f, size_t cls, int64_t request_id);
  void Verify(Fixture* f);

  void ReportEndToEnd(const Fixture& f, const Window& w,
                      const std::vector<double>& setup_s);
  void ReportLayers(Fixture* f, const Window& untraced, const Window& traced);
  void ReportServe(Fixture* f, const std::vector<WireSample>& solo,
                   const std::vector<WireSample>& loaded);
  void ReportLa(Fixture* f, const Window& untraced);
  int Finish();

  const Options& opts_;
  const Workload& workload_;
  Tally tally_;
  /// What each class must return on every run, from the first set-up:
  /// the engine result's hash, and for served workloads the hash of the
  /// response's columns payload.
  std::vector<uint64_t> expected_;
  std::vector<uint64_t> expected_wire_;
  bool corrupt_pending_ = false;
  int64_t next_request_id_ = 0;

  Tracer tracer_;
  /// Per-layer accumulation of the traced window.
  struct Layers {
    uint64_t queries = 0;
    double parse_ms = 0, bind_ms = 0, plan_ms = 0, exec_ms = 0;
    double filter_ms = 0;
    uint64_t order_candidates = 0;
    std::map<std::string, double> span_ms;  ///< engine span name -> ms
    obs::ExecStats counters;  ///< summed QueryAnalyze-style snapshots
    std::vector<std::map<std::string, double>> per_class;
  } layers_;

  MetricSet metrics_;  ///< the metrics BENCHMARK.json declares
  MetricSet detail_;   ///< workload-specific and per-class extras
};

Result<std::unique_ptr<Fixture>> Bench::SetUp() {
  const Clock::time_point start = Clock::now();
  auto f = std::make_unique<Fixture>();
  f->catalog = std::make_unique<Catalog>();
  LH_RETURN_NOT_OK(workload_.load(opts_, f.get()));
  f->times.load_s = SecondsSince(start);

  const Clock::time_point fin = Clock::now();
  LH_RETURN_NOT_OK(f->catalog->Finalize());
  f->times.finalize_s = SecondsSince(fin);

  f->engine = std::make_unique<Engine>(f->catalog.get());
  // Warm-up: one pass builds the cached index tries and materializes the
  // lazily deferred subtries the classes probe.
  std::vector<uint64_t> hashes, wire_hashes;
  for (const QueryClass& qc : f->classes) {
    Result<QueryResult> r = f->engine->Query(qc.sql);
    if (!r.ok()) {
      return Status::Internal(qc.name + ": " + r.status().ToString());
    }
    f->times.index_build_s += r.value().timing.index_build_ms / 1000.0;
    hashes.push_back(ResultHash(r.value()));
  }
  if (workload_.served) {
    levelheaded::server::ServerOptions so;
    so.num_workers = ServeClients();
    so.queue_capacity = 16;
    f->server = std::make_unique<levelheaded::server::Server>(f->engine.get(),
                                                              so);
    LH_RETURN_NOT_OK(f->server->Start());
    LH_RETURN_NOT_OK(WireWarmup(f.get(), &wire_hashes));
  }
  f->times.total_s = SecondsSince(start);

  // Every set-up must return what the first one did.
  if (expected_.empty()) {
    expected_ = hashes;
    expected_wire_ = wire_hashes;
  } else {
    for (size_t c = 0; c < hashes.size(); ++c) {
      tally_.attempted++;
      if (hashes[c] != expected_[c] ||
          (workload_.served && wire_hashes[c] != expected_wire_[c])) {
        tally_.Fail(f->classes[c].name + ": set-up result changed");
      }
    }
  }
  return f;
}

Status Bench::WireWarmup(Fixture* f, std::vector<uint64_t>* hashes) {
  LH_ASSIGN_OR_RETURN(levelheaded::Socket conn,
                      levelheaded::ConnectLoopbackRetry(f->server->port(),
                                                        10'000));
  levelheaded::LineReader reader(&conn, 1u << 30);
  hashes->clear();
  for (const QueryClass& qc : f->classes) {
    LH_RETURN_NOT_OK(levelheaded::SendAll(conn, RequestLine(qc.sql)));
    std::string response, payload;
    if (reader.ReadLine(&response) !=
            levelheaded::LineReader::ReadStatus::kLine ||
        !ColumnsPayload(response, &payload)) {
      return Status::Internal(qc.name + ": bad wire response: " +
                              response.substr(0, 200));
    }
    hashes->push_back(BytesHash(payload));
  }
  return Status::OK();
}

Window Bench::RunInProcess(Fixture* f, double seconds, bool traced) {
  const size_t n = f->classes.size();
  Window w(n);
  if (traced) layers_.per_class.assign(n, {});
  const Clock::time_point start = Clock::now();
  for (size_t k = 0; k < n || SecondsSince(start) < seconds; ++k) {
    const size_t c = k % n;
    const Clock::time_point t = Clock::now();
    Result<QueryResult> r = traced ? TracedQuery(f, c, next_request_id_++)
                                   : f->engine->Query(f->classes[c].sql);
    const double ms = MillisSince(t);
    tally_.attempted++;
    if (!r.ok()) {
      tally_.Fail(f->classes[c].name + ": " + r.status().ToString());
      continue;
    }
    if (corrupt_pending_) {
      CorruptResult(&r.value());
      corrupt_pending_ = false;
    }
    if (ResultHash(r.value()) != expected_[c]) {
      tally_.Fail(f->classes[c].name + ": result differs from set-up");
      continue;
    }
    w.by_class[c].push_back(ms);
  }
  w.wall_s = SecondsSince(start);
  return w;
}

Window Bench::RunServed(Fixture* f, int clients, double seconds,
                        std::vector<WireSample>* samples) {
  const size_t n = f->classes.size();
  std::vector<std::string> requests;
  for (const QueryClass& qc : f->classes) {
    requests.push_back(RequestLine(qc.sql));
  }
  std::vector<std::vector<WireSample>> per_client(clients);
  std::vector<std::thread> threads;
  std::atomic<bool> corrupt{corrupt_pending_};
  corrupt_pending_ = false;
  const uint16_t port = f->server->port();
  const Clock::time_point start = Clock::now();
  for (int id = 0; id < clients; ++id) {
    threads.emplace_back([&, id] {
      auto conn = levelheaded::ConnectLoopbackRetry(port, 10'000);
      if (!conn.ok() ||
          !levelheaded::SetRecvTimeout(conn.value(), 60'000).ok()) {
        tally_.attempted++;
        tally_.Fail("client connect: " + conn.status().ToString());
        return;
      }
      levelheaded::LineReader reader(&conn.value(), 1u << 30);
      std::string response, payload;
      // Rotate the start class by client so different classes overlap.
      for (size_t k = 0; k < n || SecondsSince(start) < seconds; ++k) {
        const size_t c = (k + static_cast<size_t>(id)) % n;
        const Clock::time_point t = Clock::now();
        const bool sent = levelheaded::SendAll(conn.value(), requests[c]).ok();
        const bool read =
            sent && reader.ReadLine(&response) ==
                        levelheaded::LineReader::ReadStatus::kLine;
        const double ms = MillisSince(t);
        tally_.attempted++;
        if (!read || !ColumnsPayload(response, &payload)) {
          tally_.Fail(f->classes[c].name + ": " + response.substr(0, 200));
          if (!read) return;  // the connection is unusable
          continue;
        }
        if (corrupt.exchange(false)) payload[payload.size() / 2] ^= 1;
        if (BytesHash(payload) != expected_wire_[c]) {
          tally_.Fail(f->classes[c].name + ": response differs from set-up");
          continue;
        }
        WireSample s;
        s.cls = c;
        s.round_trip_ms = ms;
        if (samples != nullptr) {
          s.reported_ms = ReportedQueryMs(response, &s.exec_ms);
        }
        per_client[id].push_back(s);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  Window w(n);
  w.wall_s = SecondsSince(start);
  for (const auto& client : per_client) {
    for (const WireSample& s : client) {
      w.by_class[s.cls].push_back(s.round_trip_ms);
      if (samples != nullptr) samples->push_back(s);
    }
  }
  return w;
}

Result<QueryResult> Bench::TracedQuery(Fixture* f, size_t cls,
                                       int64_t request_id) {
  const QueryClass& qc = f->classes[cls];
  Tracer& tr = tracer_;
  const int query = tr.Open("query:" + qc.name, -1, request_id);
  // The same counter block and span collector Engine::QueryAnalyze uses.
  auto qobs = std::make_unique<obs::QueryObs>();
  const double obs_base = tr.Now();
  obs::StatsScope scope(&qobs->stats);

  Clock::time_point t = Clock::now();
  int span = tr.Open("sql.parse", query, request_id);
  Result<levelheaded::SelectStmt> stmt = levelheaded::ParseSelect(qc.sql);
  tr.Close(span);
  const double parse_ms = MillisSince(t);
  if (!stmt.ok()) return stmt.status();

  t = Clock::now();
  span = tr.Open("sql.bind", query, request_id);
  Result<levelheaded::LogicalQuery> bound =
      levelheaded::Bind(stmt.TakeValue(), *f->catalog);
  tr.Close(span);
  const double bind_ms = MillisSince(t);
  if (!bound.ok()) return bound.status();

  t = Clock::now();
  const int plan_span = tr.Open("plan.build", query, request_id);
  Result<levelheaded::PhysicalPlan> plan = levelheaded::BuildPlan(
      bound.TakeValue(), *f->catalog, levelheaded::QueryOptions(),
      &qobs->trace);
  uint64_t candidates = 0;
  if (plan.ok()) {
    for (const levelheaded::NodePlan& node : plan.value().nodes) {
      candidates += node.candidates.size();
    }
  }
  tr.Close(plan_span, {{"order_candidates", static_cast<double>(candidates)}});
  const double plan_ms = MillisSince(t);
  if (!plan.ok()) return plan.status();

  t = Clock::now();
  const double split = tr.Now();
  const int exec_span = tr.Open("exec.execute", query, request_id);
  QueryResult::Timing timing;
  Result<QueryResult> result = levelheaded::ExecutePlan(
      plan.value(), *f->catalog, f->engine->trie_cache(), &timing, qobs.get());
  tr.Close(exec_span);
  const double exec_ms = MillisSince(t);
  qobs->stats.SetCacheBytes(f->engine->trie_cache()->bytes());
  const std::shared_ptr<const obs::QueryProfile> profile = qobs->Finish();
  tr.Adopt(profile->spans, obs_base, split, plan_span, exec_span, request_id);
  std::vector<std::pair<std::string, double>> counters;
  for (const auto& [name, value] : profile->counters.Items()) {
    counters.emplace_back(name, static_cast<double>(value));
  }
  tr.Close(query, std::move(counters));
  if (!result.ok()) return result;

  Layers& l = layers_;
  l.queries++;
  l.parse_ms += parse_ms;
  l.bind_ms += bind_ms;
  l.plan_ms += plan_ms;
  l.exec_ms += exec_ms;
  l.filter_ms += timing.filter_ms;
  l.order_candidates += candidates;
  l.counters.Add(profile->counters);
  std::map<std::string, double>& pc = l.per_class[cls];
  pc["count"] += 1;
  pc["exec"] += exec_ms;
  for (const obs::SpanRecord& s : profile->spans) {
    l.span_ms[s.name] += s.duration_ms;
    pc[s.name] += s.duration_ms;
  }
  return result;
}

void Bench::Verify(Fixture* f) {
  for (size_t c = 0; c < f->classes.size(); ++c) {
    const QueryClass& qc = f->classes[c];
    tally_.attempted++;
    Result<QueryResult> r = f->engine->Query(qc.sql);
    if (!r.ok()) {
      tally_.Fail(qc.name + ": " + r.status().ToString());
      continue;
    }
    bool same = ResultHash(r.value()) == expected_[c];
    if (workload_.served) {
      // The wire form of the verified result must be what clients got.
      std::string payload;
      same = same &&
             ColumnsPayload(levelheaded::server::BuildResultResponse(
                                r.value(), /*include_profile=*/false),
                            &payload) &&
             BytesHash(payload) == expected_wire_[c];
    }
    if (!same) {
      tally_.Fail(qc.name + ": verification result differs from set-up");
      continue;
    }
    const Status st = qc.check(r.value());
    if (!st.ok()) tally_.Fail(qc.name + " vs reference: " + st.ToString());
  }
}

void Bench::ReportEndToEnd(const Fixture& f, const Window& w,
                           const std::vector<double>& setup_s) {
  const std::vector<double> all = w.All();
  double busy_s = 0;
  for (double ms : all) busy_s += ms / 1000.0;
  // One in-process client: throughput over the time spent inside queries
  // (result checks between queries excluded). Served: window wall time.
  const double denom = workload_.served ? w.wall_s : busy_s;
  metrics_.Set("setup_s", Median(setup_s), "s");
  metrics_.Set("geomean_ms", w.GeoMeanOfMedians(), "ms");
  metrics_.Set("qps", denom > 0 ? static_cast<double>(all.size()) / denom : 0,
               "1/s");
  metrics_.Set("p50_ms", Percentile(all, 0.50), "ms");
  metrics_.Set("p95_ms", Percentile(all, 0.95), "ms");
  metrics_.Set("peak_rss_mb", PeakRssMb(), "MiB");
  detail_.Set("samples", static_cast<double>(all.size()), "count");
  detail_.Set("samples_beyond_p95",
              std::floor(0.05 * static_cast<double>(all.size())), "count");
  for (size_t c = 0; c < w.by_class.size(); ++c) {
    detail_.Set("median_ms." + f.classes[c].name, Median(w.by_class[c]),
                "ms");
  }
}

void Bench::ReportLayers(Fixture* f, const Window& untraced,
                         const Window& traced) {
  const Layers& l = layers_;
  const double q = std::max<double>(1, static_cast<double>(l.queries));
  const obs::StatsSnapshot s = l.counters.Snapshot();
  auto span = [&](const char* name) {
    auto it = l.span_ms.find(name);
    return it == l.span_ms.end() ? 0.0 : it->second;
  };
  auto per_query = [&](uint64_t v) { return static_cast<double>(v) / q; };
  MetricSet& m = metrics_;
  m.Set("sql.parse_ms", l.parse_ms / q, "ms");
  m.Set("sql.bind_ms", l.bind_ms / q, "ms");
  m.Set("plan.build_ms", l.plan_ms / q, "ms");
  m.Set("plan.order_candidates", static_cast<double>(l.order_candidates) / q,
        "count");
  m.Set("storage.load_s", f->times.load_s, "s");
  m.Set("storage.finalize_s", f->times.finalize_s, "s");
  m.Set("trie.index_build_s", f->times.index_build_s, "s");
  m.Set("trie.materialized_subtries", per_query(s.trie_materialized_subtries),
        "count");
  m.Set("trie.lazy_bytes", per_query(s.trie_lazy_bytes), "bytes");
  m.Set("cache.bytes", static_cast<double>(f->engine->trie_cache()->bytes()),
        "bytes");
  const uint64_t lookups = s.trie_cache_hits + s.trie_cache_misses;
  m.Set("trie.cache_hit_ratio",
        lookups > 0 ? static_cast<double>(s.trie_cache_hits) /
                          static_cast<double>(lookups)
                    : 0,
        "ratio");
  m.Set("exec.exec_ms", l.exec_ms / q, "ms");
  m.Set("exec.wcoj_ms", span("wcoj") / q, "ms");
  m.Set("exec.materialize_ms", span("materialize") / q, "ms");
  m.Set("exec.trie_build_ms", span("trie_build") / q, "ms");
  m.Set("exec.tuples_emitted", per_query(s.tuples_emitted), "count");
  m.Set("exec.skew_splits", per_query(s.exec_skew_splits), "count");
  m.Set("expr.fused_rows", per_query(s.expr_fused_rows), "count");
  m.Set("expr.vm_rows", per_query(s.expr_vm_rows), "count");
  m.Set("expr.fallbacks", per_query(s.expr_fallbacks), "count");
  m.Set("set.intersect_uint_uint", per_query(s.intersect_uint_uint), "count");
  m.Set("set.intersect_uint_bitset", per_query(s.intersect_uint_bitset),
        "count");
  m.Set("set.intersect_bitset_bitset", per_query(s.intersect_bitset_bitset),
        "count");
  const uint64_t intersections = s.TotalIntersections();
  m.Set("set.values_per_intersect",
        intersections > 0 ? static_cast<double>(s.intersect_result_values) /
                                static_cast<double>(intersections)
                          : 0,
        "count");
  m.Set("pool.chunks", per_query(s.thread_pool_chunks), "count");
  m.Set("pool.tasks_spawned", per_query(s.pool_tasks_spawned), "count");
  m.Set("pool.task_steals", per_query(s.pool_task_steals), "count");
  const double base = untraced.GeoMeanOfMedians();
  m.Set("tracing.overhead_pct",
        base > 0 ? 100.0 * (traced.GeoMeanOfMedians() / base - 1.0) : 0, "%");

  // Layers a workload may not touch at all (a zero there is structural,
  // not a measurement) and per-class breakdowns.
  detail_.Set("exec.scan_ms", span("scan") / q, "ms");
  detail_.Set("trie.filter_ms", l.filter_ms / q, "ms");
  for (size_t c = 0; c < l.per_class.size(); ++c) {
    const auto& pc = l.per_class[c];
    const auto count = pc.find("count");
    if (count == pc.end()) continue;
    const std::string& name = f->classes[c].name;
    for (const char* key : {"exec", "wcoj", "scan", "materialize",
                            "trie_build", "semijoin", "dense_blas"}) {
      const auto it = pc.find(key);
      if (it == pc.end()) continue;
      detail_.Set(std::string("exec.") + key + "_ms." + name,
                  it->second / count->second, "ms");
    }
  }
}

void Bench::ReportLa(Fixture* f, const Window& untraced) {
  // Each reference kernel's median over a few repetitions, and the engine
  // class answering the same product over it (the Table II comparison).
  const int reps = opts_.tiny() ? 2 : 7;
  std::map<std::string, std::vector<double>> gaps;
  for (const LaReference& ref : f->la_refs) {
    std::vector<double> times;
    for (int i = 0; i < reps; ++i) {
      const Clock::time_point t = Clock::now();
      ref.run();
      times.push_back(MillisSince(t));
    }
    const double ref_ms = Median(times);
    size_t cls = 0;
    while (f->classes[cls].name != ref.engine_class) ++cls;
    const double engine_ms = Median(untraced.by_class[cls]);
    const std::string suffix = "." + ref.engine_class;
    detail_.Set("la." + ref.kernel + "_ms" + suffix, ref_ms, "ms");
    const std::string gap = ref.kernel == "spmv"     ? "la.smv_gap"
                            : ref.kernel == "spgemm" ? "la.smm_gap"
                                                     : "la.dmm_gap";
    detail_.Set(gap + suffix, engine_ms / ref_ms, "ratio");
    gaps[gap].push_back(engine_ms / ref_ms);
  }
  for (const auto& [gap, values] : gaps) {
    detail_.Set(gap, GeoMean(values), "ratio");
  }
}

void Bench::ReportServe(Fixture* f, const std::vector<WireSample>& solo,
                        const std::vector<WireSample>& loaded) {
  const size_t n = f->classes.size();
  std::vector<std::vector<double>> solo_exec(n), loaded_exec(n);
  std::vector<double> overhead;
  for (const WireSample& s : solo) solo_exec[s.cls].push_back(s.exec_ms);
  for (const WireSample& s : loaded) {
    loaded_exec[s.cls].push_back(s.exec_ms);
    if (s.reported_ms >= 0) overhead.push_back(s.round_trip_ms - s.reported_ms);
  }
  std::vector<double> ratios;
  for (size_t c = 0; c < n; ++c) {
    if (solo_exec[c].empty() || loaded_exec[c].empty()) continue;
    const double ratio =
        Median(loaded_exec[c]) / std::max(Median(solo_exec[c]), 1e-6);
    detail_.Set("pool.concurrency_slowdown." + f->classes[c].name, ratio,
                "ratio");
    ratios.push_back(ratio);
  }
  detail_.Set("pool.concurrency_slowdown", GeoMean(ratios), "ratio");
  detail_.Set("server.overhead_ms", Median(overhead), "ms");
  const uint64_t rejected = f->server->stats().snapshot().rejected_overload;
  detail_.Set("server.rejected", static_cast<double>(rejected), "count");
}

int Bench::Run() {
  std::printf(
      "fingerprint {\"workload\": \"%s\", \"seed\": %llu, \"nproc\": %d, "
      "\"cpu\": \"%s\", \"pool_threads\": %d, \"build_type\": \"%s\", "
      "\"commit\": \"%s\", \"source_digest\": \"%s\", \"scale\": \"%s\"}\n",
      workload_.name.c_str(), static_cast<unsigned long long>(opts_.seed),
      Nproc(), CpuModel().c_str(),
      levelheaded::ThreadPool::Global().num_threads(), PERFBENCH_BUILD_TYPE,
      opts_.commit.c_str(), opts_.source_digest.c_str(), opts_.scale.c_str());

  // Set-up, repeated so setup_s is a median; only the last fixture is kept
  // (each earlier one is torn down before the next is built).
  const int reps = opts_.trace ? 1 : kSetupReps;
  std::vector<double> setup_s;
  std::unique_ptr<Fixture> f;
  for (int i = 0; i < reps; ++i) {
    f.reset();
    Result<std::unique_ptr<Fixture>> built = SetUp();
    if (!built.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n",
                   built.status().ToString().c_str());
      return 2;
    }
    f = built.TakeValue();
    setup_s.push_back(f->times.total_s);
  }
  for (size_t c = 0; c < f->classes.size(); ++c) {
    std::printf("class %zu = %s\n", c, f->classes[c].name.c_str());
  }

  corrupt_pending_ = opts_.inject_corruption;
  const double secs = opts_.seconds;
  if (!opts_.trace) {
    const Window w = workload_.served
                         ? RunServed(f.get(), ServeClients(), secs, nullptr)
                         : RunInProcess(f.get(), secs, /*traced=*/false);
    ReportEndToEnd(*f, w, setup_s);
  } else if (!workload_.served) {
    const Window untraced = RunInProcess(f.get(), 0.4 * secs, false);
    const Window traced = RunInProcess(f.get(), 0.6 * secs, true);
    ReportLayers(f.get(), untraced, traced);
    if (!f->la_refs.empty()) ReportLa(f.get(), untraced);
  } else {
    const Window untraced = RunInProcess(f.get(), 0.2 * secs, false);
    const Window traced = RunInProcess(f.get(), 0.3 * secs, true);
    std::vector<WireSample> solo, loaded;
    RunServed(f.get(), 1, 0.2 * secs, &solo);
    RunServed(f.get(), ServeClients(), 0.3 * secs, &loaded);
    ReportLayers(f.get(), untraced, traced);
    ReportServe(f.get(), solo, loaded);
    if (!f->la_refs.empty()) ReportLa(f.get(), untraced);
  }

  Verify(f.get());
  if (opts_.trace) {
    const std::string path =
        opts_.out_dir + "/trace_" + workload_.name + ".json";
    const Status st = tracer_.WriteChromeTrace(path);
    if (!st.ok()) {
      tally_.Fail("trace export: " + st.ToString());
    } else {
      std::printf("trace %s (%zu spans)\n", path.c_str(), tracer_.size());
    }
  }
  if (f->server != nullptr) f->server->Stop();
  return Finish();
}

int Bench::Finish() {
  const uint64_t attempted = tally_.attempted.load();
  const uint64_t failed = tally_.failed.load();
  detail_.Set("error_rate",
              attempted > 0 ? static_cast<double>(failed) /
                                  static_cast<double>(attempted)
                            : 1,
              "ratio");
  std::printf("detail\n%s", detail_.ToText().c_str());
  std::printf("metrics\n%s", metrics_.ToText().c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed),
              metrics_.ToJson().c_str());
  std::fflush(stdout);
  return failed == 0 ? 0 : 1;
}

bool ParseArgs(int argc, char** argv, Options* o) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&](std::string* out) {
      if (i + 1 >= argc) return false;
      *out = argv[++i];
      return true;
    };
    std::string v;
    if (arg == "--inject-corruption") {
      o->inject_corruption = true;
    } else if (arg == "--workload" && value(&v)) {
      o->workload = v;
    } else if (arg == "--seed" && value(&v)) {
      o->seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (arg == "--seconds" && value(&v)) {
      o->seconds = std::atof(v.c_str());
    } else if (arg == "--trace" && value(&v)) {
      o->trace = v == "1";
    } else if (arg == "--scale" && value(&v)) {
      o->scale = v;
    } else if (arg == "--out-dir" && value(&v)) {
      o->out_dir = v;
    } else if (arg == "--commit" && value(&v)) {
      o->commit = v;
    } else if (arg == "--source-digest" && value(&v)) {
      o->source_digest = v;
    } else {
      std::fprintf(stderr, "unknown or incomplete argument: %s\n", arg.c_str());
      return false;
    }
  }
  return (o->scale == "full" || o->scale == "tiny") && o->seconds > 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Options opts;
  if (!perfbench::ParseArgs(argc, argv, &opts)) return 2;
  const perfbench::Workload* w = perfbench::FindWorkload(opts.workload);
  if (w == nullptr) {
    std::string names;
    for (const std::string& n : perfbench::WorkloadNames()) names += " " + n;
    std::fprintf(stderr, "unknown workload '%s'; one of:%s\n",
                 opts.workload.c_str(), names.c_str());
    return 2;
  }
  perfbench::Bench bench(opts, *w);
  return bench.Run();
}
