// perfbench: the repository's load-generating benchmark.
//
// One process per run: it sets a workload up from an empty catalog, drives
// it closed-loop for a fixed wall-clock window, checks every result, and
// prints every metric by name with its unit (METRICS.md is the glossary).
// It measures from outside the engine, timing calls into each layer's
// public functions (ParseSelect, Bind, BuildPlan, ExecutePlan,
// Engine::Query, server::Server over loopback TCP, the la:: kernels).

#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "core/engine.h"
#include "obs/trace.h"
#include "server/server.h"
#include "storage/table.h"
#include "util/status.h"

namespace perfbench {

using levelheaded::Catalog;
using levelheaded::Engine;
using levelheaded::QueryResult;
using levelheaded::Result;
using levelheaded::Status;

/// Command-line options of one run.
struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// "full" (the measured sizes) or "tiny" (seconds-scale smoke sizes for
  /// the benchmark's own tests).
  std::string scale = "full";
  /// Corrupts the first timed result before it is checked, so the tests
  /// can prove the checksum catches a wrong answer.
  bool inject_corruption = false;
  /// Directory the traced run writes its Chrome trace into.
  std::string out_dir = ".";
  /// Provenance passed in by run.py (the binary cannot see the checkout).
  std::string commit = "unknown";
  std::string source_digest = "unknown";

  bool tiny() const { return scale == "tiny"; }
};

/// A named query class of a workload. `check` compares a LevelHeaded
/// result against an independent reference implementation (PairwiseEngine
/// or an la:: kernel) and returns a non-OK status on mismatch.
struct QueryClass {
  std::string name;
  std::string sql;
  std::function<Status(const QueryResult&)> check;
};

/// Reference LA kernels timed against the engine in traced runs:
/// `kernel` is "spmv", "spgemm" or "gemm"; `engine_class` is the query
/// class answering the same product through SQL.
struct LaReference {
  std::string kernel;
  std::string engine_class;
  std::function<void()> run;
};

/// Wall-clock breakdown of one set-up, from an empty catalog to the first
/// timed query.
struct SetupTimes {
  double load_s = 0;         ///< data generation + row appends
  double finalize_s = 0;     ///< Catalog::Finalize
  double index_build_s = 0;  ///< unfiltered trie builds of the warm-up pass
  double total_s = 0;        ///< everything, including warm-up and server
};

/// One set-up instance of a workload: data, engine, optional server.
/// Member order is destruction order in reverse: the server stops before
/// the engine goes, and the engine before the catalog it points to.
struct Fixture {
  std::unique_ptr<Catalog> catalog;
  std::unique_ptr<Engine> engine;
  std::unique_ptr<levelheaded::server::Server> server;
  std::vector<QueryClass> classes;
  std::vector<LaReference> la_refs;
  SetupTimes times;
};

/// Workload definition: how to load its data and which classes it runs.
/// `load` fills fixture->catalog (unfinalized) and fixture->classes.
struct Workload {
  std::string name;
  bool served = false;  ///< driven over loopback TCP through server::Server
  std::function<Status(const Options&, Fixture*)> load;
};

/// Looks a workload up by name; null when unknown.
const Workload* FindWorkload(const std::string& name);
std::vector<std::string> WorkloadNames();

// ---- results ------------------------------------------------------------

/// Order-sensitive 64-bit content hash of every cell of a result (reals
/// by bit pattern), so two results hash equal only if they are identical.
uint64_t ResultHash(const QueryResult& r);

/// Hash of an arbitrary byte string (wire responses).
uint64_t BytesHash(const std::string& bytes);

/// Row-set comparison up to row order with a relative tolerance on real
/// cells: |a - b| <= kRealTolerance * max(1, |a|, |b|).
constexpr double kRealTolerance = 1e-9;
bool RealsClose(double a, double b);
Status CompareResults(const QueryResult& actual, const QueryResult& expected);

/// Flips one cell of `r` (the corruption hook for the benchmark's tests).
void CorruptResult(QueryResult* r);

// ---- statistics -----------------------------------------------------------

double Median(std::vector<double> v);
/// Nearest-rank percentile, p in [0, 1].
double Percentile(std::vector<double> v, double p);
double GeoMean(const std::vector<double>& v);

/// Peak resident set size of this process in MiB (getrusage).
double PeakRssMb();

/// CPU brand string via cpuid ("unknown" off x86).
std::string CpuModel();

// ---- metrics output ---------------------------------------------------------

/// Ordered (name -> value, unit) collection printed as the final JSON line.
class MetricSet {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  /// "name value unit" lines, for humans (printed above the result line).
  std::string ToText() const;
  /// {"name": {"value": v, "unit": u}, ...}
  std::string ToJson() const;

 private:
  std::vector<std::string> order_;
  std::map<std::string, std::pair<double, std::string>> values_;
};

// ---- tracing ----------------------------------------------------------------

/// Span log of a traced run. Spans are recorded from the benchmark's own
/// code around each public call (request id, parent, start, end) and kept
/// in memory; WriteChromeTrace emits them via obs::ChromeTraceJson so the
/// file opens in Perfetto. Thread-safe (serving clients record
/// concurrently).
class Tracer {
 public:
  Tracer() : origin_(std::chrono::steady_clock::now()) {}

  /// Milliseconds since the tracer was created.
  double Now() const;

  /// Opens a span starting now under `parent` (-1 = root); returns its id.
  int Open(const std::string& name, int parent, int64_t request_id);

  /// Closes span `id` now, attaching numeric annotations.
  void Close(int id, std::vector<std::pair<std::string, double>> metrics = {});

  /// Appends an engine-side span tree whose times are relative to
  /// `base_ms`. Its roots are re-parented under `early_parent` when they
  /// start before `split_ms`, else under `late_parent` (planning spans
  /// under the plan span, execution spans under the execute span).
  void Adopt(const std::vector<levelheaded::obs::SpanRecord>& spans,
             double base_ms, double split_ms, int early_parent,
             int late_parent, int64_t request_id);

  Status WriteChromeTrace(const std::string& path) const;
  size_t size() const;

 private:
  std::chrono::steady_clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<levelheaded::obs::SpanRecord> spans_;
};

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
