// Statistics, process fingerprint, metric output, and the span log.

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <thread>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "bench.h"
#include "obs/trace_export.h"

namespace perfbench {

double Median(std::vector<double> v) { return Percentile(std::move(v), 0.5); }

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  // Nearest rank: the smallest sample with at least p of the samples at or
  // below it.
  const double rank = std::ceil(p * static_cast<double>(v.size()));
  const size_t idx = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return v[std::min(idx, v.size() - 1)];
}

double GeoMean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double log_sum = 0;
  for (double x : v) log_sum += std::log(std::max(x, 1e-9));
  return std::exp(log_sum / static_cast<double>(v.size()));
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string CpuModel() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  for (unsigned i = 0; i < 3; ++i) {
    if (__get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                    &regs[4 * i + 2], &regs[4 * i + 3]) == 0) {
      return "unknown";
    }
  }
  std::string brand(reinterpret_cast<const char*>(regs), sizeof(regs));
  brand = brand.c_str();  // cut at the terminating NUL
  const size_t first = brand.find_first_not_of(' ');
  return first == std::string::npos ? "unknown" : brand.substr(first);
#else
  return "unknown";
#endif
}

void MetricSet::Set(const std::string& name, double value,
                    const std::string& unit) {
  if (values_.count(name) == 0) order_.push_back(name);
  values_[name] = {value, unit};
}

std::string MetricSet::ToText() const {
  std::string out;
  char buf[256];
  for (const std::string& name : order_) {
    const auto& [value, unit] = values_.at(name);
    std::snprintf(buf, sizeof(buf), "  %-44s %16.6f %s\n", name.c_str(),
                  value, unit.c_str());
    out += buf;
  }
  return out;
}

std::string MetricSet::ToJson() const {
  std::string out = "{";
  char buf[64];
  for (size_t i = 0; i < order_.size(); ++i) {
    const auto& [value, unit] = values_.at(order_[i]);
    // Non-finite values are not JSON; report them as -1 so a consumer sees
    // an impossible reading rather than a parse error.
    std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(value) ? value : -1);
    if (i > 0) out += ", ";
    out += "\"" + order_[i] + "\": {\"value\": " + buf + ", \"unit\": \"" +
           unit + "\"}";
  }
  return out + "}";
}

double Tracer::Now() const {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

int Tracer::Open(const std::string& name, int parent, int64_t request_id) {
  levelheaded::obs::SpanRecord span;
  span.name = name;
  span.start_ms = Now();
  span.thread_id = std::hash<std::thread::id>()(std::this_thread::get_id());
  span.parent = parent;
  span.metrics.emplace_back("request_id", static_cast<double>(request_id));
  std::lock_guard<std::mutex> lock(mu_);
  span.id = static_cast<int>(spans_.size());
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

void Tracer::Close(int id,
                   std::vector<std::pair<std::string, double>> metrics) {
  const double end_ms = Now();
  std::lock_guard<std::mutex> lock(mu_);
  levelheaded::obs::SpanRecord& span = spans_[static_cast<size_t>(id)];
  span.duration_ms = end_ms - span.start_ms;
  for (auto& m : metrics) span.metrics.push_back(std::move(m));
}

void Tracer::Adopt(const std::vector<levelheaded::obs::SpanRecord>& spans,
                   double base_ms, double split_ms, int early_parent,
                   int late_parent, int64_t request_id) {
  std::lock_guard<std::mutex> lock(mu_);
  const int offset = static_cast<int>(spans_.size());
  for (const levelheaded::obs::SpanRecord& s : spans) {
    levelheaded::obs::SpanRecord copy = s;
    copy.id = s.id + offset;
    copy.start_ms = base_ms + s.start_ms;
    copy.parent = s.parent >= 0              ? s.parent + offset
                  : copy.start_ms < split_ms ? early_parent
                                             : late_parent;
    copy.metrics.emplace_back("request_id", static_cast<double>(request_id));
    spans_.push_back(std::move(copy));
  }
}

Status Tracer::WriteChromeTrace(const std::string& path) const {
  std::string json;
  {
    std::lock_guard<std::mutex> lock(mu_);
    json = levelheaded::obs::ChromeTraceJson(spans_);
  }
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return Status::IoError("cannot write " + path);
  const size_t written = std::fwrite(json.data(), 1, json.size(), f);
  const bool closed = std::fclose(f) == 0;
  if (written != json.size() || !closed) {
    return Status::IoError("short write to " + path);
  }
  return Status::OK();
}

size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

}  // namespace perfbench
