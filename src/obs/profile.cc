#include "obs/profile.h"

#include <algorithm>
#include <cstdio>

#include "obs/json_writer.h"

namespace levelheaded::obs {

namespace {

std::string FormatMs(double ms) {
  char buf[32];
  if (ms >= 100) {
    std::snprintf(buf, sizeof(buf), "%.1fms", ms);
  } else {
    std::snprintf(buf, sizeof(buf), "%.3fms", ms);
  }
  return buf;
}

}  // namespace

std::string QueryProfile::ToText() const {
  // Children of each span, in recording order.
  std::vector<std::vector<int>> children(spans.size());
  std::vector<int> roots;
  for (const SpanRecord& s : spans) {
    if (s.parent >= 0 && s.parent < static_cast<int>(spans.size())) {
      children[s.parent].push_back(s.id);
    } else {
      roots.push_back(s.id);
    }
  }

  // First pass: compose the label column to size its width.
  struct Line {
    std::string label;
    const SpanRecord* span;
  };
  std::vector<Line> lines;
  auto emit = [&](auto&& self, int id, int depth) -> void {
    const SpanRecord& s = spans[id];
    std::string label(2 * depth, ' ');
    label += s.name;
    if (!s.detail.empty()) label += " " + s.detail;
    for (const auto& [k, v] : s.metrics) {
      char buf[64];
      if (v == static_cast<double>(static_cast<uint64_t>(v))) {
        std::snprintf(buf, sizeof(buf), " %s=%llu", k.c_str(),
                      static_cast<unsigned long long>(v));
      } else {
        std::snprintf(buf, sizeof(buf), " %s=%g", k.c_str(), v);
      }
      label += buf;
    }
    lines.push_back({std::move(label), &s});
    for (int c : children[id]) self(self, c, depth + 1);
  };
  for (int r : roots) emit(emit, r, 0);

  size_t width = 4;  // "span"
  for (const Line& l : lines) width = std::max(width, l.label.size());
  const auto counter_items = counters.Items();
  for (const auto& [name, value] : counter_items) {
    (void)value;
    width = std::max(width, name.size() + 2);
  }
  width = std::min<size_t>(width, 96);

  std::string out;
  char buf[160];
  std::snprintf(buf, sizeof(buf), "%-*s %12s %12s\n",
                static_cast<int>(width), "span", "start", "time");
  out += buf;
  for (const Line& l : lines) {
    std::snprintf(buf, sizeof(buf), "%-*s %12s %12s\n",
                  static_cast<int>(width), l.label.c_str(),
                  FormatMs(l.span->start_ms).c_str(),
                  FormatMs(l.span->duration_ms).c_str());
    out += buf;
  }
  out += "counters\n";
  for (const auto& [name, value] : counter_items) {
    std::snprintf(buf, sizeof(buf), "  %-*s %12llu\n",
                  static_cast<int>(width - 2), name.c_str(),
                  static_cast<unsigned long long>(value));
    out += buf;
  }
  if (!node_tuples.empty()) {
    out += "tuples per GHD node\n";
    for (size_t i = 0; i < node_tuples.size(); ++i) {
      std::snprintf(buf, sizeof(buf), "  %-*s %12llu\n",
                    static_cast<int>(width - 2),
                    ("node[" + std::to_string(i) + "]").c_str(),
                    static_cast<unsigned long long>(node_tuples[i]));
      out += buf;
    }
  }
  return out;
}

void QueryProfile::WriteJson(JsonWriter* w) const {
  w->BeginObject();
  w->Key("spans");
  w->BeginArray();
  for (const SpanRecord& s : spans) {
    w->BeginObject();
    w->Key("id");
    w->Int(s.id);
    w->Key("parent");
    w->Int(s.parent);
    w->Key("name");
    w->String(s.name);
    if (!s.detail.empty()) {
      w->Key("detail");
      w->String(s.detail);
    }
    w->Key("start_ms");
    w->Number(s.start_ms);
    w->Key("duration_ms");
    w->Number(s.duration_ms);
    w->Key("thread");
    w->Uint(s.thread_id);
    if (!s.metrics.empty()) {
      w->Key("metrics");
      w->BeginObject();
      for (const auto& [k, v] : s.metrics) {
        w->Key(k);
        w->Number(v);
      }
      w->EndObject();
    }
    w->EndObject();
  }
  w->EndArray();
  w->Key("counters");
  w->BeginObject();
  for (const auto& [name, value] : counters.Items()) {
    w->Key(name);
    w->Uint(value);
  }
  w->EndObject();
  w->Key("node_tuples");
  w->BeginArray();
  for (uint64_t t : node_tuples) w->Uint(t);
  w->EndArray();
  w->EndObject();
}

std::string QueryProfile::ToJson() const {
  JsonWriter w;
  WriteJson(&w);
  return w.str();
}

bool QueryProfile::FromJson(const JsonValue& value, QueryProfile* out) {
  *out = QueryProfile();
  if (!value.IsObject()) return false;
  const JsonValue* spans = value.Find("spans");
  const JsonValue* counters = value.Find("counters");
  if (spans == nullptr || !spans->IsArray() || counters == nullptr ||
      !counters->IsObject()) {
    return false;
  }
  for (const JsonValue& js : spans->array) {
    if (!js.IsObject()) return false;
    SpanRecord s;
    const JsonValue* name = js.Find("name");
    const JsonValue* start = js.Find("start_ms");
    const JsonValue* duration = js.Find("duration_ms");
    if (name == nullptr || !name->IsString() || start == nullptr ||
        !start->IsNumber() || duration == nullptr || !duration->IsNumber()) {
      return false;
    }
    s.name = name->string;
    s.start_ms = start->number;
    s.duration_ms = duration->number;
    if (const JsonValue* id = js.Find("id"); id != nullptr && id->IsNumber()) {
      s.id = static_cast<int>(id->number);
    }
    if (const JsonValue* parent = js.Find("parent");
        parent != nullptr && parent->IsNumber()) {
      s.parent = static_cast<int>(parent->number);
    }
    if (const JsonValue* detail = js.Find("detail");
        detail != nullptr && detail->IsString()) {
      s.detail = detail->string;
    }
    if (const JsonValue* thread = js.Find("thread");
        thread != nullptr && thread->IsNumber()) {
      s.thread_id = static_cast<uint64_t>(thread->number);
    }
    if (const JsonValue* metrics = js.Find("metrics");
        metrics != nullptr && metrics->IsObject()) {
      for (const auto& [k, v] : metrics->object) {
        if (!v.IsNumber()) return false;
        s.metrics.emplace_back(k, v.number);
      }
    }
    out->spans.push_back(std::move(s));
  }
  auto counter = [&](const char* key, uint64_t* field) {
    const JsonValue* v = counters->Find(key);
    if (v != nullptr && v->IsNumber()) *field = static_cast<uint64_t>(v->number);
  };
  counter("intersect.uint_uint", &out->counters.intersect_uint_uint);
  counter("intersect.uint_bitset", &out->counters.intersect_uint_bitset);
  counter("intersect.bitset_bitset", &out->counters.intersect_bitset_bitset);
  counter("intersect.result_values", &out->counters.intersect_result_values);
  counter("intersect.elided", &out->counters.intersect_elided);
  counter("trie.nodes_visited", &out->counters.trie_nodes_visited);
  counter("trie.cache_hits", &out->counters.trie_cache_hits);
  counter("trie.cache_misses", &out->counters.trie_cache_misses);
  counter("trie.cache_probes", &out->counters.trie_cache_probes);
  counter("trie.built", &out->counters.tries_built);
  counter("cache.bytes", &out->counters.cache_bytes);
  counter("cache.evictions", &out->counters.cache_evictions);
  counter("cache.build_waits", &out->counters.cache_build_waits);
  counter("expr.like_compiles", &out->counters.expr_like_compiles);
  counter("expr.programs", &out->counters.expr_programs);
  counter("expr.fallbacks", &out->counters.expr_fallbacks);
  counter("expr.vm_rows", &out->counters.expr_vm_rows);
  counter("expr.fused_rows", &out->counters.expr_fused_rows);
  counter("exec.tuples_emitted", &out->counters.tuples_emitted);
  counter("exec.skew_splits", &out->counters.exec_skew_splits);
  counter("pool.chunks", &out->counters.thread_pool_chunks);
  counter("pool.tasks_spawned", &out->counters.pool_tasks_spawned);
  counter("pool.task_steals", &out->counters.pool_task_steals);
  if (const JsonValue* nt = value.Find("node_tuples");
      nt != nullptr && nt->IsArray()) {
    for (const JsonValue& v : nt->array) {
      if (!v.IsNumber()) return false;
      out->node_tuples.push_back(static_cast<uint64_t>(v.number));
    }
  }
  return true;
}

std::shared_ptr<const QueryProfile> QueryObs::Finish() const {
  auto profile = std::make_shared<QueryProfile>();
  profile->spans = trace.Spans();
  profile->counters = stats.Snapshot();
  profile->node_tuples = node_tuples;
  return profile;
}

}  // namespace levelheaded::obs
