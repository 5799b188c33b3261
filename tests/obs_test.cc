// Unit tests for the observability layer: trace span nesting, counter
// atomicity under the thread pool, and the JSON writer / parser / profile
// round-trip behind the BENCH_*.json export.

#include <cmath>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/json_writer.h"
#include "obs/profile.h"
#include "obs/server_stats.h"
#include "obs/slow_query_log.h"
#include "obs/stats.h"
#include "obs/trace.h"
#include "obs/trace_export.h"
#include "util/thread_pool.h"

namespace levelheaded::obs {
namespace {

// --- Trace / TraceSpan -------------------------------------------------------

TEST(TraceTest, SpansNestThroughParentIds) {
  Trace trace;
  {
    TraceSpan query(&trace, "query");
    {
      TraceSpan parse(&trace, "parse");
      parse.SetDetail("select");
    }
    {
      TraceSpan exec(&trace, "execute");
      TraceSpan wcoj(&trace, "wcoj");
      wcoj.AddMetric("tuples", 42);
    }
  }
  std::vector<SpanRecord> spans = trace.Spans();
  ASSERT_EQ(spans.size(), 4u);
  EXPECT_EQ(spans[0].name, "query");
  EXPECT_EQ(spans[0].parent, -1);
  EXPECT_EQ(spans[1].name, "parse");
  EXPECT_EQ(spans[1].parent, spans[0].id);
  EXPECT_EQ(spans[1].detail, "select");
  EXPECT_EQ(spans[2].name, "execute");
  EXPECT_EQ(spans[2].parent, spans[0].id);
  EXPECT_EQ(spans[3].name, "wcoj");
  EXPECT_EQ(spans[3].parent, spans[2].id);
  ASSERT_EQ(spans[3].metrics.size(), 1u);
  EXPECT_EQ(spans[3].metrics[0].first, "tuples");
  EXPECT_EQ(spans[3].metrics[0].second, 42);
  for (const SpanRecord& s : spans) {
    EXPECT_GE(s.duration_ms, 0);
    EXPECT_GE(s.start_ms, 0);
  }
}

TEST(TraceTest, NullTraceSpanIsNoOp) {
  TraceSpan span(nullptr, "never");
  span.SetDetail("ignored");
  span.AddMetric("n", 1);
  span.End();
  span.End();  // idempotent
}

TEST(TraceTest, ExplicitEndMakesDestructorNoOp) {
  Trace trace;
  {
    TraceSpan span(&trace, "once");
    span.End();
    span.End();
  }
  EXPECT_EQ(trace.Spans().size(), 1u);
}

// --- ExecStats ---------------------------------------------------------------

TEST(ExecStatsTest, CountersAccumulateAndReset) {
  ExecStats stats;
  stats.CountIntersect(IntersectKernel::kUintUint, 3);
  stats.CountIntersect(IntersectKernel::kUintBitset, 5);
  stats.CountIntersect(IntersectKernel::kBitsetBitset, 7);
  stats.CountTrieNodesVisited(11);
  stats.CountTuplesEmitted(13);
  stats.CountTrieCacheHit();
  stats.CountTrieCacheMiss();
  stats.CountTrieBuilt();
  stats.CountThreadPoolChunk(2);

  StatsSnapshot snap = stats.Snapshot();
  EXPECT_EQ(snap.intersect_uint_uint, 1u);
  EXPECT_EQ(snap.intersect_uint_bitset, 1u);
  EXPECT_EQ(snap.intersect_bitset_bitset, 1u);
  EXPECT_EQ(snap.intersect_result_values, 15u);
  EXPECT_EQ(snap.TotalIntersections(), 3u);
  EXPECT_EQ(snap.trie_nodes_visited, 11u);
  EXPECT_EQ(snap.tuples_emitted, 13u);
  EXPECT_EQ(snap.trie_cache_hits, 1u);
  EXPECT_EQ(snap.trie_cache_misses, 1u);
  EXPECT_EQ(snap.tries_built, 1u);
  EXPECT_EQ(snap.thread_pool_chunks, 2u);

  stats.Reset();
  snap = stats.Snapshot();
  EXPECT_EQ(snap.TotalIntersections(), 0u);
  EXPECT_EQ(snap.thread_pool_chunks, 0u);
}

TEST(ExecStatsTest, ItemsCoverEveryCounter) {
  ExecStats stats;
  stats.CountIntersect(IntersectKernel::kUintUint, 2);
  stats.CountIntersectElided(3);
  StatsSnapshot snap = stats.Snapshot();
  std::vector<std::pair<std::string, uint64_t>> items = snap.Items();
  EXPECT_EQ(items.size(), 23u);
  bool saw_uint_uint = false;
  bool saw_elided = false;
  bool saw_task_steals = false;
  for (const auto& [name, value] : items) {
    if (name == "intersect.uint_uint") {
      saw_uint_uint = true;
      EXPECT_EQ(value, 1u);
    }
    if (name == "intersect.elided") {
      saw_elided = true;
      EXPECT_EQ(value, 3u);
    }
    if (name == "pool.task_steals") {
      saw_task_steals = true;
      EXPECT_EQ(value, 0u);
    }
  }
  EXPECT_TRUE(saw_uint_uint);
  EXPECT_TRUE(saw_elided);
  EXPECT_TRUE(saw_task_steals);
}

TEST(ExecStatsTest, AtomicUnderThreadPool) {
  constexpr int64_t kN = 20000;
  ExecStats stats;
  {
    StatsScope scope(&stats);
    ASSERT_EQ(ActiveStats(), &stats);
    ThreadPool::Global().ParallelFor(0, kN, 64, [](int, int64_t) {
      if (ExecStats* s = ActiveStats()) {
        s->CountIntersect(IntersectKernel::kUintUint, 1);
        s->CountTrieNodesVisited(2);
      }
    });
  }
  EXPECT_EQ(ActiveStats(), nullptr);
  StatsSnapshot snap = stats.Snapshot();
  EXPECT_EQ(snap.intersect_uint_uint, static_cast<uint64_t>(kN));
  EXPECT_EQ(snap.intersect_result_values, static_cast<uint64_t>(kN));
  EXPECT_EQ(snap.trie_nodes_visited, static_cast<uint64_t>(2 * kN));
  // The pool instrumentation itself counted the claimed chunks.
  EXPECT_GT(snap.thread_pool_chunks, 0u);
}

TEST(ExecStatsTest, ScopesNest) {
  ExecStats outer, inner;
  EXPECT_EQ(ActiveStats(), nullptr);
  {
    StatsScope a(&outer);
    EXPECT_EQ(ActiveStats(), &outer);
    {
      StatsScope b(&inner);
      EXPECT_EQ(ActiveStats(), &inner);
    }
    EXPECT_EQ(ActiveStats(), &outer);
  }
  EXPECT_EQ(ActiveStats(), nullptr);
}

// --- JsonWriter / ParseJson --------------------------------------------------

TEST(JsonTest, WriterEmitsValidCompactJson) {
  JsonWriter w(/*pretty=*/false);
  w.BeginObject();
  w.Key("name");
  w.String("a \"quoted\"\nvalue");
  w.Key("count");
  w.Uint(18446744073709551615ull % (1ull << 53));  // within exact range
  w.Key("pi");
  w.Number(3.25);
  w.Key("neg");
  w.Int(-7);
  w.Key("flag");
  w.Bool(true);
  w.Key("nothing");
  w.Null();
  w.Key("list");
  w.BeginArray();
  w.Number(1);
  w.Number(2);
  w.EndArray();
  w.EndObject();

  JsonValue v;
  std::string error;
  ASSERT_TRUE(ParseJson(w.str(), &v, &error)) << error << "\n" << w.str();
  ASSERT_TRUE(v.IsObject());
  EXPECT_EQ(v.Find("name")->string, "a \"quoted\"\nvalue");
  EXPECT_EQ(v.Find("pi")->number, 3.25);
  EXPECT_EQ(v.Find("neg")->number, -7);
  EXPECT_TRUE(v.Find("flag")->boolean);
  EXPECT_EQ(v.Find("nothing")->kind, JsonValue::Kind::kNull);
  ASSERT_TRUE(v.Find("list")->IsArray());
  EXPECT_EQ(v.Find("list")->array.size(), 2u);
}

TEST(JsonTest, DoubleRoundTripIsExact) {
  const double values[] = {0.0, 1.0, 0.1, 123456.789, 1e-9, 9007199254740991.0};
  for (double d : values) {
    JsonWriter w(false);
    w.BeginArray();
    w.Number(d);
    w.EndArray();
    JsonValue v;
    ASSERT_TRUE(ParseJson(w.str(), &v, nullptr));
    ASSERT_EQ(v.array.size(), 1u);
    EXPECT_EQ(v.array[0].number, d) << w.str();
  }
}

TEST(JsonTest, ParserRejectsMalformedInput) {
  JsonValue v;
  EXPECT_FALSE(ParseJson("", &v, nullptr));
  EXPECT_FALSE(ParseJson("{", &v, nullptr));
  EXPECT_FALSE(ParseJson("{\"a\":}", &v, nullptr));
  EXPECT_FALSE(ParseJson("[1,2,]", &v, nullptr));
  EXPECT_FALSE(ParseJson("[1] trailing", &v, nullptr));
  EXPECT_FALSE(ParseJson("nul", &v, nullptr));
  std::string error;
  EXPECT_FALSE(ParseJson("{\"a\" 1}", &v, &error));
  EXPECT_FALSE(error.empty());
}

TEST(JsonTest, ParserHandlesEscapesAndNesting) {
  JsonValue v;
  ASSERT_TRUE(ParseJson(R"({"s": "tab\tA", "o": {"a": [true, null]}})",
                        &v, nullptr));
  EXPECT_EQ(v.Find("s")->string, "tab\tA");
  const JsonValue* o = v.Find("o");
  ASSERT_NE(o, nullptr);
  ASSERT_TRUE(o->Find("a")->IsArray());
  EXPECT_EQ(o->Find("a")->array.size(), 2u);
}

// --- QueryProfile round-trip -------------------------------------------------

TEST(QueryProfileTest, JsonRoundTrip) {
  QueryObs qobs;
  {
    TraceSpan query(&qobs.trace, "query");
    TraceSpan exec(&qobs.trace, "execute");
    exec.SetDetail("node 0");
    exec.AddMetric("tuples", 7);
  }
  qobs.stats.CountIntersect(IntersectKernel::kUintBitset, 9);
  qobs.stats.CountIntersectElided(4);
  qobs.stats.CountTuplesEmitted(7);
  qobs.node_tuples = {7, 3};
  std::shared_ptr<const QueryProfile> profile = qobs.Finish();
  ASSERT_NE(profile, nullptr);

  const std::string json = profile->ToJson();
  JsonValue v;
  std::string error;
  ASSERT_TRUE(ParseJson(json, &v, &error)) << error;
  QueryProfile back;
  ASSERT_TRUE(QueryProfile::FromJson(v, &back));

  ASSERT_EQ(back.spans.size(), profile->spans.size());
  for (size_t i = 0; i < back.spans.size(); ++i) {
    EXPECT_EQ(back.spans[i].name, profile->spans[i].name);
    EXPECT_EQ(back.spans[i].detail, profile->spans[i].detail);
    EXPECT_EQ(back.spans[i].id, profile->spans[i].id);
    EXPECT_EQ(back.spans[i].parent, profile->spans[i].parent);
    EXPECT_EQ(back.spans[i].start_ms, profile->spans[i].start_ms);
    EXPECT_EQ(back.spans[i].duration_ms, profile->spans[i].duration_ms);
    ASSERT_EQ(back.spans[i].metrics.size(), profile->spans[i].metrics.size());
    for (size_t j = 0; j < back.spans[i].metrics.size(); ++j) {
      EXPECT_EQ(back.spans[i].metrics[j], profile->spans[i].metrics[j]);
    }
  }
  EXPECT_EQ(back.counters.intersect_uint_bitset, 1u);
  EXPECT_EQ(back.counters.intersect_result_values, 9u);
  EXPECT_EQ(back.counters.intersect_elided, 4u);
  EXPECT_EQ(back.counters.tuples_emitted, 7u);
  EXPECT_EQ(back.node_tuples, (std::vector<uint64_t>{7, 3}));
}

TEST(QueryProfileTest, FromJsonRejectsWrongShape) {
  JsonValue v;
  ASSERT_TRUE(ParseJson("[1,2,3]", &v, nullptr));
  QueryProfile p;
  EXPECT_FALSE(QueryProfile::FromJson(v, &p));
  ASSERT_TRUE(ParseJson("{\"spans\": 5}", &v, nullptr));
  EXPECT_FALSE(QueryProfile::FromJson(v, &p));
}

TEST(QueryProfileTest, ToTextListsSpansAndCounters) {
  QueryObs qobs;
  {
    TraceSpan query(&qobs.trace, "query");
    TraceSpan parse(&qobs.trace, "parse");
  }
  qobs.stats.CountIntersect(IntersectKernel::kUintUint, 4);
  qobs.node_tuples = {10};
  std::shared_ptr<const QueryProfile> profile = qobs.Finish();
  const std::string text = profile->ToText();
  EXPECT_NE(text.find("query"), std::string::npos);
  EXPECT_NE(text.find("parse"), std::string::npos);
  EXPECT_NE(text.find("intersect.uint_uint"), std::string::npos);
  EXPECT_NE(text.find("node[0]"), std::string::npos);
}

// --- ServerStats latency accounting ------------------------------------------

TEST(ServerStatsTest, LatencyQuantizedOnceSoTotalsMatchBuckets) {
  // Regression: the sample must be quantized to integer microseconds
  // exactly once, so the total, max, percentiles, and per-population
  // histograms all describe the same value.
  ServerStats stats;
  stats.RecordLatency(RequestClass::kQuery, RequestOutcome::kOk, 1.2345);
  stats.RecordLatency(RequestClass::kQuery, RequestOutcome::kOk, 0.0004);
  stats.RecordLatency(RequestClass::kAnalyze, RequestOutcome::kError, 2.5);

  const ServerStats::Snapshot s = stats.snapshot();
  // 1234.5us rounds half-up to 1235; 0.4us rounds to 0; 2500 exact.
  EXPECT_DOUBLE_EQ(s.latency_ms_total, (1235.0 + 0.0 + 2500.0) / 1000.0);
  EXPECT_DOUBLE_EQ(s.latency_ms_max, 2.5);

  const HistogramSnapshot all = stats.LatencySnapshot();
  EXPECT_EQ(all.count, 3u);
  EXPECT_EQ(all.sum_us, 1235u + 2500u);
  EXPECT_EQ(all.max_us, 2500u);

  // Per-class and per-outcome views partition the same samples.
  EXPECT_EQ(stats.LatencySnapshot(RequestClass::kQuery).count, 2u);
  EXPECT_EQ(stats.LatencySnapshot(RequestClass::kAnalyze).count, 1u);
  EXPECT_EQ(stats.LatencySnapshot(RequestClass::kExplain).count, 0u);
  EXPECT_EQ(stats.LatencySnapshot(RequestOutcome::kOk).count, 2u);
  EXPECT_EQ(stats.LatencySnapshot(RequestOutcome::kError).count, 1u);
  EXPECT_EQ(stats.LatencySnapshot(RequestOutcome::kError).max_us, 2500u);
}

TEST(ServerStatsTest, LabelNamesAreStable) {
  EXPECT_STREQ(RequestClassName(RequestClass::kQuery), "query");
  EXPECT_STREQ(RequestClassName(RequestClass::kOther), "other");
  EXPECT_STREQ(RequestOutcomeName(RequestOutcome::kOk), "ok");
  EXPECT_STREQ(RequestOutcomeName(RequestOutcome::kTimeout), "timeout");
}

// --- Chrome trace export -----------------------------------------------------

TEST(ChromeTraceTest, RoundTripMatchesSpanTree) {
  Trace trace;
  {
    TraceSpan query(&trace, "query");
    {
      TraceSpan parse(&trace, "parse");
      parse.SetDetail("select");
    }
    {
      TraceSpan exec(&trace, "execute");
      TraceSpan wcoj(&trace, "wcoj");
      wcoj.AddMetric("tuples", 42);
    }
  }
  const std::vector<SpanRecord> spans = trace.Spans();
  const std::string json = ChromeTraceJson(spans);

  JsonValue doc;
  std::string error;
  ASSERT_TRUE(ParseJson(json, &doc, &error)) << error;
  const JsonValue* events = doc.Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->IsArray());

  // One "X" (complete) event per span, in span order; metadata events carry
  // the process/thread names Perfetto shows on the lanes.
  std::vector<const JsonValue*> complete;
  size_t metadata = 0;
  for (const JsonValue& event : events->array) {
    const JsonValue* ph = event.Find("ph");
    ASSERT_NE(ph, nullptr);
    if (ph->string == "X") {
      complete.push_back(&event);
    } else {
      EXPECT_EQ(ph->string, "M");
      ++metadata;
    }
  }
  ASSERT_EQ(complete.size(), spans.size());
  EXPECT_GE(metadata, 2u);  // process_name + at least one thread_name

  for (size_t i = 0; i < spans.size(); ++i) {
    const JsonValue& event = *complete[i];
    const JsonValue* args = event.Find("args");
    ASSERT_NE(args, nullptr) << "span " << i;
    // Timestamps are microseconds (start_ms * 1000) and the span tree
    // survives via args.span_id / args.parent.
    EXPECT_NEAR(event.Find("ts")->number, spans[i].start_ms * 1000.0, 1e-6);
    EXPECT_NEAR(event.Find("dur")->number, spans[i].duration_ms * 1000.0,
                1e-6);
    EXPECT_EQ(static_cast<int>(args->Find("span_id")->number), spans[i].id);
    EXPECT_EQ(static_cast<int>(args->Find("parent")->number),
              spans[i].parent);
    EXPECT_NE(event.Find("name")->string.find(spans[i].name),
              std::string::npos);
  }
  // Nesting: the wcoj span's parent is execute, and its args say so.
  EXPECT_EQ(static_cast<int>(complete[3]->Find("args")
                                 ->Find("parent")->number),
            spans[2].id);
  // The wcoj metric rides along as an arg.
  EXPECT_EQ(complete[3]->Find("args")->Find("tuples")->number, 42.0);
}

TEST(ChromeTraceTest, EmptySpanListIsStillValidJson) {
  JsonValue doc;
  std::string error;
  ASSERT_TRUE(ParseJson(ChromeTraceJson({}), &doc, &error)) << error;
  const JsonValue* events = doc.Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->IsArray());
  for (const JsonValue& event : events->array) {
    EXPECT_EQ(event.Find("ph")->string, "M");  // metadata only
  }
}

// --- Slow-query log ----------------------------------------------------------

SlowQueryRecord MakeRecord(const std::string& sql, double ms) {
  SlowQueryRecord r;
  r.sql = sql;
  r.latency_ms = ms;
  r.status = "OK";
  return r;
}

TEST(SlowQueryLogTest, ThresholdGatesRecording) {
  SlowQueryLog off(/*capacity=*/4, /*threshold_ms=*/0);
  EXPECT_FALSE(off.enabled());
  EXPECT_FALSE(off.MaybeRecord(MakeRecord("q", 1e9)));

  SlowQueryLog on(/*capacity=*/4, /*threshold_ms=*/250);
  EXPECT_TRUE(on.enabled());
  EXPECT_EQ(on.threshold_ms(), 250);
  EXPECT_FALSE(on.MaybeRecord(MakeRecord("fast", 249.9)));
  EXPECT_TRUE(on.MaybeRecord(MakeRecord("slow", 250.0)));
  EXPECT_EQ(on.total_recorded(), 1u);
}

TEST(SlowQueryLogTest, RingKeepsNewestAndSequencesAreStable) {
  SlowQueryLog log(/*capacity=*/2, /*threshold_ms=*/1);
  for (int i = 0; i < 5; ++i) {
    log.MaybeRecord(MakeRecord("q" + std::to_string(i), 10 + i));
  }
  EXPECT_EQ(log.total_recorded(), 5u);
  const std::vector<SlowQueryRecord> kept = log.Snapshot();
  ASSERT_EQ(kept.size(), 2u);
  EXPECT_EQ(kept[0].sql, "q3");
  EXPECT_EQ(kept[0].sequence, 4u);
  EXPECT_EQ(kept[1].sql, "q4");
  EXPECT_EQ(kept[1].sequence, 5u);
}

TEST(SlowQueryLogTest, TopSpansSortsAndSkipsTheQueryRoot) {
  std::vector<SpanRecord> spans(4);
  spans[0].name = "query";
  spans[0].duration_ms = 100;
  spans[1].name = "parse";
  spans[1].duration_ms = 1;
  spans[2].name = "execute";
  spans[2].duration_ms = 90;
  spans[3].name = "trie_build";
  spans[3].duration_ms = 9;
  const auto top = SlowQueryRecord::TopSpans(spans, /*limit=*/2);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].first, "execute");
  EXPECT_EQ(top[0].second, 90);
  EXPECT_EQ(top[1].first, "trie_build");
}

TEST(SlowQueryLogTest, JsonLineParsesWithAllFields) {
  SlowQueryRecord r = MakeRecord("SELECT 1 -- \"quoted\"", 123.5);
  r.sequence = 7;
  r.num_rows = 3;
  r.cache_hits = 2;
  r.cache_misses = 1;
  r.top_spans = {{"execute", 120.0}, {"parse", 2.5}};
  JsonValue doc;
  std::string error;
  ASSERT_TRUE(ParseJson(r.ToJsonLine(), &doc, &error)) << error;
  EXPECT_EQ(doc.Find("seq")->number, 7.0);
  EXPECT_EQ(doc.Find("sql")->string, "SELECT 1 -- \"quoted\"");
  EXPECT_EQ(doc.Find("latency_ms")->number, 123.5);
  EXPECT_EQ(doc.Find("num_rows")->number, 3.0);
  EXPECT_EQ(doc.Find("status")->string, "OK");
  EXPECT_EQ(doc.Find("cache_hits")->number, 2.0);
  EXPECT_EQ(doc.Find("cache_misses")->number, 1.0);
  const JsonValue* top = doc.Find("top_spans");
  ASSERT_NE(top, nullptr);
  ASSERT_EQ(top->array.size(), 2u);
  EXPECT_EQ(top->array[0].Find("name")->string, "execute");
  EXPECT_EQ(top->array[0].Find("ms")->number, 120.0);
}

}  // namespace
}  // namespace levelheaded::obs
