// Executor-level cancellation, deadline, and result-cap tests: the
// cooperative QueryGuard plumbed from QueryOptions through the planner and
// executor (core/cancel.h). The serving layer's use of the same machinery
// is covered by server_test.cc.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/cancel.h"
#include "core/engine.h"
#include "obs/profile.h"
#include "util/rng.h"
#include "workload/matrix_gen.h"

namespace levelheaded {
namespace {

constexpr char kTriangleSql[] =
    "SELECT count(*) FROM edge e1, edge e2, edge e3 "
    "WHERE e1.dst = e2.src AND e2.dst = e3.src AND e3.dst = e1.src";

/// A random graph over a shared "node" domain, dense enough that queries
/// pass through every executor path (trie build, WCOJ loops, aggregation).
class CancelTest : public ::testing::Test {
 protected:
  static constexpr int kNodes = 40;
  static constexpr size_t kEdges = 400;

  void SetUp() override {
    Table* t = catalog_
                   .CreateTable(TableSchema(
                       "edge",
                       {ColumnSpec::Key("src", ValueType::kInt64, "node"),
                        ColumnSpec::Key("dst", ValueType::kInt64, "node"),
                        ColumnSpec::Annotation("w", ValueType::kDouble)}))
                   .ValueOrDie();
    Rng rng(0xCA9CE1);
    std::set<std::pair<int, int>> seen;
    while (seen.size() < kEdges) {
      int a = static_cast<int>(rng.Uniform(kNodes));
      int b = static_cast<int>(rng.Uniform(kNodes));
      if (a == b || !seen.insert({a, b}).second) continue;
      ASSERT_TRUE(t->AppendRow({Value::Int(a), Value::Int(b),
                                Value::Real(rng.UniformDouble(0, 1))})
                      .ok());
    }
    ASSERT_TRUE(catalog_.Finalize().ok());
  }

  Catalog catalog_;
};

TEST_F(CancelTest, NoGuardByDefaultSucceeds) {
  Engine engine(&catalog_);
  auto result = engine.Query(kTriangleSql);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result.value().num_rows, 1u);
}

TEST_F(CancelTest, PreCancelledTokenReturnsCancelled) {
  Engine engine(&catalog_);
  CancelToken token;
  token.Cancel();
  QueryOptions opts;
  opts.cancel_token = &token;
  auto result = engine.Query(kTriangleSql, opts);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
}

TEST_F(CancelTest, ExpiredDeadlineReturnsDeadlineExceeded) {
  Engine engine(&catalog_);
  QueryOptions opts;
  // A deadline this small has passed by the first guard check, whatever
  // the machine speed — the deterministic version of "query too slow".
  opts.timeout_ms = 1e-6;
  auto result = engine.Query(kTriangleSql, opts);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
}

TEST_F(CancelTest, AnalyzePathHonoursDeadline) {
  Engine engine(&catalog_);
  QueryOptions opts;
  opts.timeout_ms = 1e-6;
  auto result = engine.QueryAnalyze(kTriangleSql, opts);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
}

TEST_F(CancelTest, TokenResetAllowsReuse) {
  Engine engine(&catalog_);
  CancelToken token;
  QueryOptions opts;
  opts.cancel_token = &token;

  token.Cancel();
  auto cancelled = engine.Query(kTriangleSql, opts);
  ASSERT_FALSE(cancelled.ok());
  EXPECT_EQ(cancelled.status().code(), StatusCode::kCancelled);

  token.Reset();
  auto ok = engine.Query(kTriangleSql, opts);
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_EQ(ok.value().num_rows, 1u);
}

TEST_F(CancelTest, GenerousDeadlineDoesNotTrip) {
  Engine engine(&catalog_);
  QueryOptions opts;
  opts.timeout_ms = 60'000;
  auto result = engine.Query(kTriangleSql, opts);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
}

TEST_F(CancelTest, CancelFromAnotherThreadUnblocksQuery) {
  Engine engine(&catalog_);
  CancelToken token;
  QueryOptions opts;
  opts.cancel_token = &token;
  // The cancel may land before, during, or after the (fast) query — all
  // three are legal outcomes; what must hold is that the call returns and
  // any failure is kCancelled, not a hang or a crash.
  std::thread canceller([&token] { token.Cancel(); });
  auto result = engine.Query(kTriangleSql, opts);
  canceller.join();
  if (!result.ok()) {
    EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
  }
}

TEST_F(CancelTest, MaxResultRowsCapsScans) {
  EngineOptions limits;
  limits.max_result_rows = kEdges - 1;
  Engine engine(&catalog_, limits);
  auto result = engine.Query("SELECT src, dst FROM edge");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
}

TEST_F(CancelTest, MaxResultRowsExactFitPasses) {
  EngineOptions limits;
  limits.max_result_rows = kEdges;
  Engine engine(&catalog_, limits);
  auto result = engine.Query("SELECT src, dst FROM edge");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result.value().num_rows, kEdges);
}

TEST_F(CancelTest, MaxResultRowsCapsJoinOutput) {
  EngineOptions limits;
  limits.max_result_rows = 8;
  Engine engine(&catalog_, limits);
  // Two-hop paths materialize far more than 8 rows on this graph.
  auto result = engine.Query(
      "SELECT e1.src, e2.dst FROM edge e1, edge e2 "
      "WHERE e1.dst = e2.src");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
}

// An SMM-shaped join (append-mode GROUP BY over both key vertices): the
// bound applies to the exact output row count, checked before the result
// columns are allocated — one row over fails, an exact fit passes.
TEST_F(CancelTest, MaxResultRowsBoundsAppendModeJoinExactly) {
  constexpr char kSmm[] =
      "SELECT e1.src, e2.dst, sum(e1.w * e2.w) FROM edge e1, edge e2 "
      "WHERE e1.dst = e2.src GROUP BY e1.src, e2.dst";
  size_t rows = 0;
  {
    Engine engine(&catalog_);
    auto unbounded = engine.Query(kSmm);
    ASSERT_TRUE(unbounded.ok()) << unbounded.status().ToString();
    rows = unbounded.value().num_rows;
  }
  ASSERT_GT(rows, 1u);
  EngineOptions limits;
  limits.max_result_rows = rows - 1;
  {
    Engine engine(&catalog_, limits);
    auto result = engine.Query(kSmm);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
  }
  limits.max_result_rows = rows;
  Engine engine(&catalog_, limits);
  auto result = engine.Query(kSmm);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result.value().num_rows, rows);
}

TEST_F(CancelTest, MaxResultRowsIgnoresAggregates) {
  EngineOptions limits;
  limits.max_result_rows = 8;
  Engine engine(&catalog_, limits);
  // The aggregate output is one row; the cap applies to materialized
  // output rows, not intermediate join size.
  auto result = engine.Query(kTriangleSql);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result.value().num_rows, 1u);
}

/// A weighted graph whose hub owns most of the 2-paths, so the weighted
/// triangle's hub chunk trips the heavy-root skew splitter and fans out
/// sub-tasks: cancelled and uncancelled regions then drain and run on the
/// one pool at the same time.
class CancelBurstTest : public ::testing::Test {
 protected:
  static constexpr int kHubFanout = 4000;
  static constexpr char kHeavySql[] =
      "SELECT sum(e1.w * e2.w * e3.w) FROM edge e1, edge e2, edge e3 "
      "WHERE e1.dst = e2.src AND e2.dst = e3.src AND e3.dst = e1.src";

  void SetUp() override {
    Table* t = catalog_
                   .CreateTable(TableSchema(
                       "edge",
                       {ColumnSpec::Key("src", ValueType::kInt64, "node"),
                        ColumnSpec::Key("dst", ValueType::kInt64, "node"),
                        ColumnSpec::Annotation("w", ValueType::kDouble)}))
                   .ValueOrDie();
    Rng rng(20260809);
    for (int i = 1; i <= kHubFanout; ++i) {
      // Magnitude-varying weights: summation order shows up in the bits.
      ASSERT_TRUE(t->AppendRow({Value::Int(0), Value::Int(i),
                                Value::Real(rng.UniformDouble(0, 1) *
                                            (1 + (i % 13) * 1e3))})
                      .ok());
      ASSERT_TRUE(t->AppendRow({Value::Int(i), Value::Int(1 + (i % 97)),
                                Value::Real(rng.UniformDouble(-1, 1))})
                      .ok());
    }
    for (int j = 1; j <= 97; ++j) {
      ASSERT_TRUE(t->AppendRow({Value::Int(j), Value::Int(0),
                                Value::Real(rng.UniformDouble(0, 2))})
                      .ok());
    }
    ASSERT_TRUE(catalog_.Finalize().ok());
  }

  static uint64_t SumBits(const QueryResult& r) {
    uint64_t bits = 0;
    std::memcpy(&bits, &r.columns[0].reals[0], sizeof(bits));
    return bits;
  }

  Catalog catalog_;
};

TEST_F(CancelBurstTest, ConcurrentCancelBurstNeverHangs) {
  Engine engine(&catalog_);
  auto reference = engine.QueryAnalyze(kHeavySql);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  ASSERT_GT(reference.value().profile->counters.exec_skew_splits, 0u);
  const uint64_t expected = SumBits(reference.value());

  // An uncancelled query keeps running on the same engine throughout the
  // burst; its answer must not move while cancelled regions drain.
  std::atomic<bool> stop{false};
  std::atomic<int> bystander_runs{0};
  std::atomic<int> bystander_mismatches{0};
  std::thread bystander([&] {
    while (!stop.load() || bystander_runs.load() == 0) {
      auto r = engine.Query(kHeavySql);
      if (!r.ok() || SumBits(r.value()) != expected) ++bystander_mismatches;
      ++bystander_runs;
    }
  });

  // Repeated race: the cancel may land before, during, or after the
  // parallel region — every outcome is legal, but the call must return
  // and any failure must be kCancelled.
  for (int iter = 0; iter < 8; ++iter) {
    CancelToken token;
    QueryOptions opts;
    opts.cancel_token = &token;
    std::thread canceller([&token] { token.Cancel(); });
    auto r = engine.Query(kHeavySql, opts);
    canceller.join();
    if (!r.ok()) {
      EXPECT_EQ(r.status().code(), StatusCode::kCancelled);
    } else {
      EXPECT_EQ(SumBits(r.value()), expected);
    }
  }
  stop.store(true);
  bystander.join();
  EXPECT_GT(bystander_runs.load(), 0);
  EXPECT_EQ(bystander_mismatches.load(), 0);

  auto ok = engine.Query(kHeavySql);
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_EQ(SumBits(ok.value()), expected);
}

/// A large SMV whose vector covers its whole domain: the vector's trie
/// level is full, so the leaf runs the elided CSR-shaped loop over each
/// matrix row. Aborts are polled per root row around that loop.
class CancelSmvTest : public ::testing::Test {
 protected:
  static constexpr char kSmv[] =
      "SELECT m.r, sum(m.v * x.val) FROM m, x WHERE m.c = x.i GROUP BY m.r";

  void SetUp() override {
    const SyntheticMatrix m = Nlp240Like(0.05);
    ASSERT_TRUE(AddMatrixTable(&catalog_, "m", "d", m).ok());
    ASSERT_TRUE(AddVectorTable(&catalog_, "x", "d", m.coo.num_rows, 7).ok());
    ASSERT_TRUE(catalog_.Finalize().ok());
    Engine engine(&catalog_);
    auto r = engine.Query(kSmv);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    reference_ = std::move(r).value();
    ASSERT_GT(reference_.num_rows, 1000u);
  }

  Catalog catalog_;
  QueryResult reference_;
};

TEST_F(CancelSmvTest, PreCancelledTokenReturnsCancelled) {
  Engine engine(&catalog_);
  CancelToken token;
  token.Cancel();
  QueryOptions opts;
  opts.cancel_token = &token;
  auto result = engine.Query(kSmv, opts);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
}

TEST_F(CancelSmvTest, ExpiredDeadlineReturnsDeadlineExceeded) {
  Engine engine(&catalog_);
  QueryOptions opts;
  opts.timeout_ms = 1e-6;
  auto result = engine.Query(kSmv, opts);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
}

// Cancels and deadlines landing while the elided loops run: every run
// either completes with the unbounded result or unwinds with the status
// of what stopped it — never a partial result.
TEST_F(CancelSmvTest, MidRunAbortsUnwindWithTheirStatus) {
  Engine engine(&catalog_);
  for (int i = 0; i < 8; ++i) {
    CancelToken token;
    QueryOptions opts;
    opts.cancel_token = &token;
    std::thread canceller([&token, i] {
      std::this_thread::sleep_for(std::chrono::microseconds(50 * i));
      token.Cancel();
    });
    auto cancelled = engine.Query(kSmv, opts);
    canceller.join();
    if (cancelled.ok()) {
      EXPECT_EQ(cancelled.value().num_rows, reference_.num_rows);
      EXPECT_EQ(cancelled.value().columns[1].reals,
                reference_.columns[1].reals);
    } else {
      EXPECT_EQ(cancelled.status().code(), StatusCode::kCancelled);
    }

    QueryOptions timed;
    timed.timeout_ms = 0.05 * (i + 1);
    auto deadline = engine.Query(kSmv, timed);
    if (deadline.ok()) {
      EXPECT_EQ(deadline.value().columns[1].reals,
                reference_.columns[1].reals);
    } else {
      EXPECT_EQ(deadline.status().code(), StatusCode::kDeadlineExceeded);
    }
  }
}

// The row bound stays exact on SMV: one row under the output fails before
// the result is allocated, an exact fit passes.
TEST_F(CancelSmvTest, MaxResultRowsBoundsSmvExactly) {
  const size_t rows = reference_.num_rows;
  EngineOptions limits;
  limits.max_result_rows = rows - 1;
  {
    Engine engine(&catalog_, limits);
    auto result = engine.Query(kSmv);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
  }
  limits.max_result_rows = rows;
  Engine engine(&catalog_, limits);
  auto result = engine.Query(kSmv);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result.value().num_rows, rows);
}

TEST(CancelTokenTest, ResetAndCancelAreIdempotent) {
  CancelToken token;
  EXPECT_FALSE(token.IsCancelled());
  token.Cancel();
  token.Cancel();
  EXPECT_TRUE(token.IsCancelled());
  token.Reset();
  token.Reset();
  EXPECT_FALSE(token.IsCancelled());
}

TEST(QueryGuardTest, ChecksReportTheRightCodes) {
  QueryGuard guard;
  EXPECT_TRUE(guard.Check().ok());  // inert guard
  EXPECT_TRUE(guard.CheckRows(1u << 30).ok());

  CancelToken token;
  guard.token = &token;
  EXPECT_TRUE(guard.Check().ok());
  token.Cancel();
  EXPECT_EQ(guard.Check().code(), StatusCode::kCancelled);
  token.Reset();

  guard.has_deadline = true;
  guard.deadline = std::chrono::steady_clock::now() -
                   std::chrono::milliseconds(1);
  EXPECT_EQ(guard.Check().code(), StatusCode::kDeadlineExceeded);
  guard.deadline = std::chrono::steady_clock::now() +
                   std::chrono::hours(1);
  EXPECT_TRUE(guard.Check().ok());

  guard.max_result_rows = 100;
  EXPECT_TRUE(guard.CheckRows(100).ok());
  EXPECT_EQ(guard.CheckRows(101).code(), StatusCode::kResourceExhausted);
}

}  // namespace
}  // namespace levelheaded
