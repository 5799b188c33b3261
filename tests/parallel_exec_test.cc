// Nested-parallel execution and intersection-kernel memory-safety tests.
//
// Covers the skew-resistant executor work as one suite:
//   - the SIMD tail-store regression (exact-capacity ScratchSet intersection
//     that scribbled past the buffer before PrepareUint grew
//     kSimdTailSlack) — fails under ASan on the pre-fix layout;
//   - GallopLowerBound boundary behavior against std::lower_bound;
//   - count-only kernels against their materializing twins;
//   - bit-identical query results across LH_THREADS ∈ {1, 2, 8} on a
//     skewed graph where one hub owns most of the tuples (the shape that
//     triggers heavy-root task splitting);
//   - order-sensitive bit identity of append-mode SMM/SMV results across
//     thread counts, on both sides of the parallel-concat row threshold;
//   - an append-mode coverage matrix (every aggregate, HAVING, output
//     expressions, key-only joins, skew splits on either side of a group
//     dimension, string key vertices, NaN and -0.0 inputs) against the
//     brute-force reference executor;
//   - a nested-parallelism stress: ParallelChunks workers fanning out
//     Submit/Wait sub-tasks concurrently;
//   - pool counter hygiene: region runners are neither spawned nor stolen
//     tasks.
//
// Registered under the `concurrency` ctest label so the TSan preset runs it.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/engine.h"
#include "core/group_accum.h"
#include "obs/profile.h"
#include "reference_executor.h"
#include "set/intersect.h"
#include "set/set.h"
#include "util/rng.h"
#include "sql/binder.h"
#include "sql/parser.h"
#include "util/thread_pool.h"
#include "util/total_order.h"
#include "workload/tpch_gen.h"

namespace levelheaded {
namespace {

// ---------------------------------------------------------------------------
// Satellite (a): SIMD tail store must stay inside ScratchSet's buffer.

// Minimal shape that drives the AVX2 kernel's unconditional 4-lane store to
// the last legal cursor position: a = {1..7, BIG} and b = {1..12} intersect
// to 7 values (cap = 8). Block (i=4, j=8) compares {5,6,7,BIG} against
// {9,10,11,12}, matches nothing, and still stores 16 bytes at out + 7 —
// lanes 8..10 past an exact-capacity buffer. PrepareUint's kSimdTailSlack
// absorbs the overhang; without it ASan reports a heap-buffer-overflow here.
TEST(SimdTailStoreTest, ExactCapacityIntersectStaysInBounds) {
  const std::vector<uint32_t> a = {1, 2, 3, 4, 5, 6, 7, 0x7fffffffu};
  const std::vector<uint32_t> b = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12};
  const OwnedSet sa = OwnedSet::FromSortedWithLayout(a, SetLayout::kUint);
  const OwnedSet sb = OwnedSet::FromSortedWithLayout(b, SetLayout::kUint);
  ScratchSet out;  // fresh scratch: allocates exactly what PrepareUint asks
  Intersect(sa.view(), sb.view(), &out);
  EXPECT_EQ(out.view().ToVector(),
            (std::vector<uint32_t>{1, 2, 3, 4, 5, 6, 7}));
}

// Randomized exact-capacity intersections across sizes that keep the SIMD
// path engaged (na >= 8, size ratio below the galloping cutoff). Each case
// uses a fresh ScratchSet so the allocation is exactly PrepareUint(cap).
TEST(SimdTailStoreTest, RandomizedExactCapacityIntersections) {
  Rng rng(0x7A11570);
  for (int iter = 0; iter < 200; ++iter) {
    const uint32_t na = 8 + static_cast<uint32_t>(rng.Uniform(64));
    const uint32_t nb = na + static_cast<uint32_t>(rng.Uniform(4 * na));
    std::vector<uint32_t> a, b;
    uint32_t v = 0;
    for (uint32_t i = 0; i < na; ++i) {
      v += 1 + static_cast<uint32_t>(rng.Uniform(5));
      a.push_back(v);
    }
    v = 0;
    for (uint32_t i = 0; i < nb; ++i) {
      v += 1 + static_cast<uint32_t>(rng.Uniform(5));
      b.push_back(v);
    }
    const OwnedSet sa = OwnedSet::FromSortedWithLayout(a, SetLayout::kUint);
    const OwnedSet sb = OwnedSet::FromSortedWithLayout(b, SetLayout::kUint);
    ScratchSet out;
    Intersect(sa.view(), sb.view(), &out);
    // Cross-check cardinality against the count-only kernel.
    EXPECT_EQ(out.view().cardinality, IntersectCount(sa.view(), sb.view()));
  }
}

// ---------------------------------------------------------------------------
// Satellite (b): galloping probe bounds.

TEST(GallopLowerBoundTest, MatchesStdLowerBound) {
  Rng rng(0x6A110B);
  for (int iter = 0; iter < 50; ++iter) {
    std::vector<uint32_t> a;
    uint32_t v = 0;
    const uint32_t n = static_cast<uint32_t>(rng.Uniform(300));
    for (uint32_t i = 0; i < n; ++i) {
      v += 1 + static_cast<uint32_t>(rng.Uniform(1000));
      a.push_back(v);
    }
    for (int probe = 0; probe < 40; ++probe) {
      const uint32_t lo = n == 0 ? 0 : static_cast<uint32_t>(rng.Uniform(n));
      uint32_t key;
      switch (probe % 4) {
        case 0:  // somewhere inside the value range
          key = static_cast<uint32_t>(rng.Uniform(v + 2));
          break;
        case 1:  // exact hit
          key = n == 0 ? 0 : a[rng.Uniform(n)];
          break;
        case 2:  // beyond every element — probe must clamp, not wrap
          key = 0xffffffffu;
          break;
        default:  // before every element in the suffix
          key = 0;
          break;
      }
      const uint32_t got = set_internal::GallopLowerBound(a.data(), n, lo, key);
      const uint32_t want = static_cast<uint32_t>(
          std::lower_bound(a.begin() + lo, a.end(), key) - a.begin());
      ASSERT_EQ(got, want) << "n=" << n << " lo=" << lo << " key=" << key;
    }
  }
}

// lo == n and empty-array edges.
TEST(GallopLowerBoundTest, BoundaryPositions) {
  const std::vector<uint32_t> a = {2, 4, 6, 8};
  EXPECT_EQ(set_internal::GallopLowerBound(a.data(), 4, 4, 1), 4u);
  EXPECT_EQ(set_internal::GallopLowerBound(a.data(), 4, 3, 9), 4u);
  EXPECT_EQ(set_internal::GallopLowerBound(a.data(), 4, 0, 0xffffffffu), 4u);
  EXPECT_EQ(set_internal::GallopLowerBound(a.data(), 0, 0, 5), 0u);
  // Max-value key sitting at the very end: the doubling probe walks past n
  // with a[hi] < key at every step — the 64-bit bound must clamp to n.
  std::vector<uint32_t> big(1000);
  for (uint32_t i = 0; i < 1000; ++i) big[i] = i * 2;
  EXPECT_EQ(
      set_internal::GallopLowerBound(big.data(), 1000, 990, 0xfffffffeu),
      1000u);
}

// ---------------------------------------------------------------------------
// Satellite (c): count-only kernels agree with the materializing ones.

TEST(IntersectCountTest, CountKernelMatchesMaterializingKernel) {
  Rng rng(0xC0047);
  for (int iter = 0; iter < 100; ++iter) {
    // Mix of comparable sizes (merge/SIMD path) and skewed sizes (gallop).
    const uint32_t na = 1 + static_cast<uint32_t>(rng.Uniform(40));
    const uint32_t nb =
        (iter % 2 == 0) ? 1 + static_cast<uint32_t>(rng.Uniform(40))
                        : 64 * na + static_cast<uint32_t>(rng.Uniform(512));
    std::vector<uint32_t> a, b;
    uint32_t v = 0;
    for (uint32_t i = 0; i < na; ++i) {
      v += 1 + static_cast<uint32_t>(rng.Uniform(16));
      a.push_back(v);
    }
    v = 0;
    for (uint32_t i = 0; i < nb; ++i) {
      v += 1 + static_cast<uint32_t>(rng.Uniform(16));
      b.push_back(v);
    }
    std::vector<uint32_t> out(std::min(na, nb) + ScratchSet::kSimdTailSlack);
    const uint32_t n_mat = set_internal::IntersectUintUint(
        a.data(), na, b.data(), nb, out.data());
    EXPECT_EQ(set_internal::IntersectUintUintCount(a.data(), na, b.data(), nb),
              n_mat);
    EXPECT_EQ(set_internal::IntersectUintUintCount(b.data(), nb, a.data(), na),
              n_mat);
  }
}

TEST(IntersectCountTest, MixedLayoutsMatchMaterializedCardinality) {
  Rng rng(0xC0048);
  const SetLayout layouts[] = {SetLayout::kUint, SetLayout::kBitset};
  for (int iter = 0; iter < 60; ++iter) {
    std::vector<uint32_t> a, b;
    uint32_t v = 0;
    const uint32_t na = 1 + static_cast<uint32_t>(rng.Uniform(200));
    for (uint32_t i = 0; i < na; ++i) {
      v += 1 + static_cast<uint32_t>(rng.Uniform(4));
      a.push_back(v);
    }
    v = 0;
    const uint32_t nb = 1 + static_cast<uint32_t>(rng.Uniform(200));
    for (uint32_t i = 0; i < nb; ++i) {
      v += 1 + static_cast<uint32_t>(rng.Uniform(4));
      b.push_back(v);
    }
    for (SetLayout la : layouts) {
      for (SetLayout lb : layouts) {
        const OwnedSet sa = OwnedSet::FromSortedWithLayout(a, la);
        const OwnedSet sb = OwnedSet::FromSortedWithLayout(b, lb);
        ScratchSet out;
        Intersect(sa.view(), sb.view(), &out);
        EXPECT_EQ(IntersectCount(sa.view(), sb.view()),
                  out.view().cardinality)
            << SetLayoutName(la) << "/" << SetLayoutName(lb);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Satellite (d): bit-identical results across thread counts.

// Bitwise comparison: double columns are compared as raw bits, so even a
// last-ulp difference from a reordered floating-point fold fails the test.
void ExpectBitIdentical(const QueryResult& x, const QueryResult& y,
                        const std::string& what) {
  ASSERT_EQ(x.num_rows, y.num_rows) << what;
  ASSERT_EQ(x.columns.size(), y.columns.size()) << what;
  for (size_t c = 0; c < x.columns.size(); ++c) {
    const ResultColumn& xc = x.columns[c];
    const ResultColumn& yc = y.columns[c];
    EXPECT_EQ(xc.name, yc.name) << what;
    EXPECT_EQ(xc.type, yc.type) << what;
    EXPECT_EQ(xc.ints, yc.ints) << what << " column " << xc.name;
    EXPECT_EQ(xc.strs, yc.strs) << what << " column " << xc.name;
    EXPECT_EQ(xc.codes, yc.codes) << what << " column " << xc.name;
    ASSERT_EQ(xc.reals.size(), yc.reals.size()) << what;
    for (size_t i = 0; i < xc.reals.size(); ++i) {
      uint64_t xb, yb;
      std::memcpy(&xb, &xc.reals[i], sizeof(xb));
      std::memcpy(&yb, &yc.reals[i], sizeof(yb));
      ASSERT_EQ(xb, yb) << what << " column " << xc.name << " row " << i
                        << " (" << xc.reals[i] << " vs " << yc.reals[i]
                        << ")";
    }
  }
}

/// The brute-force reference executor's result of `sql`, rows sorted.
QueryResult Reference(const Catalog& catalog, const std::string& sql) {
  auto parsed = ParseSelect(sql);
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
  auto bound = Bind(parsed.TakeValue(), catalog);
  EXPECT_TRUE(bound.ok()) << bound.status().ToString();
  QueryResult want = testing::ReferenceExecute(bound.value());
  want.SortRows();
  return want;
}

/// Compares an engine result with the reference's row multiset: keys and
/// counts exactly, reals equal under the total order (NaN is one value; a
/// MIN or MAX over {-0.0, +0.0} may keep either zero, depending on fold
/// order). The inputs are dyadic, so every sum is exact in any order.
/// String codes are decoded first.
void ExpectMatchesReference(QueryResult got, const QueryResult& want,
                            const std::string& what) {
  ASSERT_EQ(got.columns.size(), want.columns.size()) << what;
  for (ResultColumn& c : got.columns) {
    for (uint32_t code : c.codes) c.strs.push_back(c.dict->DecodeString(code));
    c.codes.clear();
  }
  got.SortRows();
  ASSERT_EQ(got.num_rows, want.num_rows) << what;
  ASSERT_GT(got.num_rows, 0u) << what;
  for (size_t c = 0; c < got.columns.size(); ++c) {
    const ResultColumn& x = got.columns[c];
    const ResultColumn& y = want.columns[c];
    EXPECT_EQ(x.ints, y.ints) << what << " column " << x.name;
    EXPECT_EQ(x.strs, y.strs) << what << " column " << x.name;
    ASSERT_EQ(x.reals.size(), y.reals.size()) << what << " column " << x.name;
    for (size_t i = 0; i < x.reals.size(); ++i) {
      ASSERT_EQ(TotalCompare(x.reals[i], y.reals[i]), 0)
          << what << " column " << x.name << " row " << i << " ("
          << x.reals[i] << " vs " << y.reals[i] << ")";
    }
  }
}

/// Runs each of `queries` at LH_THREADS 1, 2 and 4 on a fresh engine over
/// `catalog`: every run must match the reference, and the wider pools must
/// reproduce the one-thread result bit for bit, row order included. With
/// `key_order`, the queries are append mode with their key columns first,
/// in attribute order, so rows must already come in key order (chunk
/// order, then key order within a chunk or skew sub-range).
void ExpectReferenceAndThreadInvariance(
    Catalog& catalog, const std::vector<std::string>& queries,
    const QueryOptions& options = QueryOptions(), bool key_order = true) {
  std::vector<QueryResult> want, first;
  for (const std::string& q : queries) want.push_back(Reference(catalog, q));
  for (int threads : {1, 2, 4}) {
    ThreadPool::SetGlobalThreadsForTesting(threads);
    Engine engine(&catalog);
    for (size_t i = 0; i < queries.size(); ++i) {
      auto r = engine.Query(queries[i], options);
      ASSERT_TRUE(r.ok()) << queries[i] << ": " << r.status().ToString();
      const std::string what =
          queries[i] + " @ " + std::to_string(threads) + " threads";
      if (threads == 1) {
        if (key_order) {
          QueryResult sorted = r.value();
          sorted.SortRows();
          ExpectBitIdentical(sorted, r.value(), what + " (key order)");
        }
        first.push_back(r.value());
      } else {
        ExpectBitIdentical(first[i], r.value(), what);
      }
      ExpectMatchesReference(std::move(r).value(), want[i], what);
    }
  }
}

/// The exec.skew_splits counter of one analyzed run of `sql`.
uint64_t SkewSplits(Engine* engine, const std::string& sql,
                    const QueryOptions& options) {
  auto r = engine->QueryAnalyze(sql, options);
  EXPECT_TRUE(r.ok()) << sql << ": " << r.status().ToString();
  if (!r.ok() || r.value().profile == nullptr) return 0;
  return r.value().profile->counters.exec_skew_splits;
}

// Skewed graph: hub node 0 owns > 50% of the edges (a star into every other
// node), so its level-1 set dwarfs the skew threshold and the executor must
// split it across tasks. Every mid node gets a forward edge and the first
// nodes close cycles back to the hub so triangle queries have work.
class ThreadCountDifferentialTest : public ::testing::Test {
 protected:
  static constexpr int kHubFanout = 3000;
  static constexpr int kPairs = 2100;

  void SetUp() override {
    Rng rng(20260807);
    Table* t =
        catalog_
            .CreateTable(TableSchema(
                "edge",
                {ColumnSpec::Key("src", ValueType::kInt64, "node"),
                 ColumnSpec::Key("dst", ValueType::kInt64, "node"),
                 ColumnSpec::Annotation("w", ValueType::kDouble)}))
            .ValueOrDie();
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
    // Append-mode skew shape: root 0 of `hub` reaches kPairs level-1
    // values (past the skew threshold), each extending to one `pairs` row;
    // a few light roots reach a handful. Dyadic weights keep every sum
    // exact, so the reference executor's fold order cannot show.
    Table* hub = catalog_
                     .CreateTable(TableSchema(
                         "hub", {ColumnSpec::Key("a", ValueType::kInt64, "hr"),
                                 ColumnSpec::Key("b", ValueType::kInt64, "pn"),
                                 ColumnSpec::Key("c", ValueType::kInt64, "pn"),
                                 ColumnSpec::Annotation("w",
                                                        ValueType::kDouble)}))
                     .ValueOrDie();
    Table* pairs =
        catalog_
            .CreateTable(TableSchema(
                "pairs", {ColumnSpec::Key("a", ValueType::kInt64, "pn"),
                          ColumnSpec::Key("b", ValueType::kInt64, "pn"),
                          ColumnSpec::Key("c", ValueType::kInt64, "pl"),
                          ColumnSpec::Annotation("w", ValueType::kDouble)}))
            .ValueOrDie();
    auto dyadic = [](int i) { return Value::Real((i % 9 - 4) / 4.0); };
    for (int i = 1; i <= kPairs; ++i) {
      ASSERT_TRUE(
          hub->AppendRow({Value::Int(0), Value::Int(i), Value::Int(i),
                          dyadic(i)})
              .ok());
      ASSERT_TRUE(pairs
                      ->AppendRow({Value::Int(i), Value::Int(i),
                                   Value::Int(i % 7), dyadic(3 * i + 1)})
                      .ok());
    }
    for (int a = 1; a <= 40; ++a) {
      for (int j = 1; j <= 1 + a % 5; ++j) {
        const int b = (a * 37 + j * 11) % kPairs + 1;
        ASSERT_TRUE(hub->AppendRow({Value::Int(a), Value::Int(b),
                                    Value::Int(b), dyadic(a + j)})
                        .ok());
      }
    }
    ASSERT_TRUE(catalog_.Finalize().ok());
  }

  void TearDown() override {
    ThreadPool::SetGlobalThreadsForTesting(0);  // back to the default
  }

  Catalog catalog_;
};

TEST_F(ThreadCountDifferentialTest, ResultsBitIdenticalAcrossThreadCounts) {
  const std::vector<std::string> queries = {
      "SELECT count(*) FROM edge e1, edge e2 WHERE e1.dst = e2.src",
      "SELECT sum(e1.w * e2.w) FROM edge e1, edge e2 WHERE e1.dst = e2.src",
      "SELECT e1.src, sum(e1.w * e2.w) FROM edge e1, edge e2 "
      "WHERE e1.dst = e2.src GROUP BY e1.src",
      "SELECT e1.src, e2.dst, sum(e1.w * e2.w) FROM edge e1, edge e2 "
      "WHERE e1.dst = e2.src GROUP BY e1.src, e2.dst",
      "SELECT count(*) FROM edge e1, edge e2, edge e3 "
      "WHERE e1.dst = e2.src AND e2.dst = e3.src AND e3.dst = e1.src",
      "SELECT sum(e1.w * e2.w * e3.w) FROM edge e1, edge e2, edge e3 "
      "WHERE e1.dst = e2.src AND e2.dst = e3.src AND e3.dst = e1.src",
  };

  // Reference run at one thread, then wider pools must reproduce it bit for
  // bit: chunk and split boundaries derive from cardinality alone, so the
  // merge order of floating-point partials never moves.
  std::vector<QueryResult> reference;
  ThreadPool::SetGlobalThreadsForTesting(1);
  {
    Engine engine(&catalog_);
    for (const std::string& q : queries) {
      auto r = engine.Query(q);
      ASSERT_TRUE(r.ok()) << q << ": " << r.status().ToString();
      r.value().SortRows();
      reference.push_back(std::move(r).value());
    }
  }
  for (int threads : {2, 8}) {
    ThreadPool::SetGlobalThreadsForTesting(threads);
    Engine engine(&catalog_);  // fresh trie cache: parallel build included
    for (size_t i = 0; i < queries.size(); ++i) {
      auto r = engine.Query(queries[i]);
      ASSERT_TRUE(r.ok()) << queries[i] << ": " << r.status().ToString();
      r.value().SortRows();
      ExpectBitIdentical(reference[i], r.value(),
                         queries[i] + " @ " + std::to_string(threads) +
                             " threads");
    }
  }
}

// The hub's fan-out exceeds the skew threshold, so the heavy-root splitter
// must actually fire (it fires at every thread count — the decision is
// cardinality-only — making this assertion thread-count independent). The
// triangle shape is used because the two-relation joins here fuse their
// leaf pair into the depth-1 loop, a shape the splitter leaves alone.
TEST_F(ThreadCountDifferentialTest, SkewSplitterEngagesOnHubRoot) {
  ThreadPool::SetGlobalThreadsForTesting(4);
  Engine engine(&catalog_);
  auto r = engine.QueryAnalyze(
      "SELECT sum(e1.w * e2.w * e3.w) FROM edge e1, edge e2, edge e3 "
      "WHERE e1.dst = e2.src AND e2.dst = e3.src AND e3.dst = e1.src");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_NE(r.value().profile, nullptr);
  const obs::StatsSnapshot& c = r.value().profile->counters;
  EXPECT_GT(c.exec_skew_splits, 0u);
  EXPECT_GT(c.pool_tasks_spawned, 0u);
}

// Append-mode skew splits, on both sides of the level-1 rule: grouped by
// the root alone, the hub's level 1 is no group dimension and its split
// sub-ranges fold into one group (their partial accumulators combine in
// sub-range order); grouped by root and level 1, each sub-range closes its
// own groups and they concatenate in order. Both shapes split at every
// thread count and match the reference.
TEST_F(ThreadCountDifferentialTest, AppendModeSkewSplitsMatchReference) {
  const std::string kFrom =
      " FROM hub h, pairs p WHERE h.b = p.a AND h.c = p.b ";
  const std::vector<std::string> queries = {
      "SELECT h.a, sum(h.w * p.w), count(*), min(h.w * p.w), "
      "max(h.w * p.w), avg(h.w * p.w)" + kFrom + "GROUP BY h.a",
      "SELECT h.a, sum(h.w * p.w) / count(*)" + kFrom +
          "GROUP BY h.a HAVING count(*) > 2",
  };
  // The optimizer's order for the two-dimension shape does not split the
  // hub; the forced order (a, b, c) roots it at a, with b, a group
  // dimension, at level 1.
  const std::vector<std::string> by_level1 = {
      "SELECT h.a, h.b, sum(h.w * p.w), count(*)" + kFrom +
      "GROUP BY h.a, h.b"};
  QueryOptions hub_order;
  hub_order.force_attr_order = {"a", "b", "c"};
  ExpectReferenceAndThreadInvariance(catalog_, queries);
  ExpectReferenceAndThreadInvariance(catalog_, by_level1, hub_order);
  for (int threads : {1, 4}) {
    ThreadPool::SetGlobalThreadsForTesting(threads);
    Engine engine(&catalog_);
    for (const std::string& q : queries) {
      EXPECT_GT(SkewSplits(&engine, q, QueryOptions()), 0u)
          << q << " @ " << threads;
    }
    EXPECT_GT(SkewSplits(&engine, by_level1[0], hub_order), 0u)
        << by_level1[0] << " @ " << threads;
  }
}

// ---------------------------------------------------------------------------
// Append-mode output order: SMM / SMV results compared *unsorted*.

// A sparse matrix whose SMM has well over kParallelConcatRows output rows
// (so the materializer concatenates the chunks' rows as pool tasks) while
// its SMV stays below the threshold (concatenated on the calling thread).
class AppendModeOrderTest : public ::testing::Test {
 protected:
  static constexpr int kN = 3000;
  static constexpr int kPerRow = 8;
  static constexpr const char* kSmm =
      "SELECT m1.r, m2.c, sum(m1.v * m2.v) FROM m m1, m m2 "
      "WHERE m1.c = m2.r GROUP BY m1.r, m2.c";
  static constexpr const char* kSmv =
      "SELECT m.r, sum(m.v * x.val) FROM m, x WHERE m.c = x.i GROUP BY m.r";

  void SetUp() override {
    Rng rng(0x5AA7E5);
    Table* m = catalog_
                   .CreateTable(TableSchema(
                       "m", {ColumnSpec::Key("r", ValueType::kInt64, "idx"),
                             ColumnSpec::Key("c", ValueType::kInt64, "idx"),
                             ColumnSpec::Annotation("v", ValueType::kDouble)}))
                   .ValueOrDie();
    for (int r = 0; r < kN; ++r) {
      for (int e = 0; e < kPerRow; ++e) {
        // Magnitude-varying values: summation order shows up in the bits.
        ASSERT_TRUE(
            m->AppendRow({Value::Int(r), Value::Int(rng.Uniform(kN)),
                          Value::Real(rng.UniformDouble(-1, 1) *
                                      (1 + (r % 11) * 1e4))})
                .ok());
      }
    }
    Table* x = catalog_
                   .CreateTable(TableSchema(
                       "x", {ColumnSpec::Key("i", ValueType::kInt64, "idx"),
                             ColumnSpec::Annotation("val",
                                                    ValueType::kDouble)}))
                   .ValueOrDie();
    for (int i = 0; i < kN; ++i) {
      ASSERT_TRUE(
          x->AppendRow({Value::Int(i), Value::Real(rng.UniformDouble())})
              .ok());
    }
    ASSERT_TRUE(catalog_.Finalize().ok());
    BuildCoverageCatalog();
  }

  /// The coverage matrix's inputs, small enough for the reference executor:
  /// a sparse matrix `s` with repeated column keys, NaN and -0.0 entries, a
  /// vector `y`, and `names`, a string key vertex over s's rows. Every
  /// other value is dyadic, so sums are exact in any order.
  void BuildCoverageCatalog() {
    Rng rng(0xC0FFEE);
    Table* s = small_
                   .CreateTable(TableSchema(
                       "s", {ColumnSpec::Key("r", ValueType::kInt64, "ix"),
                             ColumnSpec::Key("c", ValueType::kInt64, "ix"),
                             ColumnSpec::Annotation("v", ValueType::kDouble)}))
                   .ValueOrDie();
    for (int r = 0; r < kSmallN; ++r) {
      for (int e = 0; e < 5; ++e) {
        const int c = (r * 7 + e * e * 3 + rng.Uniform(3)) % kSmallN;
        double v = static_cast<double>(rng.Uniform(17)) / 4.0 - 2.0;
        if ((r + e) % 23 == 0) v = std::numeric_limits<double>::quiet_NaN();
        if ((r + e) % 11 == 0) v = -0.0;
        ASSERT_TRUE(
            s->AppendRow({Value::Int(r), Value::Int(c), Value::Real(v)}).ok());
      }
    }
    Table* y = small_
                   .CreateTable(TableSchema(
                       "y", {ColumnSpec::Key("i", ValueType::kInt64, "ix"),
                             ColumnSpec::Annotation("val",
                                                    ValueType::kDouble)}))
                   .ValueOrDie();
    for (int i = 0; i < kSmallN; ++i) {
      const double v = i % 13 == 0 ? -0.0 : (i % 9) / 2.0 - 2.0;
      ASSERT_TRUE(y->AppendRow({Value::Int(i), Value::Real(v)}).ok());
    }
    Table* names =
        small_
            .CreateTable(TableSchema(
                "names", {ColumnSpec::Key("n", ValueType::kString, "nm"),
                          ColumnSpec::Key("r", ValueType::kInt64, "ix"),
                          ColumnSpec::Annotation("w", ValueType::kDouble)}))
            .ValueOrDie();
    for (int r = 0; r < kSmallN; r += 2) {
      const std::string n = "n" + std::to_string(r % 9);
      ASSERT_TRUE(names
                      ->AppendRow({Value::Str(n), Value::Int(r),
                                   Value::Real((r % 5) / 2.0)})
                      .ok());
    }
    ASSERT_TRUE(small_.Finalize().ok());
  }

  void TearDown() override { ThreadPool::SetGlobalThreadsForTesting(0); }

  /// The materialize span's detail (its path: `rows` or `groups`) of one
  /// analyzed run.
  static std::string MaterializePath(const QueryResult& r) {
    for (const obs::SpanRecord& s : r.profile->spans) {
      if (s.name == "materialize") return s.detail;
    }
    return "";
  }

  /// The materialize span's `parallel` metric of one analyzed run.
  static double ConcatInParallel(const QueryResult& r) {
    for (const obs::SpanRecord& s : r.profile->spans) {
      if (s.name != "materialize") continue;
      for (const auto& [name, value] : s.metrics) {
        if (name == "parallel") return value;
      }
    }
    return -1;
  }

  static constexpr int kSmallN = 60;

  Catalog catalog_;
  Catalog small_;
};

TEST_F(AppendModeOrderTest, UnsortedResultsBitIdenticalAcrossThreadCounts) {
  std::vector<QueryResult> reference;
  ThreadPool::SetGlobalThreadsForTesting(1);
  {
    Engine engine(&catalog_);
    for (const char* q : {kSmm, kSmv}) {
      auto r = engine.QueryAnalyze(q);
      ASSERT_TRUE(r.ok()) << q << ": " << r.status().ToString();
      reference.push_back(std::move(r).value());
    }
  }
  // The two queries sit on opposite sides of the concat threshold.
  ASSERT_GE(reference[0].num_rows, kParallelConcatRows);
  ASSERT_LT(reference[1].num_rows, kParallelConcatRows);
  EXPECT_EQ(ConcatInParallel(reference[0]), 1);
  EXPECT_EQ(ConcatInParallel(reference[1]), 0);
  // Both are append mode: the materialize span names the row path. A
  // dimension that is no key vertex takes the hash-mode path.
  EXPECT_EQ(MaterializePath(reference[0]), "rows");
  EXPECT_EQ(MaterializePath(reference[1]), "rows");
  {
    Engine engine(&catalog_);
    auto hashed = engine.QueryAnalyze(
        "SELECT x.val, count(*) FROM m, x WHERE m.c = x.i GROUP BY x.val");
    ASSERT_TRUE(hashed.ok()) << hashed.status().ToString();
    EXPECT_EQ(MaterializePath(hashed.value()), "groups");
  }
  // Append-mode output arrives in key order: row order is part of the
  // contract, so nothing is sorted before comparing.
  for (int threads : {2, 8}) {
    ThreadPool::SetGlobalThreadsForTesting(threads);
    Engine engine(&catalog_);
    int i = 0;
    for (const char* q : {kSmm, kSmv}) {
      auto r = engine.Query(q);
      ASSERT_TRUE(r.ok()) << q << ": " << r.status().ToString();
      ExpectBitIdentical(reference[i++], r.value(),
                         std::string(q) + " @ " + std::to_string(threads) +
                             " threads");
    }
  }
}

// The append-mode coverage matrix: every aggregate with HAVING and an
// output expression (a), key-only join materialization whose leaves repeat
// each key (b), a string key vertex kept encoded or decoded (d), and NaN
// and -0.0 inputs (e), on the SMM (relaxed tail) and SMV (fused leaf)
// shapes, direct and not. The skew-split shapes (c) are in
// ThreadCountDifferentialTest.AppendModeSkewSplitsMatchReference.
TEST_F(AppendModeOrderTest, CoverageMatrixMatchesReference) {
  const std::string kAggs =
      "sum(s1.v * s2.v), count(*), avg(s1.v * s2.v), min(s1.v * s2.v), "
      "max(s1.v * s2.v)";
  const std::string kSmmFrom = " FROM s s1, s s2 WHERE s1.c = s2.r ";
  const std::string kSmvAggs =
      "sum(s.v * y.val), count(*), avg(s.v * y.val), min(s.v * y.val), "
      "max(s.v * y.val)";
  const std::string kSmvFrom = " FROM s, y WHERE s.c = y.i ";
  const std::vector<std::string> queries = {
      // (a) + (e), SMM shape: non-direct, then direct.
      "SELECT s1.r, s2.c, " + kAggs + ", sum(s1.v * s2.v) / count(*)" + kSmmFrom +
          "GROUP BY s1.r, s2.c HAVING count(*) > 1",
      "SELECT s1.r, s2.c, " + kAggs + kSmmFrom + "GROUP BY s1.r, s2.c",
      "SELECT s1.r, s2.c, sum(s1.v * s2.v)" + kSmmFrom + "GROUP BY s1.r, s2.c",
      // (a) + (e), SMV shape: non-direct, then direct.
      "SELECT s.r, " + kSmvAggs + ", sum(s.v * y.val) / count(*)" + kSmvFrom +
          "GROUP BY s.r HAVING count(*) > 2",
      "SELECT s.r, " + kSmvAggs + kSmvFrom + "GROUP BY s.r",
      "SELECT s.r, sum(s.v * y.val)" + kSmvFrom + "GROUP BY s.r",
      // (b) key-only join materialization: consecutive duplicate keys.
      "SELECT s1.r FROM s s1, s s2 WHERE s1.c = s2.r",
      "SELECT s1.r, s2.c FROM s s1, s s2 WHERE s1.c = s2.r",
      // (d) a string key vertex.
      "SELECT names.n, sum(names.w * s.v), count(*) FROM names, s "
      "WHERE names.r = s.r GROUP BY names.n",
  };
  ExpectReferenceAndThreadInvariance(small_, queries);
  QueryOptions encoded;
  encoded.keep_strings_encoded = true;
  ExpectReferenceAndThreadInvariance(small_, {queries.back()}, encoded);
  Engine engine(&small_);
  auto r = engine.Query(queries.back(), encoded);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(r.value().columns[0].strs.empty());
  EXPECT_FALSE(r.value().columns[0].codes.empty());

  // (f) HAVING and output expressions beyond arithmetic: NOT, BETWEEN,
  // CASE, EXTRACT, LIKE and string comparisons on the string key vertex,
  // evaluated at group close.
  const std::vector<std::string> expressions = {
      "SELECT names.n, sum(names.w * s.v), count(*), "
      "CASE WHEN count(*) > 8 THEN sum(names.w * s.v) ELSE -1 END, "
      "EXTRACT(YEAR FROM count(*) * 400) FROM names, s "
      "WHERE names.r = s.r GROUP BY names.n HAVING names.n >= 'n2' AND "
      "NOT names.n LIKE '%5' AND names.n <> 'n7' AND "
      "count(*) BETWEEN 2 AND 40",
      "SELECT s.r, CASE WHEN sum(s.v * y.val) > 0 THEN 1 "
      "WHEN sum(s.v * y.val) < 0 THEN -1 ELSE 0 END, -sum(s.v * y.val)" +
          kSmvFrom + "GROUP BY s.r HAVING s.r BETWEEN 5 AND 50 AND "
          "NOT count(*) < 2",
      "SELECT s1.r, s2.c, sum(s1.v * s2.v)" + kSmmFrom +
          "GROUP BY s1.r, s2.c HAVING NOT (s1.r BETWEEN 10 AND 20) AND "
          "CASE WHEN s2.c > s1.r THEN 1 ELSE 0 END = 1",
      "SELECT s.r, avg(s.v * y.val) * 4" + kSmvFrom +
          "GROUP BY s.r HAVING avg(s.v * y.val) > -0.5",
  };
  ExpectReferenceAndThreadInvariance(small_, expressions);
  auto analyzed = engine.QueryAnalyze(expressions[0]);
  ASSERT_TRUE(analyzed.ok()) << analyzed.status().ToString();
  EXPECT_EQ(MaterializePath(analyzed.value()), "rows");
}

// The coverage matrix's expression shapes (f) in hash mode: a dimension
// that is no key vertex (an annotation) sends the groups through the
// group table and its decode, and a one-table query through the scan
// path, where a string key column is a string-code dimension.
TEST_F(AppendModeOrderTest, HashModeExpressionsMatchReference) {
  const std::vector<std::string> queries = {
      "SELECT names.n, names.w, sum(s.v), count(*), "
      "CASE WHEN count(*) > 4 THEN 1 ELSE 0 END FROM names, s "
      "WHERE names.r = s.r GROUP BY names.n, names.w "
      "HAVING names.n >= 'n2' AND NOT names.n LIKE '%5' AND "
      "names.n <> 'n7' AND names.w BETWEEN 0 AND 1.5",
      "SELECT s.r, y.val, sum(s.v), CASE WHEN count(*) > 1 THEN 1 ELSE 0 END, "
      "EXTRACT(YEAR FROM count(*) * 400) FROM s, y WHERE s.c = y.i "
      "GROUP BY s.r, y.val HAVING s.r BETWEEN 5 AND 50 AND NOT y.val < -1",
      "SELECT names.n, count(*), sum(names.w), "
      "CASE WHEN sum(names.w) > 2 THEN 1 ELSE 0 END FROM names "
      "GROUP BY names.n HAVING names.n LIKE 'n%' AND names.n < 'n6' AND "
      "NOT names.n = 'n1'",
  };
  ExpectReferenceAndThreadInvariance(small_, queries, QueryOptions(),
                                     /*key_order=*/false);
  Engine engine(&small_);
  for (size_t i = 0; i < 2; ++i) {
    auto r = engine.QueryAnalyze(queries[i]);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(MaterializePath(r.value()), "groups") << queries[i];
  }
}

// The partitioned trie build (engaged above ~16k rows regardless of pool
// size) must splice fragment sets with correct global base ranks —
// fragment-local ranks are already cumulative, so each set shifts by the
// prior fragments' element total, not a per-set accumulator. A wrong rank
// silently reads the wrong annotation slot, so integer-valued weights make
// any slip an exact mismatch.
TEST(PartitionedTrieBuildTest, AnnotationRanksSurviveFragmentSplice) {
  constexpr int kRows = 40000;
  constexpr int kRoots = 5003;
  Catalog catalog;
  Table* t =
      catalog
          .CreateTable(TableSchema(
              "edge", {ColumnSpec::Key("src", ValueType::kInt64, "node"),
                       ColumnSpec::Key("dst", ValueType::kInt64, "node"),
                       ColumnSpec::Annotation("w", ValueType::kDouble)}))
          .ValueOrDie();
  std::vector<double> per_root(kRoots, 0.0);
  double total = 0.0;
  for (int i = 0; i < kRows; ++i) {
    const int src = i % kRoots;
    const double w = (i % 11) + 1;
    ASSERT_TRUE(t->AppendRow({Value::Int(src), Value::Int(i / kRoots),
                              Value::Real(w)})
                    .ok());
    per_root[src] += w;
    total += w;
  }
  ASSERT_TRUE(catalog.Finalize().ok());
  Engine engine(&catalog);

  auto sum = engine.Query("SELECT sum(w) FROM edge");
  ASSERT_TRUE(sum.ok()) << sum.status().ToString();
  ASSERT_EQ(sum.value().num_rows, 1u);
  EXPECT_EQ(sum.value().GetValue(0, 0).AsReal(), total);

  auto grouped =
      engine.Query("SELECT src, sum(w) FROM edge GROUP BY src");
  ASSERT_TRUE(grouped.ok()) << grouped.status().ToString();
  ASSERT_EQ(grouped.value().num_rows, static_cast<size_t>(kRoots));
  for (size_t row = 0; row < grouped.value().num_rows; ++row) {
    const int src = static_cast<int>(grouped.value().GetValue(row, 0).AsInt());
    ASSERT_GE(src, 0);
    ASSERT_LT(src, kRoots);
    EXPECT_EQ(grouped.value().GetValue(row, 1).AsReal(), per_root[src])
        << "src=" << src;
  }

  // The join path resolves annotation slots through set base ranks
  // (Descend: rank = base_rank(set) + in-set rank), unlike the single-table
  // scan above — this is the access pattern a bad splice corrupts.
  std::vector<double> sum_by_dst(kRoots, 0.0), sum_by_src(kRoots, 0.0);
  for (int i = 0; i < kRows; ++i) {
    const double w = (i % 11) + 1;
    sum_by_src[i % kRoots] += w;
    if (i / kRoots < kRoots) sum_by_dst[i / kRoots] += w;
  }
  double join_total = 0.0;
  for (int v = 0; v < kRoots; ++v) join_total += sum_by_dst[v] * sum_by_src[v];
  auto join = engine.Query(
      "SELECT sum(e1.w * e2.w) FROM edge e1, edge e2 WHERE e1.dst = e2.src");
  ASSERT_TRUE(join.ok()) << join.status().ToString();
  ASSERT_EQ(join.value().num_rows, 1u);
  EXPECT_EQ(join.value().GetValue(0, 0).AsReal(), join_total);

  // Retaining a non-join attribute defeats attribute elimination, so e1's
  // leaf annotation is resolved per element through base_rank instead of a
  // first_leaf range fold — the lookup that actually dereferences the
  // spliced ranks.
  std::vector<double> per_src_join(kRoots, 0.0);
  for (int i = 0; i < kRows; ++i) {
    per_src_join[i % kRoots] +=
        ((i % 11) + 1) * (i / kRoots < kRoots ? sum_by_src[i / kRoots] : 0.0);
  }
  auto grouped_join = engine.Query(
      "SELECT e1.src, sum(e1.w * e2.w) FROM edge e1, edge e2 "
      "WHERE e1.dst = e2.src GROUP BY e1.src");
  ASSERT_TRUE(grouped_join.ok()) << grouped_join.status().ToString();
  ASSERT_EQ(grouped_join.value().num_rows, static_cast<size_t>(kRoots));
  for (size_t row = 0; row < grouped_join.value().num_rows; ++row) {
    const int src =
        static_cast<int>(grouped_join.value().GetValue(row, 0).AsInt());
    ASSERT_GE(src, 0);
    ASSERT_LT(src, kRoots);
    EXPECT_EQ(grouped_join.value().GetValue(row, 1).AsReal(),
              per_src_join[src])
        << "src=" << src;
  }
}

// ---------------------------------------------------------------------------
// Nested-parallelism stress: many ParallelChunks workers concurrently fan
// out Submit/Wait groups. Exercises task-queue priority, the help-while-wait
// path, and steal accounting under TSan.

TEST(NestedParallelismStressTest, SubmitInsideParallelChunks) {
  ThreadPool pool(8);
  std::atomic<int64_t> total{0};
  constexpr int64_t kOuter = 64;
  constexpr int kInnerTasks = 16;
  pool.ParallelChunks(0, kOuter, 1, [&](int, int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) {
      ThreadPool::TaskGroup group(&pool);
      for (int t = 0; t < kInnerTasks; ++t) {
        pool.Submit(&group, [&total] {
          total.fetch_add(1, std::memory_order_relaxed);
        });
      }
      group.Wait();
    }
  });
  EXPECT_EQ(total.load(), kOuter * kInnerTasks);
}

TEST(NestedParallelismStressTest, TasksCanSubmitSubTasks) {
  ThreadPool pool(4);
  std::atomic<int64_t> total{0};
  ThreadPool::TaskGroup outer(&pool);
  for (int t = 0; t < 8; ++t) {
    pool.Submit(&outer, [&] {
      ThreadPool::TaskGroup inner(&pool);
      for (int s = 0; s < 8; ++s) {
        pool.Submit(&inner, [&total] {
          total.fetch_add(1, std::memory_order_relaxed);
        });
      }
      inner.Wait();
    });
  }
  outer.Wait();
  EXPECT_EQ(total.load(), 64);
}

// A ParallelChunks call made from inside a task must run inline (nested
// region) rather than deadlocking on the single job slot.
TEST(NestedParallelismStressTest, ParallelChunksInsideTaskRunsInline) {
  ThreadPool pool(4);
  std::atomic<int64_t> total{0};
  ThreadPool::TaskGroup group(&pool);
  for (int t = 0; t < 4; ++t) {
    pool.Submit(&group, [&] {
      pool.ParallelChunks(0, 100, 10, [&](int, int64_t lo, int64_t hi) {
        total.fetch_add(hi - lo, std::memory_order_relaxed);
      });
    });
  }
  group.Wait();
  EXPECT_EQ(total.load(), 400);
}

// Every TPC-H query at SF 0.05 on fresh engines at LH_THREADS 1, 2 and 4:
// results bit-identical, row order included. At this scale the filters,
// the aggregate-argument computes, the trie builds' order scans and level
// splices, and q8's semijoin each span more than one chunk.
TEST(TpchThreadDifferentialTest, EveryQueryBitIdenticalAcrossThreadCounts) {
  Catalog catalog;
  ASSERT_TRUE(TpchGenerator(/*scale_factor=*/0.05).Populate(&catalog).ok());
  ASSERT_TRUE(catalog.Finalize().ok());
  const std::vector<std::string> queries = {"q1", "q3", "q5",  "q6", "q8",
                                            "q9", "q10", "q12", "q14"};
  std::vector<QueryResult> first;
  for (int threads : {1, 2, 4}) {
    ThreadPool::SetGlobalThreadsForTesting(threads);
    Engine engine(&catalog);  // cold trie cache: every build runs
    for (size_t i = 0; i < queries.size(); ++i) {
      auto r = engine.Query(TpchQuery(queries[i].c_str()));
      ASSERT_TRUE(r.ok()) << queries[i] << ": " << r.status().ToString();
      if (threads == 1) {
        first.push_back(std::move(r).value());
      } else {
        ExpectBitIdentical(first[i], r.value(),
                           queries[i] + " @ " + std::to_string(threads) +
                               " threads");
      }
    }
  }
  // q8's semijoin root set is larger than one chunk, so it ran in parallel.
  Engine engine(&catalog);
  auto r = engine.QueryAnalyze(TpchQuery("q8"));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  double roots = 0;
  for (const obs::SpanRecord& s : r.value().profile->spans) {
    if (s.name != "semijoin") continue;
    for (const auto& [name, value] : s.metrics) {
      if (name == "roots") roots = std::max(roots, value);
    }
  }
  EXPECT_GT(roots, 2 * 1024);
  ThreadPool::SetGlobalThreadsForTesting(0);
}

// Region runners are not Submit tasks. A scan (TPC-H Q6) and a triangle
// with no heavy root run entirely through ParallelChunks regions, so they
// spawn and steal no tasks; pool.chunks counts exactly the regions'
// cardinality-cut chunks (trie builds plus the chunk loop).
TEST(PoolCounterTest, RegionRunnersAreNotCountedAsTasks) {
  Catalog catalog;
  ASSERT_TRUE(TpchGenerator(/*scale_factor=*/0.01).Populate(&catalog).ok());
  Table* t =
      catalog
          .CreateTable(TableSchema(
              "edge", {ColumnSpec::Key("src", ValueType::kInt64, "node"),
                       ColumnSpec::Key("dst", ValueType::kInt64, "node")}))
          .ValueOrDie();
  Rng rng(0xC0C0);
  for (int i = 0; i < 4000; ++i) {
    const int a = static_cast<int>(rng.Uniform(400));
    const int b = static_cast<int>(rng.Uniform(400));
    ASSERT_TRUE(t->AppendRow({Value::Int(a), Value::Int(b)}).ok());
  }
  ASSERT_TRUE(catalog.Finalize().ok());

  struct Case {
    std::string sql;
    uint64_t chunks;
  };
  const std::vector<Case> cases = {
      {TpchQuery("q6"), 30},
      // Two unsorted edge tries, each one chunk per region: the row copy,
      // the order scan, the radix sort's passes, the second scan, level 0,
      // the annotation folds; then the root chunk loop.
      {"SELECT count(*) FROM edge e1, edge e2, edge e3 "
       "WHERE e1.dst = e2.src AND e2.dst = e3.src AND e3.dst = e1.src",
       92},
  };
  ThreadPool::SetGlobalThreadsForTesting(4);
  {
    Engine engine(&catalog);  // cold trie cache: the builds are counted
    for (const Case& c : cases) {
      auto r = engine.QueryAnalyze(c.sql);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      const obs::StatsSnapshot& s = r.value().profile->counters;
      EXPECT_EQ(s.pool_tasks_spawned, 0u) << c.sql;
      EXPECT_EQ(s.pool_task_steals, 0u) << c.sql;
      EXPECT_EQ(s.exec_skew_splits, 0u) << c.sql;
      EXPECT_EQ(s.thread_pool_chunks, c.chunks) << c.sql;
    }
  }
  ThreadPool::SetGlobalThreadsForTesting(0);
}

}  // namespace
}  // namespace levelheaded
