#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/cancel.h"
#include "core/group_accum.h"
#include "core/plan.h"
#include "obs/trace.h"
#include "sql/binder.h"
#include "sql/parser.h"

namespace levelheaded {
namespace {

std::vector<AggExec> MakeAggs(std::initializer_list<AggFunc> funcs) {
  std::vector<AggExec> aggs;
  for (AggFunc f : funcs) {
    AggExec a;
    a.func = f;
    aggs.push_back(std::move(a));
  }
  return aggs;
}

TEST(GroupAccumTest, HashedGrouping) {
  auto aggs = MakeAggs({AggFunc::kSum, AggFunc::kCount});
  GroupAccum g(1, &aggs);
  const double main1[] = {2.5, 1.0};
  const double aux1[] = {0.0, 0.0};
  uint64_t k1 = 7, k2 = 9;
  g.Apply(g.FindOrCreate(&k1), main1, aux1);
  g.Apply(g.FindOrCreate(&k2), main1, aux1);
  g.Apply(g.FindOrCreate(&k1), main1, aux1);
  ASSERT_EQ(g.num_groups(), 2u);
  // Group order is insertion order.
  EXPECT_EQ(g.key(0)[0], 7u);
  EXPECT_DOUBLE_EQ(g.Finalize(0, 0), 5.0);
  EXPECT_DOUBLE_EQ(g.Finalize(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(g.Finalize(1, 0), 2.5);
}

TEST(GroupAccumTest, MinMaxInitialization) {
  auto aggs = MakeAggs({AggFunc::kMin, AggFunc::kMax});
  GroupAccum g(1, &aggs);
  uint64_t k = 1;
  const double m1[] = {5.0, 5.0};
  const double m2[] = {-2.0, -2.0};
  const double aux[] = {0.0, 0.0};
  g.Apply(g.FindOrCreate(&k), m1, aux);
  g.Apply(g.FindOrCreate(&k), m2, aux);
  EXPECT_DOUBLE_EQ(g.Finalize(0, 0), -2.0);
  EXPECT_DOUBLE_EQ(g.Finalize(0, 1), 5.0);
}

TEST(GroupAccumTest, AvgDividesByAux) {
  auto aggs = MakeAggs({AggFunc::kAvg});
  GroupAccum g(0, &aggs);
  const double main1[] = {10.0};
  const double aux1[] = {1.0};
  const double main2[] = {20.0};
  const double aux2[] = {1.0};
  g.Apply(g.ScalarGroup(), main1, aux1);
  g.Apply(g.ScalarGroup(), main2, aux2);
  EXPECT_DOUBLE_EQ(g.Finalize(0, 0), 15.0);
}

TEST(GroupAccumTest, AppendModeDetectsRepeats) {
  auto aggs = MakeAggs({AggFunc::kSum});
  GroupAccum g(2, &aggs);
  const double main[] = {1.0};
  const double aux[] = {0.0};
  uint64_t k1[] = {1, 2};
  uint64_t k2[] = {1, 3};
  g.Apply(g.AppendOrLast(k1), main, aux);
  g.Apply(g.AppendOrLast(k1), main, aux);
  g.Apply(g.AppendOrLast(k2), main, aux);
  ASSERT_EQ(g.num_groups(), 2u);
  EXPECT_DOUBLE_EQ(g.Finalize(0, 0), 2.0);
  EXPECT_DOUBLE_EQ(g.Finalize(1, 0), 1.0);
}

TEST(GroupAccumTest, MergeCombinesAllFuncs) {
  auto aggs =
      MakeAggs({AggFunc::kSum, AggFunc::kMin, AggFunc::kMax, AggFunc::kAvg});
  GroupAccum a(1, &aggs), b(1, &aggs);
  uint64_t k = 42;
  const double main1[] = {1.0, 3.0, 3.0, 4.0};
  const double aux1[] = {0.0, 0.0, 0.0, 1.0};
  const double main2[] = {2.0, -1.0, 7.0, 8.0};
  const double aux2[] = {0.0, 0.0, 0.0, 1.0};
  a.Apply(a.FindOrCreate(&k), main1, aux1);
  b.Apply(b.FindOrCreate(&k), main2, aux2);
  a.MergeFrom(b);
  ASSERT_EQ(a.num_groups(), 1u);
  EXPECT_DOUBLE_EQ(a.Finalize(0, 0), 3.0);   // sum
  EXPECT_DOUBLE_EQ(a.Finalize(0, 1), -1.0);  // min
  EXPECT_DOUBLE_EQ(a.Finalize(0, 2), 7.0);   // max
  EXPECT_DOUBLE_EQ(a.Finalize(0, 3), 6.0);   // avg
}

TEST(GroupAccumTest, ConcatMergesBoundaryGroup) {
  auto aggs = MakeAggs({AggFunc::kSum});
  GroupAccum a(1, &aggs), b(1, &aggs);
  const double main[] = {1.0};
  const double aux[] = {0.0};
  uint64_t k1 = 1, k2 = 2, k3 = 3;
  a.Apply(a.AppendOrLast(&k1), main, aux);
  a.Apply(a.AppendOrLast(&k2), main, aux);
  // b starts with the same group a ended with.
  b.Apply(b.AppendOrLast(&k2), main, aux);
  b.Apply(b.AppendOrLast(&k3), main, aux);
  a.ConcatFrom(b);
  ASSERT_EQ(a.num_groups(), 3u);
  EXPECT_DOUBLE_EQ(a.Finalize(1, 0), 2.0);  // k2 merged across the boundary
  EXPECT_DOUBLE_EQ(a.Finalize(2, 0), 1.0);
}

TEST(GroupAccumTest, ScalarGroupSingleton) {
  auto aggs = MakeAggs({AggFunc::kCount});
  GroupAccum g(0, &aggs);
  EXPECT_EQ(g.num_groups(), 0u);
  const double main[] = {1.0};
  const double aux[] = {0.0};
  g.Apply(g.ScalarGroup(), main, aux);
  g.Apply(g.ScalarGroup(), main, aux);
  EXPECT_EQ(g.num_groups(), 1u);
  EXPECT_DOUBLE_EQ(g.Finalize(0, 0), 2.0);
}

TEST(BitcastTest, RoundTrip) {
  for (double d : {0.0, -1.5, 3.14159, 1e300, -1e-300}) {
    EXPECT_EQ(UnbitcastDouble(BitcastDouble(d)), d);
  }
}

TEST(GroupAccumTest, AppendRunMatchesPerValueAppend) {
  auto aggs = MakeAggs({AggFunc::kSum, AggFunc::kMin, AggFunc::kMax,
                        AggFunc::kAvg});
  const size_t stride = 2 * aggs.size();
  // Accumulator rows indexed by last-vertex value (the relaxed scratch).
  std::vector<double> rows(10 * stride);
  for (size_t i = 0; i < rows.size(); ++i) {
    rows[i] = (i % 3 == 0 ? -0.0 : 1.0 / static_cast<double>(i + 1));
  }
  // Row m as Apply's deltas: main[i] = row[2i], aux[i] = row[2i + 1].
  auto apply_row = [&](GroupAccum* g, const uint64_t* key, uint32_t m) {
    std::vector<double> main(aggs.size()), aux(aggs.size());
    for (size_t i = 0; i < aggs.size(); ++i) {
      main[i] = rows[m * stride + 2 * i];
      aux[i] = rows[m * stride + 2 * i + 1];
    }
    g->Apply(g->AppendOrLast(key), main.data(), aux.data());
  };
  const std::vector<uint32_t> run = {2, 5, 6, 9};
  GroupAccum bulk(2, &aggs), single(2, &aggs);
  // Both tables already end in group {7, 2}: the run's first value lands
  // on it, the rest append.
  const uint64_t seed_key[] = {7, 2};
  apply_row(&bulk, seed_key, 4);
  apply_row(&single, seed_key, 4);

  uint64_t key[] = {7, 0};
  bulk.AppendRun(key, {1}, run.data(), run.size(), rows.data());
  for (uint32_t m : run) {
    const uint64_t k[] = {7, m};
    apply_row(&single, k, m);
  }
  ASSERT_EQ(bulk.num_groups(), 4u);
  ASSERT_EQ(single.num_groups(), bulk.num_groups());
  for (size_t g = 0; g < bulk.num_groups(); ++g) {
    EXPECT_EQ(std::memcmp(bulk.key(g), single.key(g), 2 * sizeof(uint64_t)),
              0);
    EXPECT_EQ(std::memcmp(bulk.accs(g), single.accs(g),
                          stride * sizeof(double)),
              0)
        << "group " << g;
  }
}

// ---------------------------------------------------------------------------
// MaterializeGroups over a list of append-mode partials.

/// A two-relation join whose GROUP BY dimensions are both key vertices —
/// a string one (a.s) and an integer one (b.j) — so the partials built by
/// hand below are shaped exactly like the executor's append-mode chunks.
class MaterializePartialsTest : public ::testing::Test {
 protected:
  static constexpr int kStrings = 5;
  static constexpr int kInts = 20000;

  void SetUp() override {
    Table* a = catalog_
                   .CreateTable(TableSchema(
                       "a", {ColumnSpec::Key("s", ValueType::kString, "sdom"),
                             ColumnSpec::Key("x", ValueType::kInt64, "xdom"),
                             ColumnSpec::Annotation("v", ValueType::kDouble)}))
                   .ValueOrDie();
    for (const char* s : {"ant", "bee", "cat", "dog", "eel"}) {
      ASSERT_TRUE(
          a->AppendRow({Value::Str(s), Value::Int(1), Value::Real(1)}).ok());
    }
    Table* b = catalog_
                   .CreateTable(TableSchema(
                       "b", {ColumnSpec::Key("x", ValueType::kInt64, "xdom"),
                             ColumnSpec::Key("j", ValueType::kInt64, "jdom"),
                             ColumnSpec::Annotation("w", ValueType::kDouble)}))
                   .ValueOrDie();
    for (int j = 0; j < kInts; ++j) {
      ASSERT_TRUE(
          b->AppendRow({Value::Int(1), Value::Int(10 * j), Value::Real(1)})
              .ok());
    }
    ASSERT_TRUE(catalog_.Finalize().ok());
  }

  /// Plans `having` (may be empty) over the join and classifies its dims.
  void Plan(const std::string& having, bool keep_strings_encoded = false) {
    std::string sql =
        "SELECT a.s, b.j, sum(a.v * b.w), b.j + 1 FROM a, b "
        "WHERE a.x = b.x GROUP BY a.s, b.j";
    if (!having.empty()) sql += " HAVING " + having;
    auto parsed = ParseSelect(sql);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    auto bound = Bind(parsed.TakeValue(), catalog_);
    ASSERT_TRUE(bound.ok()) << bound.status().ToString();
    QueryOptions options;
    options.keep_strings_encoded = keep_strings_encoded;
    auto plan = BuildPlan(bound.TakeValue(), catalog_, options);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    plan_ = std::make_unique<PhysicalPlan>(plan.TakeValue());
    dims_.clear();
    for (const GroupDimExec& d : plan_->dims) {
      dims_.push_back(ClassifyDim(d, *plan_, catalog_, /*join_path=*/true));
      ASSERT_EQ(dims_.back().kind, DimKind::kKeyVertex);
    }
  }

  struct Row {
    uint64_t s, j;  // dictionary codes
    double v;
  };

  /// One partial per row list, each row appended the way a chunk run does.
  std::vector<std::unique_ptr<GroupAccum>> MakePartials(
      const std::vector<std::vector<Row>>& chunks) {
    std::vector<std::unique_ptr<GroupAccum>> out;
    const double aux[] = {0.0};
    for (const auto& rows : chunks) {
      out.push_back(std::make_unique<GroupAccum>(2, &plan_->aggs));
      for (const Row& r : rows) {
        const uint64_t key[] = {r.s, r.j};
        const double main[] = {r.v};
        out.back()->Apply(out.back()->AppendOrLast(key), main, aux);
      }
    }
    return out;
  }

  /// Materializes `chunks` as a partial list and, as the reference, as one
  /// ConcatFrom-folded table; returns both.
  std::pair<QueryResult, QueryResult> Both(
      const std::vector<std::vector<Row>>& chunks,
      double* parallel = nullptr) {
    auto parts = MakePartials(chunks);
    std::vector<GroupAccum*> list;
    for (const auto& p : parts) list.push_back(p.get());
    obs::Trace trace;
    obs::TraceSpan span(&trace, "materialize");
    auto got = MaterializeGroups(*plan_, list, dims_, nullptr, &span);
    span.End();
    EXPECT_TRUE(got.ok()) << got.status().ToString();
    if (parallel != nullptr) {
      const std::vector<obs::SpanRecord> spans = trace.Spans();
      for (const auto& [name, value] : spans[0].metrics) {
        if (name == "parallel") *parallel = value;
      }
    }
    auto fresh = MakePartials(chunks);
    GroupAccum whole(2, &plan_->aggs);
    for (const auto& p : fresh) whole.ConcatFrom(*p);
    auto want = MaterializeGroups(*plan_, {&whole}, dims_);
    EXPECT_TRUE(want.ok()) << want.status().ToString();
    return {got.TakeValue(), want.TakeValue()};
  }

  static void ExpectBitIdentical(const QueryResult& x, const QueryResult& y) {
    ASSERT_EQ(x.num_rows, y.num_rows);
    ASSERT_EQ(x.columns.size(), y.columns.size());
    for (size_t c = 0; c < x.columns.size(); ++c) {
      const ResultColumn& xc = x.columns[c];
      const ResultColumn& yc = y.columns[c];
      EXPECT_EQ(xc.type, yc.type);
      EXPECT_EQ(xc.dict, yc.dict);
      EXPECT_EQ(xc.ints, yc.ints) << xc.name;
      EXPECT_EQ(xc.strs, yc.strs) << xc.name;
      EXPECT_EQ(xc.codes, yc.codes) << xc.name;
      ASSERT_EQ(xc.reals.size(), yc.reals.size());
      for (size_t i = 0; i < xc.reals.size(); ++i) {
        ASSERT_EQ(BitcastDouble(xc.reals[i]), BitcastDouble(yc.reals[i]))
            << xc.name << " row " << i;
      }
    }
  }

  Catalog catalog_;
  std::unique_ptr<PhysicalPlan> plan_;
  std::vector<DimInfo> dims_;
};

TEST_F(MaterializePartialsTest, MergesEqualKeysAcrossChunkBoundary) {
  Plan("");
  auto [got, want] = Both({{{0, 0, 1.0}, {0, 1, 2.0}},
                           {{0, 1, 0.5}, {1, 0, 3.0}}});
  ExpectBitIdentical(got, want);
  ASSERT_EQ(got.num_rows, 3u);
  EXPECT_EQ(got.columns[0].strs,
            (std::vector<std::string>{"ant", "ant", "bee"}));
  EXPECT_EQ(got.columns[1].ints, (std::vector<int64_t>{0, 10, 0}));
  EXPECT_EQ(got.columns[2].reals, (std::vector<double>{1.0, 2.5, 3.0}));
  EXPECT_EQ(got.columns[3].reals, (std::vector<double>{1.0, 11.0, 1.0}));
}

TEST_F(MaterializePartialsTest, BoundaryChainsThroughEmptyAndOneGroupChunks) {
  Plan("");
  // Group (0, 1) spans four chunks with an empty chunk in between; the
  // magnitudes make any other combine order show up in the bits.
  auto [got, want] = Both({{{0, 0, 1.0}, {0, 1, 1e16}},
                           {},
                           {{0, 1, 1.0}},
                           {},
                           {{0, 1, -1e16}, {2, 2, 4.0}},
                           {}});
  ExpectBitIdentical(got, want);
  ASSERT_EQ(got.num_rows, 3u);
  EXPECT_EQ(got.columns[2].reals,
            (std::vector<double>{1.0, (1e16 + 1.0) + -1e16, 4.0}));
}

TEST_F(MaterializePartialsTest, HavingDropsRowsOnBothSidesOfBoundary) {
  Plan("sum(a.v * b.w) > 1.5");
  // (0, 1) survives only as the boundary combine (1 + 1); (0, 0) before
  // the boundary and (1, 0) after it are dropped.
  auto [got, want] = Both({{{0, 0, 1.0}, {0, 1, 1.0}},
                           {{0, 1, 1.0}, {1, 0, 1.0}, {1, 1, 5.0}}});
  ExpectBitIdentical(got, want);
  ASSERT_EQ(got.num_rows, 2u);
  EXPECT_EQ(got.columns[1].ints, (std::vector<int64_t>{10, 10}));
  EXPECT_EQ(got.columns[2].reals, (std::vector<double>{2.0, 5.0}));
}

TEST_F(MaterializePartialsTest, StringKeyVertexDecodesOrStaysEncoded) {
  const std::vector<std::vector<Row>> chunks = {{{4, 3, 1.0}},
                                                {{4, 3, 2.0}, {3, 0, 1.0}}};
  Plan("");
  auto [text, text_ref] = Both(chunks);
  ExpectBitIdentical(text, text_ref);
  EXPECT_EQ(text.columns[0].type, ValueType::kString);
  EXPECT_EQ(text.columns[0].strs, (std::vector<std::string>{"eel", "dog"}));
  EXPECT_TRUE(text.columns[0].codes.empty());

  Plan("", /*keep_strings_encoded=*/true);
  auto [codes, codes_ref] = Both(chunks);
  ExpectBitIdentical(codes, codes_ref);
  EXPECT_EQ(codes.columns[0].type, ValueType::kString);
  EXPECT_TRUE(codes.columns[0].strs.empty());
  EXPECT_EQ(codes.columns[0].codes, (std::vector<uint32_t>{4, 3}));
  EXPECT_EQ(codes.columns[0].dict, dims_[0].dict);
}

/// kStrings x kInts groups cut into chunks, every other boundary splitting
/// a group over two chunks: the decode runs as tasks on the global pool
/// and must match the serial reference bit for bit.
TEST_F(MaterializePartialsTest, PooledDecodeMatchesSerialDecode) {
  ASSERT_GE(static_cast<size_t>(kStrings) * kInts, kParallelDecodeRows);
  for (const char* having : {"", "sum(a.v * b.w) > 0.125"}) {
    Plan(having);
    std::vector<std::vector<Row>> chunks(9);
    size_t i = 0;
    for (uint64_t s = 0; s < kStrings; ++s) {
      for (uint64_t j = 0; j < kInts; ++j, ++i) {
        const double v = static_cast<double>(i % 1000) / 999.0;
        chunks[i * chunks.size() / (kStrings * kInts)].push_back({s, j, v});
      }
    }
    // A split group continues at the head of the next chunk, as when a
    // chunk boundary falls inside one group's arrival.
    for (size_t c = 0; c + 1 < chunks.size(); c += 2) {
      Row split = chunks[c].back();
      split.v = 0.5;
      chunks[c + 1].insert(chunks[c + 1].begin(), split);
    }
    double parallel = -1;
    auto [got, want] = Both(chunks, &parallel);
    ExpectBitIdentical(got, want);
    EXPECT_EQ(parallel, 1) << having;
    EXPECT_GT(got.num_rows, 0u);
  }
}

TEST_F(MaterializePartialsTest, SmallResultDecodesOnCallingThread) {
  Plan("");
  double parallel = -1;
  auto [got, want] = Both({{{0, 0, 1.0}}, {{0, 1, 1.0}}}, &parallel);
  ExpectBitIdentical(got, want);
  EXPECT_EQ(parallel, 0);
}

TEST_F(MaterializePartialsTest, RowBoundCountsHavingSurvivors) {
  Plan("sum(a.v * b.w) > 1.5");
  auto parts = MakePartials({{{0, 0, 1.0}, {0, 1, 2.0}},
                             {{0, 2, 3.0}, {1, 0, 1.0}}});
  std::vector<GroupAccum*> list;
  for (const auto& p : parts) list.push_back(p.get());
  // Four groups, two survive HAVING: the bound applies to the survivors.
  QueryGuard guard;
  guard.max_result_rows = 1;
  auto over = MaterializeGroups(*plan_, list, dims_, &guard);
  ASSERT_FALSE(over.ok());
  EXPECT_EQ(over.status().code(), StatusCode::kResourceExhausted);
  guard.max_result_rows = 2;
  auto fits = MaterializeGroups(*plan_, list, dims_, &guard);
  ASSERT_TRUE(fits.ok()) << fits.status().ToString();
  EXPECT_EQ(fits.value().num_rows, 2u);
}


}  // namespace
}  // namespace levelheaded
