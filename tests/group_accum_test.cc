#include <cmath>
#include <cstring>
#include <limits>
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

// ---------------------------------------------------------------------------
// Append mode: RowChunk result rows and ConcatRows.

/// A two-relation join whose GROUP BY dimensions are both key vertices —
/// a string one (a.s) and an integer one (b.j) — so the chunks built by
/// hand below are shaped exactly like the executor's append-mode chunks.
class RowChunkTest : public ::testing::Test {
 protected:
  static constexpr int kStrings = 5;
  static constexpr int kInts = 20000;
  static constexpr char kExprSelect[] =
      "SELECT a.s, b.j, sum(a.v * b.w), b.j + 1";

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

  /// Plans `select` over the join with `having` (may be empty), classifies
  /// its dims as the executor does (a.s at attribute position 0, b.j at 2)
  /// and resolves the row layout.
  void Plan(const std::string& select, const std::string& having,
            bool keep_strings_encoded = false) {
    std::string sql =
        select + " FROM a, b WHERE a.x = b.x GROUP BY a.s, b.j";
    if (!having.empty()) sql += " HAVING " + having;
    auto parsed = ParseSelect(sql);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    auto bound = Bind(parsed.TakeValue(), catalog_);
    ASSERT_TRUE(bound.ok()) << bound.status().ToString();
    QueryOptions options;
    options.keep_strings_encoded = keep_strings_encoded;
    auto plan = BuildPlan(bound.TakeValue(), catalog_, options);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    layout_.reset();
    plan_ = std::make_unique<PhysicalPlan>(plan.TakeValue());
    dims_.clear();
    for (const GroupDimExec& d : plan_->dims) {
      dims_.push_back(ClassifyDim(d, *plan_, catalog_, /*join_path=*/true));
      ASSERT_EQ(dims_.back().kind, DimKind::kKeyVertex);
      dims_.back().vertex_pos = static_cast<int>(2 * (dims_.size() - 1));
    }
    layout_ = std::make_unique<RowLayout>(*plan_, dims_);
  }

  struct Row {
    uint64_t s, j;  // dictionary codes
    double v;
  };

  /// Folds `rows` into `chunk` the way a chunk run does: each row's delta
  /// goes into its group, and the group closes when the key changes.
  void Fold(const std::vector<Row>& rows, RowChunk* chunk) const {
    const double aux[] = {0.0};
    for (const Row& r : rows) {
      const uint64_t key[] = {r.s, r.j};
      const double main[] = {r.v};
      ApplyDeltas(plan_->aggs, chunk->Group(key), main, aux);
    }
  }

  /// One closed chunk per row list.
  std::vector<std::unique_ptr<RowChunk>> MakeChunks(
      const std::vector<std::vector<Row>>& lists) const {
    std::vector<std::unique_ptr<RowChunk>> out;
    for (const auto& rows : lists) {
      out.push_back(std::make_unique<RowChunk>(layout_.get()));
      Fold(rows, out.back().get());
      out.back()->Close();
    }
    return out;
  }

  static std::vector<const RowChunk*> View(
      const std::vector<std::unique_ptr<RowChunk>>& chunks) {
    std::vector<const RowChunk*> list;
    for (const auto& c : chunks) list.push_back(c.get());
    return list;
  }

  /// Concatenates `lists` as chunks and, as the reference, decodes one
  /// hash-mode table fed the same rows in the same order (groups never
  /// repeat across lists, so its insertion order is the rows' key order);
  /// returns both. `parallel` (nullable) receives the concat's metric.
  std::pair<QueryResult, QueryResult> Both(
      const std::vector<std::vector<Row>>& lists,
      double* parallel = nullptr) {
    auto chunks = MakeChunks(lists);
    obs::Trace trace;
    obs::TraceSpan span(&trace, "materialize");
    auto got = ConcatRows(*layout_, View(chunks), nullptr, &span);
    span.End();
    EXPECT_TRUE(got.ok()) << got.status().ToString();
    if (parallel != nullptr) {
      const std::vector<obs::SpanRecord> spans = trace.Spans();
      for (const auto& [name, value] : spans[0].metrics) {
        if (name == "parallel") *parallel = value;
      }
    }
    GroupAccum whole(2, &plan_->aggs);
    const double aux[] = {0.0};
    for (const auto& rows : lists) {
      for (const Row& r : rows) {
        const uint64_t key[] = {r.s, r.j};
        const double main[] = {r.v};
        whole.Apply(whole.FindOrCreate(key), main, aux);
      }
    }
    auto want = MaterializeGroups(*plan_, whole, dims_);
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
  std::unique_ptr<RowLayout> layout_;
};

TEST_F(RowChunkTest, OpenGroupContinuesUntilKeyChanges) {
  Plan(kExprSelect, "");
  EXPECT_FALSE(layout_->direct);  // b.j + 1 is an output expression
  RowChunk chunk(layout_.get());
  Fold({{0, 2, 1.0}, {0, 2, 1.0}}, &chunk);
  EXPECT_EQ(chunk.num_rows(), 0u);  // the group is still open
  Fold({{0, 3, 1.0}}, &chunk);
  ASSERT_EQ(chunk.num_rows(), 1u);
  chunk.Close();
  chunk.Close();  // idempotent
  ASSERT_EQ(chunk.num_rows(), 2u);
  EXPECT_EQ(chunk.columns()[0].codes, (std::vector<uint32_t>{0, 0}));
  EXPECT_EQ(chunk.columns()[1].ints, (std::vector<int64_t>{20, 30}));
  EXPECT_EQ(chunk.columns()[2].reals, (std::vector<double>{2.0, 1.0}));
  EXPECT_EQ(chunk.columns()[3].reals, (std::vector<double>{21.0, 31.0}));
}

TEST_F(RowChunkTest, ConcatKeepsChunkOrderThenKeyOrder) {
  Plan(kExprSelect, "");
  auto [got, want] = Both({{{0, 0, 1.0}, {0, 1, 2.0}, {0, 1, 0.5}},
                           {{1, 0, 3.0}}});
  ExpectBitIdentical(got, want);
  ASSERT_EQ(got.num_rows, 3u);
  EXPECT_EQ(got.columns[0].strs,
            (std::vector<std::string>{"ant", "ant", "bee"}));
  EXPECT_EQ(got.columns[1].ints, (std::vector<int64_t>{0, 10, 0}));
  EXPECT_EQ(got.columns[2].reals, (std::vector<double>{1.0, 2.5, 3.0}));
  EXPECT_EQ(got.columns[3].reals, (std::vector<double>{1.0, 11.0, 1.0}));
}

/// A skew split of one group: the sub-ranges' open groups combine into
/// the parent's in sub-range order, empty sub-ranges skipped, the first
/// adopted as it is; the magnitudes make any other order show in the bits.
TEST_F(RowChunkTest, CombineOpenMergesSubRangeGroup) {
  Plan(kExprSelect, "");
  const std::vector<std::vector<Row>> subs = {
      {}, {{0, 1, 1e16}}, {}, {{0, 1, 1.0}}, {{0, 1, -1e16}}, {}};
  RowChunk parent(layout_.get());
  for (const auto& rows : subs) {
    RowChunk sub(layout_.get());
    Fold(rows, &sub);
    parent.CombineOpen(sub);
  }
  EXPECT_EQ(parent.num_rows(), 0u);
  parent.Close();
  ASSERT_EQ(parent.num_rows(), 1u);
  EXPECT_EQ(BitcastDouble(parent.columns()[2].reals[0]),
            BitcastDouble((1e16 + 1.0) + -1e16));
  EXPECT_EQ(parent.columns()[1].ints, (std::vector<int64_t>{10}));
}

TEST_F(RowChunkTest, CombineOpenChainsThroughEmptySubRanges) {
  Plan(kExprSelect, "");
  RowChunk parent(layout_.get());
  for (int i = 0; i < 3; ++i) {
    RowChunk empty(layout_.get());
    parent.CombineOpen(empty);
  }
  parent.Close();
  EXPECT_EQ(parent.num_rows(), 0u);  // no sub-range reached a leaf
  RowChunk one(layout_.get());
  Fold({{2, 2, 4.0}}, &one);
  parent.CombineOpen(one);
  RowChunk empty(layout_.get());
  parent.CombineOpen(empty);
  parent.Close();
  ASSERT_EQ(parent.num_rows(), 1u);
  EXPECT_EQ(parent.columns()[2].reals, (std::vector<double>{4.0}));
}

TEST_F(RowChunkTest, HavingFiltersAtClose) {
  Plan(kExprSelect, "sum(a.v * b.w) > 1.5");
  // (0, 1) survives only as the combined group (1 + 1); (0, 0) before it
  // and (1, 0) after it are dropped as they close.
  RowChunk chunk(layout_.get());
  Fold({{0, 0, 1.0}, {0, 1, 1.0}}, &chunk);
  RowChunk sub(layout_.get());
  Fold({{0, 1, 1.0}}, &sub);
  chunk.CombineOpen(sub);
  Fold({{1, 0, 1.0}, {1, 1, 5.0}}, &chunk);
  chunk.Close();
  ASSERT_EQ(chunk.num_rows(), 2u);
  EXPECT_EQ(chunk.columns()[1].ints, (std::vector<int64_t>{10, 10}));
  EXPECT_EQ(chunk.columns()[2].reals, (std::vector<double>{2.0, 5.0}));
}

/// The bulk writer equals a fresh group per value folded through Group and
/// CombineAccs, bit for bit, for every aggregate (-0.0 included: a SUM of
/// -0.0 is written as +0.0, as the identity-initialized fold gives).
TEST_F(RowChunkTest, WriteRunMatchesPerGroupFold) {
  Plan("SELECT a.s, b.j, sum(a.v * b.w), min(a.v * b.w), max(a.v * b.w), "
       "avg(a.v * b.w), count(*)",
       "");
  ASSERT_TRUE(layout_->direct);
  const std::vector<AggExec>& aggs = plan_->aggs;
  const size_t stride = 2 * aggs.size();
  // Accumulator rows indexed by the last vertex's code (the relaxed
  // scratch).
  std::vector<double> rows(10 * stride);
  for (size_t i = 0; i < rows.size(); ++i) {
    rows[i] = i % 3 == 0 ? -0.0 : 1.0 / static_cast<double>(i + 1);
  }
  rows[4 * stride] = std::numeric_limits<double>::quiet_NaN();
  ASSERT_TRUE(std::signbit(rows[3 * stride]));  // value 3's SUM is -0.0
  const std::vector<uint32_t> run = {3, 4, 5, 9};
  const uint64_t key[] = {3, 0};  // word 1 (b.j, position 2) varies

  RowChunk bulk(layout_.get()), single(layout_.get());
  bulk.WriteRun(key, 2, run.data(), run.size(), rows.data(), stride);
  for (uint32_t m : run) {
    const uint64_t k[] = {3, m};
    CombineAccs(aggs, single.Group(k), rows.data() + m * stride);
  }
  single.Close();
  ASSERT_EQ(bulk.num_rows(), run.size());
  ASSERT_EQ(single.num_rows(), run.size());
  for (size_t c = 0; c < bulk.columns().size(); ++c) {
    const ResultColumn& x = bulk.columns()[c];
    const ResultColumn& y = single.columns()[c];
    EXPECT_EQ(x.ints, y.ints) << c;
    EXPECT_EQ(x.codes, y.codes) << c;
    ASSERT_EQ(x.reals.size(), y.reals.size());
    for (size_t i = 0; i < x.reals.size(); ++i) {
      EXPECT_EQ(BitcastDouble(x.reals[i]), BitcastDouble(y.reals[i]))
          << "column " << c << " row " << i;
    }
  }
  EXPECT_EQ(bulk.columns()[0].codes, (std::vector<uint32_t>{3, 3, 3, 3}));
  EXPECT_EQ(bulk.columns()[1].ints, (std::vector<int64_t>{30, 40, 50, 90}));
  EXPECT_EQ(BitcastDouble(bulk.columns()[2].reals[0]), BitcastDouble(0.0));

  // WriteRow: one group, no value varies.
  RowChunk row(layout_.get());
  row.WriteRow(key, rows.data() + 5 * stride);
  ASSERT_EQ(row.num_rows(), 1u);
  EXPECT_EQ(row.columns()[1].ints, (std::vector<int64_t>{0}));
  EXPECT_EQ(row.columns()[2].reals, (std::vector<double>{rows[5 * stride]}));
}

TEST_F(RowChunkTest, StringKeyVertexDecodesOrStaysEncoded) {
  const std::vector<std::vector<Row>> lists = {{{4, 3, 1.0}, {4, 3, 2.0}},
                                               {{3, 0, 1.0}}};
  Plan(kExprSelect, "");
  auto [text, text_ref] = Both(lists);
  ExpectBitIdentical(text, text_ref);
  EXPECT_EQ(text.columns[0].type, ValueType::kString);
  EXPECT_EQ(text.columns[0].strs, (std::vector<std::string>{"eel", "dog"}));
  EXPECT_TRUE(text.columns[0].codes.empty());

  Plan(kExprSelect, "", /*keep_strings_encoded=*/true);
  auto [codes, codes_ref] = Both(lists);
  ExpectBitIdentical(codes, codes_ref);
  EXPECT_EQ(codes.columns[0].type, ValueType::kString);
  EXPECT_TRUE(codes.columns[0].strs.empty());
  EXPECT_EQ(codes.columns[0].codes, (std::vector<uint32_t>{4, 3}));
  EXPECT_EQ(codes.columns[0].dict, dims_[0].dict);
}

/// kStrings x kInts groups cut into chunks: the concat sizes and copies as
/// tasks on the global pool and must match the hash-mode decode bit for
/// bit.
TEST_F(RowChunkTest, PooledConcatMatchesSerialConcat) {
  ASSERT_GE(static_cast<size_t>(kStrings) * kInts, kParallelConcatRows);
  for (const char* having : {"", "sum(a.v * b.w) > 0.125"}) {
    Plan(kExprSelect, having);
    std::vector<std::vector<Row>> lists(9);
    size_t i = 0;
    for (uint64_t s = 0; s < kStrings; ++s) {
      for (uint64_t j = 0; j < kInts; ++j, ++i) {
        const double v = static_cast<double>(i % 1000) / 999.0;
        auto& list = lists[i * lists.size() / (kStrings * kInts)];
        list.push_back({s, j, v});
        list.push_back({s, j, 0.5});  // a second delta per group
      }
    }
    double parallel = -1;
    auto [got, want] = Both(lists, &parallel);
    ExpectBitIdentical(got, want);
    EXPECT_EQ(parallel, 1) << having;
    EXPECT_GT(got.num_rows, 0u);
  }
}

TEST_F(RowChunkTest, SmallResultConcatsOnCallingThread) {
  Plan(kExprSelect, "");
  double parallel = -1;
  auto [got, want] = Both({{{0, 0, 1.0}}, {{0, 1, 1.0}}}, &parallel);
  ExpectBitIdentical(got, want);
  EXPECT_EQ(parallel, 0);
}

TEST_F(RowChunkTest, RowBoundCountsHavingSurvivors) {
  Plan(kExprSelect, "sum(a.v * b.w) > 1.5");
  auto chunks = MakeChunks({{{0, 0, 1.0}, {0, 1, 2.0}},
                            {{0, 2, 3.0}, {1, 0, 1.0}}});
  // Four groups, two survive HAVING: the bound applies to the survivors.
  QueryGuard guard;
  guard.max_result_rows = 1;
  auto over = ConcatRows(*layout_, View(chunks), &guard);
  ASSERT_FALSE(over.ok());
  EXPECT_EQ(over.status().code(), StatusCode::kResourceExhausted);
  guard.max_result_rows = 2;
  auto fits = ConcatRows(*layout_, View(chunks), &guard);
  ASSERT_TRUE(fits.ok()) << fits.status().ToString();
  EXPECT_EQ(fits.value().num_rows, 2u);
}

}  // namespace
}  // namespace levelheaded
