#include <algorithm>
#include <ostream>
#include <set>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "set/intersect.h"
#include "set/set.h"
#include "util/rng.h"

namespace levelheaded {
namespace {

std::vector<uint32_t> SortedUnique(std::vector<uint32_t> v) {
  std::sort(v.begin(), v.end());
  v.erase(std::unique(v.begin(), v.end()), v.end());
  return v;
}

std::vector<uint32_t> RandomSet(Rng* rng, uint32_t universe, uint32_t target) {
  std::vector<uint32_t> v;
  v.reserve(target);
  for (uint32_t i = 0; i < target; ++i) {
    v.push_back(static_cast<uint32_t>(rng->Uniform(universe)));
  }
  return SortedUnique(std::move(v));
}

TEST(LayoutTest, DensityRule) {
  // Range == cardinality -> dense.
  EXPECT_EQ(ChooseLayout(100, 0, 99), SetLayout::kBitset);
  // Range 32x cardinality -> still dense (boundary).
  EXPECT_EQ(ChooseLayout(100, 0, 3199), SetLayout::kBitset);
  // Past the boundary -> sparse.
  EXPECT_EQ(ChooseLayout(100, 0, 3200), SetLayout::kUint);
  // Singletons and empties are sparse.
  EXPECT_EQ(ChooseLayout(1, 5, 5), SetLayout::kUint);
  EXPECT_EQ(ChooseLayout(0, 0, 0), SetLayout::kUint);
}

TEST(SetViewTest, UintBasicOps) {
  OwnedSet s = OwnedSet::FromSortedWithLayout({2, 5, 7, 100}, SetLayout::kUint);
  const SetView& v = s.view();
  EXPECT_EQ(v.cardinality, 4u);
  EXPECT_EQ(v.Min(), 2u);
  EXPECT_EQ(v.Max(), 100u);
  EXPECT_TRUE(v.Contains(5));
  EXPECT_FALSE(v.Contains(6));
  EXPECT_EQ(v.Rank(7), 2);
  EXPECT_EQ(v.Rank(8), -1);
  EXPECT_EQ(v.Select(3), 100u);
}

TEST(SetViewTest, BitsetBasicOps) {
  std::vector<uint32_t> vals = {64, 65, 70, 127, 128, 200};
  OwnedSet s = OwnedSet::FromSortedWithLayout(vals, SetLayout::kBitset);
  const SetView& v = s.view();
  EXPECT_EQ(v.layout, SetLayout::kBitset);
  EXPECT_EQ(v.word_base, 64u);  // aligned down to a word boundary
  EXPECT_EQ(v.cardinality, 6u);
  EXPECT_EQ(v.Min(), 64u);
  EXPECT_EQ(v.Max(), 200u);
  for (size_t i = 0; i < vals.size(); ++i) {
    EXPECT_TRUE(v.Contains(vals[i]));
    EXPECT_EQ(v.Rank(vals[i]), static_cast<int64_t>(i));
    EXPECT_EQ(v.Select(static_cast<uint32_t>(i)), vals[i]);
  }
  EXPECT_FALSE(v.Contains(66));
  EXPECT_EQ(v.Rank(66), -1);
  EXPECT_FALSE(v.Contains(0));     // below word_base
  EXPECT_FALSE(v.Contains(4096));  // beyond last word
  EXPECT_EQ(v.Rank(4096), -1);
}

TEST(SetViewTest, ForEachVisitsAscendingWithRanks) {
  std::vector<uint32_t> vals = {1, 3, 64, 65, 1000};
  for (SetLayout layout : {SetLayout::kUint, SetLayout::kBitset}) {
    OwnedSet s = OwnedSet::FromSortedWithLayout(vals, layout);
    std::vector<uint32_t> seen;
    std::vector<uint32_t> ranks;
    s.view().ForEach([&](uint32_t v, uint32_t r) {
      seen.push_back(v);
      ranks.push_back(r);
    });
    EXPECT_EQ(seen, vals);
    for (size_t i = 0; i < ranks.size(); ++i) EXPECT_EQ(ranks[i], i);
  }
}

TEST(SetViewTest, EmptySet) {
  OwnedSet s = OwnedSet::FromSorted({});
  EXPECT_TRUE(s.view().empty());
  EXPECT_FALSE(s.view().Contains(0));
  EXPECT_EQ(s.view().Rank(0), -1);
}

TEST(SetViewTest, AutoLayoutMatchesRule) {
  // Dense run 0..999.
  std::vector<uint32_t> dense(1000);
  for (uint32_t i = 0; i < 1000; ++i) dense[i] = i;
  EXPECT_EQ(OwnedSet::FromSorted(dense).view().layout, SetLayout::kBitset);
  // Sparse multiples of 1000.
  std::vector<uint32_t> sparse(100);
  for (uint32_t i = 0; i < 100; ++i) sparse[i] = i * 1000;
  EXPECT_EQ(OwnedSet::FromSorted(sparse).view().layout, SetLayout::kUint);
}

// ---------------------------------------------------------------------------
// Intersection kernels.
// ---------------------------------------------------------------------------

std::vector<uint32_t> ReferenceIntersect(const std::vector<uint32_t>& a,
                                         const std::vector<uint32_t>& b) {
  std::vector<uint32_t> out;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(out));
  return out;
}

TEST(IntersectTest, UintUintSmall) {
  OwnedSet a = OwnedSet::FromSortedWithLayout({1, 3, 5, 7}, SetLayout::kUint);
  OwnedSet b = OwnedSet::FromSortedWithLayout({3, 4, 5, 9}, SetLayout::kUint);
  ScratchSet out;
  Intersect(a.view(), b.view(), &out);
  EXPECT_EQ(out.view().ToVector(), (std::vector<uint32_t>{3, 5}));
  EXPECT_EQ(out.view().layout, SetLayout::kUint);
}

TEST(IntersectTest, BitsetBitsetProducesBitset) {
  std::vector<uint32_t> a, b;
  for (uint32_t i = 0; i < 300; ++i) a.push_back(i);
  for (uint32_t i = 150; i < 450; ++i) b.push_back(i);
  OwnedSet sa = OwnedSet::FromSortedWithLayout(a, SetLayout::kBitset);
  OwnedSet sb = OwnedSet::FromSortedWithLayout(b, SetLayout::kBitset);
  ScratchSet out;
  Intersect(sa.view(), sb.view(), &out);
  EXPECT_EQ(out.view().layout, SetLayout::kBitset);
  EXPECT_EQ(out.view().ToVector(), ReferenceIntersect(a, b));
  // Rank index of the result must be consistent.
  EXPECT_EQ(out.view().Rank(150), 0);
  EXPECT_EQ(out.view().Rank(299), 149);
}

TEST(IntersectTest, DisjointBitsets) {
  std::vector<uint32_t> a, b;
  for (uint32_t i = 0; i < 64; ++i) a.push_back(i);
  for (uint32_t i = 1024; i < 1088; ++i) b.push_back(i);
  OwnedSet sa = OwnedSet::FromSortedWithLayout(a, SetLayout::kBitset);
  OwnedSet sb = OwnedSet::FromSortedWithLayout(b, SetLayout::kBitset);
  ScratchSet out;
  Intersect(sa.view(), sb.view(), &out);
  EXPECT_TRUE(out.view().empty());
}

TEST(IntersectTest, MixedLayouts) {
  std::vector<uint32_t> dense;
  for (uint32_t i = 100; i < 400; ++i) dense.push_back(i);
  std::vector<uint32_t> sparse = {5, 100, 250, 399, 400, 10000};
  OwnedSet d = OwnedSet::FromSortedWithLayout(dense, SetLayout::kBitset);
  OwnedSet s = OwnedSet::FromSortedWithLayout(sparse, SetLayout::kUint);
  ScratchSet out;
  Intersect(d.view(), s.view(), &out);
  EXPECT_EQ(out.view().ToVector(), ReferenceIntersect(dense, sparse));
  Intersect(s.view(), d.view(), &out);
  EXPECT_EQ(out.view().ToVector(), ReferenceIntersect(dense, sparse));
}

TEST(IntersectTest, EmptyInput) {
  OwnedSet a = OwnedSet::FromSorted({});
  OwnedSet b = OwnedSet::FromSortedWithLayout({1, 2, 3}, SetLayout::kUint);
  ScratchSet out;
  Intersect(a.view(), b.view(), &out);
  EXPECT_TRUE(out.view().empty());
  Intersect(b.view(), a.view(), &out);
  EXPECT_TRUE(out.view().empty());
}

TEST(IntersectTest, GallopingPath) {
  // Small set vs huge set triggers the galloping branch (ratio > 32).
  std::vector<uint32_t> big;
  for (uint32_t i = 0; i < 100000; ++i) big.push_back(i * 3);
  std::vector<uint32_t> small = {0, 3, 7, 299997, 300000};
  OwnedSet sb = OwnedSet::FromSortedWithLayout(big, SetLayout::kUint);
  OwnedSet ss = OwnedSet::FromSortedWithLayout(small, SetLayout::kUint);
  ScratchSet out;
  Intersect(ss.view(), sb.view(), &out);
  EXPECT_EQ(out.view().ToVector(), ReferenceIntersect(small, big));
}

TEST(IntersectTest, CountMatchesMaterialized) {
  Rng rng(42);
  for (int trial = 0; trial < 20; ++trial) {
    auto a = RandomSet(&rng, 5000, 800);
    auto b = RandomSet(&rng, 5000, 800);
    OwnedSet sa = OwnedSet::FromSorted(a);
    OwnedSet sb = OwnedSet::FromSorted(b);
    EXPECT_EQ(IntersectCount(sa.view(), sb.view()),
              ReferenceIntersect(a, b).size());
  }
}

TEST(UnionTest, Basic) {
  OwnedSet a = OwnedSet::FromSortedWithLayout({1, 3, 5}, SetLayout::kUint);
  std::vector<uint32_t> bvals;
  for (uint32_t i = 3; i < 70; ++i) bvals.push_back(i);
  OwnedSet b = OwnedSet::FromSortedWithLayout(bvals, SetLayout::kBitset);
  std::vector<uint32_t> expect = bvals;
  expect.insert(expect.begin(), 1);
  EXPECT_EQ(UnionValues(a.view(), b.view()), expect);
}

// ---------------------------------------------------------------------------
// Property sweep: all four layout pairings against the std reference, over
// randomized universes/densities.
// ---------------------------------------------------------------------------

struct IntersectCase {
  uint32_t universe;
  uint32_t size_a;
  uint32_t size_b;
  SetLayout layout_a;
  SetLayout layout_b;
};

// gtest prints each test's parameter beside its name, and test discovery
// names the ctest test after it. The default printer dumps the struct's
// bytes, padding included, so those names changed between builds; this
// prints the fields, e.g. u1000_a200uint_b200bitset.
void PrintTo(const IntersectCase& c, std::ostream* os) {
  const auto layout = [](SetLayout l) {
    return l == SetLayout::kUint ? "uint" : "bitset";
  };
  *os << "u" << c.universe << "_a" << c.size_a << layout(c.layout_a) << "_b"
      << c.size_b << layout(c.layout_b);
}

class IntersectPropertyTest
    : public ::testing::TestWithParam<IntersectCase> {};

TEST_P(IntersectPropertyTest, MatchesReference) {
  const IntersectCase& c = GetParam();
  Rng rng(c.universe * 31 + c.size_a * 7 + c.size_b);
  for (int trial = 0; trial < 10; ++trial) {
    auto a = RandomSet(&rng, c.universe, c.size_a);
    auto b = RandomSet(&rng, c.universe, c.size_b);
    if (a.empty() || b.empty()) continue;
    OwnedSet sa = OwnedSet::FromSortedWithLayout(a, c.layout_a);
    OwnedSet sb = OwnedSet::FromSortedWithLayout(b, c.layout_b);
    ScratchSet out;
    Intersect(sa.view(), sb.view(), &out);
    EXPECT_EQ(out.view().ToVector(), ReferenceIntersect(a, b));
    // Commutativity.
    ScratchSet out2;
    Intersect(sb.view(), sa.view(), &out2);
    EXPECT_EQ(out2.view().ToVector(), ReferenceIntersect(a, b));
    // Result ranks are a permutation 0..n-1 in order.
    uint32_t expect_rank = 0;
    out.view().ForEach([&](uint32_t, uint32_t r) {
      EXPECT_EQ(r, expect_rank++);
    });
  }
}

INSTANTIATE_TEST_SUITE_P(
    LayoutPairs, IntersectPropertyTest,
    ::testing::Values(
        IntersectCase{1000, 200, 200, SetLayout::kUint, SetLayout::kUint},
        IntersectCase{1000, 200, 200, SetLayout::kUint, SetLayout::kBitset},
        IntersectCase{1000, 200, 200, SetLayout::kBitset, SetLayout::kUint},
        IntersectCase{1000, 200, 200, SetLayout::kBitset, SetLayout::kBitset},
        IntersectCase{100000, 50, 5000, SetLayout::kUint, SetLayout::kUint},
        IntersectCase{100000, 5000, 50, SetLayout::kUint, SetLayout::kBitset},
        IntersectCase{64, 40, 40, SetLayout::kBitset, SetLayout::kBitset},
        IntersectCase{10, 10, 10, SetLayout::kBitset, SetLayout::kBitset},
        IntersectCase{1u << 20, 1000, 1000, SetLayout::kUint,
                      SetLayout::kUint}));

// Select/Rank inverse property over random sets and layouts.
class SelectRankPropertyTest
    : public ::testing::TestWithParam<std::tuple<uint32_t, uint32_t, int>> {};

TEST_P(SelectRankPropertyTest, SelectIsInverseOfRank) {
  auto [universe, size, layout_idx] = GetParam();
  Rng rng(universe + size + layout_idx);
  auto vals = RandomSet(&rng, universe, size);
  if (vals.empty()) return;
  OwnedSet s = OwnedSet::FromSortedWithLayout(
      vals, layout_idx == 0 ? SetLayout::kUint : SetLayout::kBitset);
  for (uint32_t r = 0; r < s.view().cardinality; ++r) {
    uint32_t v = s.view().Select(r);
    EXPECT_EQ(s.view().Rank(v), static_cast<int64_t>(r));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SelectRankPropertyTest,
    ::testing::Combine(::testing::Values(100u, 1000u, 65536u),
                       ::testing::Values(1u, 50u, 900u),
                       ::testing::Values(0, 1)));

}  // namespace
}  // namespace levelheaded

// --- SIMD kernel (when built in) vs the scalar reference ---
#include "set/simd_intersect.h"

namespace levelheaded {
namespace {

TEST(SimdIntersectTest, MatchesScalarOnRandomSets) {
  if (!set_internal::SimdIntersectAvailable()) {
    GTEST_SKIP() << "built without AVX2";
  }
  Rng rng(7331);
  for (int trial = 0; trial < 40; ++trial) {
    const uint32_t universe = 1u << (6 + trial % 10);
    auto a = RandomSet(&rng, universe, universe / 2 + 1);
    auto b = RandomSet(&rng, universe, universe / 3 + 1);
    if (a.size() < 8) continue;
    std::vector<uint32_t> simd_out(std::min(a.size(), b.size()) + 4);
    std::vector<uint32_t> ref_out(std::min(a.size(), b.size()) + 4);
    const uint32_t ns = set_internal::IntersectUintUintSimd(
        a.data(), static_cast<uint32_t>(a.size()), b.data(),
        static_cast<uint32_t>(b.size()), simd_out.data());
    const uint32_t nr = set_internal::IntersectUintUint(
        a.data(), static_cast<uint32_t>(a.size()), b.data(),
        static_cast<uint32_t>(b.size()), ref_out.data());
    ASSERT_EQ(ns, nr);
    for (uint32_t i = 0; i < ns; ++i) EXPECT_EQ(simd_out[i], ref_out[i]);
  }
}

TEST(SimdIntersectTest, TailAndBlockBoundaries) {
  if (!set_internal::SimdIntersectAvailable()) {
    GTEST_SKIP() << "built without AVX2";
  }
  // Sizes around the 4-lane block boundary, fully overlapping.
  for (uint32_t n : {8u, 9u, 11u, 12u, 15u, 16u, 17u}) {
    std::vector<uint32_t> v(n);
    for (uint32_t i = 0; i < n; ++i) v[i] = i * 3;
    std::vector<uint32_t> out(n + 4);
    const uint32_t got = set_internal::IntersectUintUintSimd(
        v.data(), n, v.data(), n, out.data());
    ASSERT_EQ(got, n);
    for (uint32_t i = 0; i < n; ++i) EXPECT_EQ(out[i], v[i]);
  }
}

}  // namespace
}  // namespace levelheaded
