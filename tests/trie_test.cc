#include <algorithm>
#include <map>
#include <set>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "storage/trie.h"
#include "util/rng.h"

namespace levelheaded {
namespace {

// Builds a 2-level trie from (a, b, weight) tuples.
struct TwoLevelFixture {
  std::vector<uint32_t> a;
  std::vector<uint32_t> b;
  std::vector<double> w;

  Trie Build(bool count = false, const std::vector<uint32_t>* sel = nullptr,
             std::vector<uint32_t> domains = {}) {
    TrieBuildSpec spec;
    spec.key_codes = {&a, &b};
    spec.domain_sizes = std::move(domains);
    TrieAnnotationSpec ann;
    ann.name = "w";
    ann.type = ValueType::kDouble;
    ann.merge = AnnotationMerge::kSum;
    ann.reals = &w;
    spec.annotations.push_back(ann);
    spec.selection = sel;
    spec.add_count_annotation = count;
    return Trie::Build(spec).ValueOrDie();
  }
};

TEST(TrieTest, BasicStructure) {
  // Tuples: (1,2) (1,5) (3,2) — unsorted input.
  TwoLevelFixture f;
  f.a = {3, 1, 1};
  f.b = {2, 2, 5};
  f.w = {30.0, 10.0, 20.0};
  Trie trie = f.Build();

  ASSERT_EQ(trie.num_levels(), 2);
  EXPECT_EQ(trie.root().ToVector(), (std::vector<uint32_t>{1, 3}));
  EXPECT_EQ(trie.num_tuples(), 3u);

  // Children of a=1 (rank 0) are {2,5}; of a=3 (rank 1) are {2}.
  EXPECT_EQ(trie.level(1).set(0).ToVector(), (std::vector<uint32_t>{2, 5}));
  EXPECT_EQ(trie.level(1).set(1).ToVector(), (std::vector<uint32_t>{2}));

  // Annotations in leaf order (1,2)=10, (1,5)=20, (3,2)=30.
  ASSERT_EQ(trie.num_annotations(), 1u);
  const AnnotationBuffer& ann = trie.annotation(0);
  EXPECT_EQ(ann.level, 1);
  EXPECT_EQ(ann.reals, (std::vector<double>{10.0, 20.0, 30.0}));
}

TEST(TrieTest, DuplicateTuplesMergeBySum) {
  TwoLevelFixture f;
  f.a = {1, 1, 1};
  f.b = {2, 2, 3};
  f.w = {1.5, 2.5, 4.0};
  Trie trie = f.Build(/*count=*/true);
  EXPECT_EQ(trie.num_tuples(), 2u);
  EXPECT_EQ(trie.annotation(0).reals, (std::vector<double>{4.0, 4.0}));
  int count_idx = trie.FindAnnotation("#count");
  ASSERT_GE(count_idx, 0);
  EXPECT_EQ(trie.annotation(count_idx).ints,
            (std::vector<int64_t>{2, 1}));
}

TEST(TrieTest, SelectionSubset) {
  TwoLevelFixture f;
  f.a = {1, 2, 3};
  f.b = {1, 1, 1};
  f.w = {1, 2, 3};
  std::vector<uint32_t> sel = {0, 2};
  Trie trie = f.Build(false, &sel);
  EXPECT_EQ(trie.root().ToVector(), (std::vector<uint32_t>{1, 3}));
  EXPECT_EQ(trie.annotation(0).reals, (std::vector<double>{1.0, 3.0}));
}

TEST(TrieTest, EmptySelection) {
  TwoLevelFixture f;
  f.a = {1};
  f.b = {1};
  f.w = {1};
  std::vector<uint32_t> sel = {};
  Trie trie = f.Build(false, &sel);
  EXPECT_EQ(trie.num_tuples(), 0u);
  EXPECT_TRUE(trie.root().empty());
}

TEST(TrieTest, GlobalRankIsChildSetIndex) {
  TwoLevelFixture f;
  // a in {0..9}, b = a*2 and a*2+1 -> 20 tuples.
  for (uint32_t i = 0; i < 10; ++i) {
    for (uint32_t j = 0; j < 2; ++j) {
      f.a.push_back(i);
      f.b.push_back(i * 2 + j);
      f.w.push_back(i + j);
    }
  }
  Trie trie = f.Build();
  SetView root = trie.root();
  root.ForEach([&](uint32_t v, uint32_t rank) {
    SetView child = trie.level(1).set(rank);
    EXPECT_EQ(child.ToVector(),
              (std::vector<uint32_t>{v * 2, v * 2 + 1}));
    // Leaf global ranks index the annotation buffer.
    uint32_t base = trie.level(1).base_rank(rank);
    EXPECT_EQ(trie.annotation(0).reals[base], v);
    EXPECT_EQ(trie.annotation(0).reals[base + 1], v + 1.0);
  });
}

TEST(TrieTest, DenseDetection) {
  TwoLevelFixture f;
  const uint32_t n = 70;  // spans >1 word to exercise bitset layout
  for (uint32_t i = 0; i < n; ++i) {
    for (uint32_t j = 0; j < n; ++j) {
      f.a.push_back(i);
      f.b.push_back(j);
      f.w.push_back(i * n + j);
    }
  }
  Trie trie = f.Build(false, nullptr, {n, n});
  EXPECT_TRUE(trie.IsCompletelyDense());
  EXPECT_TRUE(trie.level(0).all_full());
  EXPECT_TRUE(trie.level(1).all_full());
  // Annotation buffer is the row-major dense matrix.
  EXPECT_EQ(trie.annotation(0).reals.size(), size_t{n} * n);
  EXPECT_EQ(trie.annotation(0).reals[5 * n + 7], 5.0 * n + 7);

  // Remove one tuple -> no longer dense.
  f.a.pop_back();
  f.b.pop_back();
  f.w.pop_back();
  Trie sparse = f.Build(false, nullptr, {n, n});
  EXPECT_FALSE(sparse.IsCompletelyDense());
}

TEST(TrieTest, MetadataAnnotationAttachesAtShallowestLevel) {
  // customer-like: (custkey, nationkey) with name determined by custkey.
  std::vector<uint32_t> custkey = {0, 0, 1, 2};
  std::vector<uint32_t> nationkey = {3, 4, 3, 5};
  std::vector<uint32_t> name_codes = {7, 7, 8, 9};  // constant per custkey

  TrieBuildSpec spec;
  spec.key_codes = {&custkey, &nationkey};
  TrieAnnotationSpec ann;
  ann.name = "name";
  ann.type = ValueType::kString;
  ann.merge = AnnotationMerge::kFirst;
  ann.codes = &name_codes;
  spec.annotations.push_back(ann);
  Trie trie = Trie::Build(spec).ValueOrDie();

  const AnnotationBuffer& name = trie.annotation(0);
  EXPECT_EQ(name.level, 0);  // determined by the first key level
  EXPECT_EQ(name.codes, (std::vector<uint32_t>{7, 8, 9}));
}

TEST(TrieTest, MetadataAnnotationFallsToLeafWhenNotDetermined) {
  std::vector<uint32_t> a = {0, 0};
  std::vector<uint32_t> b = {1, 2};
  std::vector<uint32_t> tag = {5, 6};  // varies under a=0

  TrieBuildSpec spec;
  spec.key_codes = {&a, &b};
  TrieAnnotationSpec ann;
  ann.name = "tag";
  ann.type = ValueType::kString;
  ann.merge = AnnotationMerge::kFirst;
  ann.codes = &tag;
  spec.annotations.push_back(ann);
  Trie trie = Trie::Build(spec).ValueOrDie();
  EXPECT_EQ(trie.annotation(0).level, 1);
  EXPECT_EQ(trie.annotation(0).codes, (std::vector<uint32_t>{5, 6}));
}

TEST(TrieTest, RejectsInvalidSpecs) {
  TrieBuildSpec empty;
  EXPECT_FALSE(Trie::Build(empty).ok());

  std::vector<uint32_t> a = {1};
  std::vector<uint32_t> b = {1, 2};
  TrieBuildSpec mismatched;
  mismatched.key_codes = {&a, &b};
  EXPECT_FALSE(Trie::Build(mismatched).ok());

  TrieBuildSpec bad_ann;
  bad_ann.key_codes = {&a};
  TrieAnnotationSpec ann;
  ann.name = "x";
  bad_ann.annotations.push_back(ann);  // no source column
  EXPECT_FALSE(Trie::Build(bad_ann).ok());
}

TEST(TrieTest, VerifyFirstUniqueRejectsUndeterminedAnnotation) {
  // The key tuple (0, 1) repeats with two different tags: no key level
  // determines the tag, not even the leaf.
  std::vector<uint32_t> a = {0, 0, 2};
  std::vector<uint32_t> b = {1, 1, 3};
  std::vector<int64_t> tag = {5, 6, 7};

  TrieBuildSpec spec;
  spec.key_codes = {&a, &b};
  TrieAnnotationSpec ann;
  ann.name = "tag";
  ann.type = ValueType::kInt64;
  ann.merge = AnnotationMerge::kFirst;
  ann.ints = &tag;
  spec.annotations.push_back(ann);

  // Unverified, the leaf keeps the first row's value in table order.
  Trie trie = Trie::Build(spec).ValueOrDie();
  EXPECT_EQ(trie.annotation(0).level, 1);
  EXPECT_EQ(trie.annotation(0).ints, (std::vector<int64_t>{5, 7}));

  spec.verify_first_unique = true;
  Result<Trie> verified = Trie::Build(spec);
  ASSERT_FALSE(verified.ok());
  EXPECT_EQ(verified.status().code(), StatusCode::kExecutionError);

  // A determined annotation passes the same check.
  tag = {5, 5, 7};
  EXPECT_TRUE(Trie::Build(spec).ok());
}

// Property test: the trie must round-trip an arbitrary multiset of tuples
// into its distinct sorted tuple set with summed annotations.
class TrieRoundTripTest
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(TrieRoundTripTest, MatchesReferenceAggregation) {
  auto [num_rows, universe, num_levels] = GetParam();
  Rng rng(num_rows * 131 + universe * 17 + num_levels);

  std::vector<std::vector<uint32_t>> cols(num_levels);
  std::vector<double> w;
  std::map<std::vector<uint32_t>, double> reference;
  for (int r = 0; r < num_rows; ++r) {
    std::vector<uint32_t> key(num_levels);
    for (int l = 0; l < num_levels; ++l) {
      key[l] = static_cast<uint32_t>(rng.Uniform(universe));
      cols[l].push_back(key[l]);
    }
    double v = rng.UniformDouble(0, 10);
    w.push_back(v);
    reference[key] += v;
  }

  TrieBuildSpec spec;
  for (auto& c : cols) spec.key_codes.push_back(&c);
  TrieAnnotationSpec ann;
  ann.name = "w";
  ann.merge = AnnotationMerge::kSum;
  ann.reals = &w;
  spec.annotations.push_back(ann);
  Trie trie = Trie::Build(spec).ValueOrDie();

  EXPECT_EQ(trie.num_tuples(), reference.size());

  // Walk the trie depth-first and compare tuple-by-tuple with the map.
  std::vector<uint32_t> tuple(num_levels);
  auto it = reference.begin();
  size_t leaves_seen = 0;
  std::function<void(int, uint32_t)> walk = [&](int level, uint32_t set_idx) {
    SetView s = trie.level(level).set(set_idx);
    uint32_t base = trie.level(level).base_rank(set_idx);
    s.ForEach([&](uint32_t v, uint32_t rank) {
      tuple[level] = v;
      if (level + 1 == num_levels) {
        ASSERT_NE(it, reference.end());
        EXPECT_EQ(tuple, it->first);
        EXPECT_NEAR(trie.annotation(0).reals[base + rank], it->second, 1e-9);
        ++it;
        ++leaves_seen;
      } else {
        walk(level + 1, base + rank);
      }
    });
  };
  walk(0, 0);
  EXPECT_EQ(leaves_seen, reference.size());
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, TrieRoundTripTest,
    ::testing::Values(std::make_tuple(1, 4, 1),
                      std::make_tuple(100, 8, 2),
                      std::make_tuple(1000, 16, 3),
                      std::make_tuple(500, 4, 4),
                      std::make_tuple(2000, 1000, 2),
                      std::make_tuple(64, 64, 1)));

}  // namespace
}  // namespace levelheaded
