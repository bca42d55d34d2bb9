// Intervals (src/interval/interval.h): the merging insert and the overlap test on sorted interval
// vectors, and the lowest-fit walk over lo-sorted ranges that may overlap.

#include "src/interval/interval.h"

#include <algorithm>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/rng.h"

namespace stalloc {
namespace {

using Intervals = std::vector<Interval>;

TEST(InsertMerged, InsertBasic) {
  Intervals set;
  InsertMerged(&set, 10, 20);
  EXPECT_EQ(set, (Intervals{{10, 20}}));
  EXPECT_EQ(set[0].length(), 10u);
}

TEST(InsertMerged, InsertEmptyRangeIsNoop) {
  Intervals set;
  InsertMerged(&set, 10, 10);
  InsertMerged(&set, 20, 10);
  EXPECT_TRUE(set.empty());
}

TEST(InsertMerged, InsertKeepsAddressOrder) {
  Intervals set;
  InsertMerged(&set, 40, 50);
  InsertMerged(&set, 0, 10);
  InsertMerged(&set, 20, 30);
  EXPECT_EQ(set, (Intervals{{0, 10}, {20, 30}, {40, 50}}));
}

TEST(InsertMerged, InsertMergesOverlapping) {
  Intervals set;
  InsertMerged(&set, 10, 20);
  InsertMerged(&set, 15, 30);
  EXPECT_EQ(set, (Intervals{{10, 30}}));
}

TEST(InsertMerged, InsertMergesAdjacent) {
  Intervals set;
  InsertMerged(&set, 10, 20);
  InsertMerged(&set, 20, 30);
  EXPECT_EQ(set, (Intervals{{10, 30}}));
}

TEST(InsertMerged, InsertBridgesMultiple) {
  Intervals set;
  InsertMerged(&set, 0, 10);
  InsertMerged(&set, 20, 30);
  InsertMerged(&set, 40, 50);
  InsertMerged(&set, 60, 70);
  InsertMerged(&set, 5, 45);
  EXPECT_EQ(set, (Intervals{{0, 50}, {60, 70}}));
}

TEST(InsertMerged, AdjacentInsertsMergeFromBothSides) {
  Intervals set;
  InsertMerged(&set, 20, 30);
  InsertMerged(&set, 10, 20);  // adjacent below
  InsertMerged(&set, 30, 40);  // adjacent above
  EXPECT_EQ(set, (Intervals{{10, 40}}));
  // Exactly plugging a hole must also collapse to one span.
  set = {{10, 20}, {30, 40}};
  InsertMerged(&set, 20, 30);
  EXPECT_EQ(set, (Intervals{{10, 40}}));
}

TEST(InsertMerged, ZeroLengthInsertInsideExistingSpanIsNoop) {
  Intervals set;
  InsertMerged(&set, 10, 20);
  InsertMerged(&set, 15, 15);  // zero-length, interior
  InsertMerged(&set, 10, 10);  // zero-length, at the left edge
  InsertMerged(&set, 20, 20);  // zero-length, at the right edge
  EXPECT_EQ(set, (Intervals{{10, 20}}));
}

TEST(OverlapsAny, Edges) {
  const Intervals set = {{10, 20}};
  EXPECT_FALSE(OverlapsAny(set, 0, 10));   // touching below
  EXPECT_FALSE(OverlapsAny(set, 20, 30));  // touching above
  EXPECT_TRUE(OverlapsAny(set, 19, 25));
  EXPECT_TRUE(OverlapsAny(set, 5, 11));
  EXPECT_TRUE(OverlapsAny(set, 12, 15));
  EXPECT_TRUE(OverlapsAny(set, 0, 100));  // strict superset
  EXPECT_FALSE(OverlapsAny(Intervals{}, 0, 100));
}

TEST(OverlapsAny, EmptyQueryRangeOverlapsNothing) {
  const Intervals set = {{10, 20}};
  // Half-open [x, x) is empty: never overlapping.
  EXPECT_FALSE(OverlapsAny(set, 15, 15));
}

TEST(OverlapsAny, QueryBetweenSpans) {
  const Intervals set = {{0, 10}, {20, 30}, {40, 50}};
  EXPECT_FALSE(OverlapsAny(set, 10, 20));
  EXPECT_FALSE(OverlapsAny(set, 30, 40));
  EXPECT_TRUE(OverlapsAny(set, 29, 41));
  EXPECT_TRUE(OverlapsAny(set, 35, 41));
}

// ----- property test: the helpers vs a dense boolean reference model -----

class SortedIntervalsPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SortedIntervalsPropertyTest, MatchesReferenceModel) {
  constexpr uint64_t kUniverse = 256;
  Rng rng(GetParam());
  for (int round = 0; round < 20; ++round) {
    Intervals set;
    std::vector<bool> model(kUniverse, false);
    for (int step = 0; step < 24; ++step) {
      const uint64_t lo = rng.NextBelow(kUniverse);
      const uint64_t hi = lo + rng.NextBelow(std::min<uint64_t>(32, kUniverse - lo) + 1);
      InsertMerged(&set, lo, hi);
      for (uint64_t i = lo; i < hi; ++i) {
        model[i] = true;
      }
      // The vector is exactly the maximal runs of the model: sorted, disjoint, non-adjacent.
      Intervals runs;
      for (uint64_t i = 0; i < kUniverse; ++i) {
        if (!model[i]) {
          continue;
        }
        if (!runs.empty() && runs.back().hi == i) {
          ++runs.back().hi;
        } else {
          runs.push_back({i, i + 1});
        }
      }
      ASSERT_EQ(set, runs) << "round " << round << " step " << step;
      for (int probe = 0; probe < 16; ++probe) {
        const uint64_t qlo = rng.NextBelow(kUniverse);
        const uint64_t qhi = qlo + rng.NextBelow(kUniverse - qlo + 1);
        bool expected = false;
        for (uint64_t i = qlo; i < qhi; ++i) {
          expected = expected || model[i];
        }
        ASSERT_EQ(OverlapsAny(set, qlo, qhi), expected)
            << "round " << round << " step " << step << " query [" << qlo << ", " << qhi << ")";
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SortedIntervalsPropertyTest, ::testing::Values(1, 2, 3, 42, 1234));

// ----- LowestFit: the planner's placement walk -----

// A range with a per-range verdict, for the predicate form.
struct Tagged {
  uint64_t lo = 0;
  uint64_t hi = 0;
  bool blocks = true;
};

bool TaggedBlocks(const Tagged& r) { return r.blocks; }

TEST(LowestFit, EmptyRangesFitAtZero) {
  EXPECT_EQ(LowestFit(Intervals{}, 64), 0u);
}

TEST(LowestFit, FitsInTheFirstGapThatIsLargeEnough) {
  const Intervals ranges = {{0, 10}, {14, 20}, {40, 50}};
  EXPECT_EQ(LowestFit(ranges, 4), 10u);   // [10, 14) exactly
  EXPECT_EQ(LowestFit(ranges, 5), 20u);   // the 4-byte gap is too small
  EXPECT_EQ(LowestFit(ranges, 20), 20u);  // [20, 40) exactly
  EXPECT_EQ(LowestFit(ranges, 21), 50u);  // past every range
}

TEST(LowestFit, OverlappingAndNestedRanges) {
  // [0, 30) covers [5, 10); [25, 35) overlaps it. The walk must not fall back to 10.
  const Intervals ranges = {{0, 30}, {5, 10}, {25, 35}, {60, 70}};
  EXPECT_EQ(LowestFit(ranges, 8), 35u);
  EXPECT_EQ(LowestFit(ranges, 26), 70u);
}

TEST(LowestFit, EqualLoInEitherOrder) {
  EXPECT_EQ(LowestFit(Intervals{{0, 8}, {0, 16}, {20, 30}}, 4), 16u);
  EXPECT_EQ(LowestFit(Intervals{{0, 16}, {0, 8}, {20, 30}}, 4), 16u);
  EXPECT_EQ(LowestFit(Intervals{{0, 16}, {0, 8}, {20, 30}}, 5), 30u);
}

TEST(LowestFit, DeclinedRangesDoNotBlock) {
  const std::vector<Tagged> ranges = {{0, 10, true}, {10, 40, false}, {40, 50, true}};
  EXPECT_EQ(LowestFit(ranges, 30, TaggedBlocks), 10u);
  // Without the predicate the declined range would push the fit past every range.
  EXPECT_EQ(LowestFit(ranges, 30), 50u);
}

// Brute force: the lowest candidate among 0 and every range's hi whose [c, c + size) meets no
// blocking range.
uint64_t LowestFitReference(const std::vector<Tagged>& ranges, uint64_t size) {
  std::vector<uint64_t> candidates = {0};
  for (const Tagged& r : ranges) {
    candidates.push_back(r.hi);
  }
  std::sort(candidates.begin(), candidates.end());
  for (uint64_t c : candidates) {
    bool free = true;
    for (const Tagged& r : ranges) {
      free = free && !(r.blocks && r.lo < c + size && c < r.hi);
    }
    if (free) {
      return c;
    }
  }
  ADD_FAILURE() << "no candidate fits; the largest hi always should";
  return 0;
}

class LowestFitPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(LowestFitPropertyTest, MatchesBruteForce) {
  constexpr uint64_t kUniverse = 128;
  Rng rng(GetParam());
  // How often each case the walk must get right came up, so a weak seed cannot pass vacuously.
  int equal_lo = 0, overlapping = 0, declined_mattered = 0, past_every_range = 0;
  for (int trial = 0; trial < 2000; ++trial) {
    std::vector<Tagged> ranges(rng.NextBelow(12));
    for (Tagged& r : ranges) {
      r.lo = rng.NextBelow(kUniverse);
      r.hi = r.lo + 1 + rng.NextBelow(24);
      r.blocks = rng.NextBelow(3) != 0;
    }
    std::sort(ranges.begin(), ranges.end(),
              [](const Tagged& x, const Tagged& y) { return x.lo < y.lo; });
    const uint64_t size = 1 + rng.NextBelow(32);

    const uint64_t got = LowestFit(ranges, size, TaggedBlocks);
    ASSERT_EQ(got, LowestFitReference(ranges, size)) << "trial " << trial << " size " << size;
    // The order among equal lo does not matter: reverse each run of equal lo and walk again.
    std::vector<Tagged> reordered = ranges;
    for (size_t i = 0; i < reordered.size();) {
      size_t j = i;
      while (j < reordered.size() && reordered[j].lo == reordered[i].lo) {
        ++j;
      }
      equal_lo += j - i > 1;
      std::reverse(reordered.begin() + i, reordered.begin() + j);
      i = j;
    }
    ASSERT_EQ(LowestFit(reordered, size, TaggedBlocks), got) << "trial " << trial;

    uint64_t max_hi = 0;
    for (size_t i = 0; i < ranges.size(); ++i) {
      max_hi = std::max(max_hi, ranges[i].hi);
      overlapping += i > 0 && ranges[i].lo < ranges[i - 1].hi;
    }
    past_every_range += !ranges.empty() && got == max_hi;
    std::vector<Tagged> all_block = ranges;
    for (Tagged& r : all_block) {
      r.blocks = true;
    }
    const uint64_t got_all = LowestFit(ranges, size);
    ASSERT_EQ(got_all, LowestFitReference(all_block, size)) << "trial " << trial;
    declined_mattered += got_all != got;
  }
  EXPECT_GT(equal_lo, 0);
  EXPECT_GT(overlapping, 0);
  EXPECT_GT(declined_mattered, 0);
  EXPECT_GT(past_every_range, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, LowestFitPropertyTest, ::testing::Values(1, 2, 3, 42, 1234));

}  // namespace
}  // namespace stalloc
