// Sorted interval vectors (src/interval/interval.h): the merging insert and the overlap test.

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

}  // namespace
}  // namespace stalloc
