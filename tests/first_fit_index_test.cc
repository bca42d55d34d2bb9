// FirstFitIndex (src/interval/first_fit_index.h) against a linear first-fit reference: every
// TakeFirstFit result, total() and largest() after every op, with verify mode on and off, at a
// size (>= 10k free ranges at once) where chunks split, empty chunks go and frees coalesce
// across chunk edges. Those paths are seen from outside through num_chunks(): it rises only on
// a split and falls only on a removal, and an Insert removes a chunk only when it joins its
// lower neighbour with the sole range of the next chunk, a join across a chunk edge.

#include "src/interval/first_fit_index.h"

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <map>
#include <optional>
#include <set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "tests/support/scoped_verify.h"

namespace stalloc {
namespace {

// The free ranges in a std::map (start -> end), merged on insert, searched by a linear walk in
// address order; lengths in a multiset for largest().
class LinearFirstFit {
 public:
  void Insert(uint64_t lo, uint64_t hi) {
    total_ += hi - lo;
    auto next = free_.lower_bound(lo);
    if (next != free_.end() && next->first == hi) {
      hi = next->second;
      Forget(next->first, next->second);
      next = free_.erase(next);
    }
    if (next != free_.begin()) {
      auto prev = std::prev(next);
      if (prev->second == lo) {
        lo = prev->first;
        Forget(prev->first, prev->second);
        free_.erase(prev);
      }
    }
    free_.emplace(lo, hi);
    lengths_.insert(hi - lo);
  }

  std::optional<uint64_t> TakeFirstFit(uint64_t size) {
    for (auto it = free_.begin(); it != free_.end(); ++it) {
      const auto [lo, hi] = *it;
      if (hi - lo < size) {
        continue;
      }
      Forget(lo, hi);
      free_.erase(it);
      if (lo + size < hi) {
        free_.emplace(lo + size, hi);
        lengths_.insert(hi - lo - size);
      }
      total_ -= size;
      return lo;
    }
    return std::nullopt;
  }

  uint64_t total() const { return total_; }
  uint64_t largest() const { return lengths_.empty() ? 0 : *lengths_.rbegin(); }
  const std::map<uint64_t, uint64_t>& ranges() const { return free_; }

 private:
  void Forget(uint64_t lo, uint64_t hi) { lengths_.erase(lengths_.find(hi - lo)); }

  std::map<uint64_t, uint64_t> free_;
  std::multiset<uint64_t> lengths_;
  uint64_t total_ = 0;
};

struct Block {
  uint64_t addr;
  uint64_t size;
};

struct WalkOutcome {
  size_t max_ranges = 0;          // most free ranges held at once
  size_t max_chunks = 0;          // most chunks at once
  uint64_t removals_on_take = 0;  // takes that emptied a chunk
  uint64_t removals_on_free = 0;  // frees that joined across a chunk edge and emptied a chunk
};

// One seeded walk: fragment the arena into >= 10k free ranges, churn it with takes (some exact
// fits, some too large for any range) and random frees, then free everything.
void RunDifferential(bool verify_on, WalkOutcome* out) {
  ScopedVerify scoped(verify_on);
  constexpr uint64_t kArena = uint64_t{1} << 40;
  FirstFitIndex index;
  LinearFirstFit ref;
  index.Insert(0, kArena);
  ref.Insert(0, kArena);
  Rng rng(2029);
  std::vector<Block> live;

  // `chunks_before` is num_chunks() before the op.
  auto check = [&](const char* what, uint64_t step, size_t chunks_before, uint64_t* removals) {
    ASSERT_EQ(index.total(), ref.total()) << what << " " << step;
    ASSERT_EQ(index.largest(), ref.largest()) << what << " " << step;
    out->max_ranges = std::max(out->max_ranges, ref.ranges().size());
    out->max_chunks = std::max(out->max_chunks, index.num_chunks());
    if (index.num_chunks() < chunks_before) {
      ++*removals;
    }
  };
  auto take = [&](uint64_t size, uint64_t step) {
    const size_t chunks_before = index.num_chunks();
    const std::optional<uint64_t> want = ref.TakeFirstFit(size);
    const std::optional<uint64_t> got = index.TakeFirstFit(size);
    ASSERT_EQ(got, want) << "take " << size << " at " << step;
    if (want.has_value()) {
      live.push_back(Block{*want, size});
    }
    check("take", step, chunks_before, &out->removals_on_take);
  };
  auto free_random = [&](uint64_t step) {
    const size_t pick = rng.NextBelow(live.size());
    const Block b = live[pick];
    live[pick] = live.back();
    live.pop_back();
    const size_t chunks_before = index.num_chunks();
    ref.Insert(b.addr, b.addr + b.size);
    index.Insert(b.addr, b.addr + b.size);
    check("free", step, chunks_before, &out->removals_on_free);
  };

  // Fill with small blocks, then free about half of them at random: ~N/4 isolated holes.
  for (uint64_t step = 0; step < 48000; ++step) {
    take(rng.NextInRange(1, 64) * 512, step);
  }
  for (uint64_t step = 0; step < 24000; ++step) {
    free_random(step);
  }
  ASSERT_GE(ref.ranges().size(), 10000u);
  // Churn: small takes, a few large ones, exact fits of a hole, a few takes no range fits, and
  // random frees.
  for (uint64_t step = 0; step < 60000; ++step) {
    const uint64_t dice = rng.NextBelow(1000);
    if (dice < 450 || live.empty()) {
      take(rng.NextInRange(1, 32) * 512, step);
    } else if (dice < 460) {
      take(rng.NextInRange(33, 256) * 512, step);  // past most holes, often to the free tail
    } else if (dice < 550) {
      // A hole in the lowest sixteenth below the free tail (the reference walks up to it).
      const uint64_t tail = ref.ranges().rbegin()->first;
      const auto hole = ref.ranges().lower_bound(rng.NextBelow(tail / 16 + 1));
      take(hole->second - hole->first, step);  // an exact fit, unless a lower range fits too
    } else if (dice < 553) {
      take(ref.largest() + 1, step);  // fits nowhere: the summary scan runs to the end
    } else {
      free_random(step);
    }
  }
  // Drain: everything coalesces back into one range, and emptied chunks go.
  for (uint64_t step = 0; !live.empty(); ++step) {
    free_random(step);
  }
  ASSERT_EQ(ref.ranges().size(), 1u);
  EXPECT_EQ(index.total(), kArena);
  EXPECT_EQ(index.num_chunks(), 1u);
}

// The walk must have reached every path the index has: chunk splits (more than one chunk; the
// index is never empty), removals on a take, and joins across a chunk edge (removals on a free).
void ExpectEveryPath(const WalkOutcome& out) {
  EXPECT_GE(out.max_ranges, 10000u);
  EXPECT_GT(out.max_chunks, 1u);
  EXPECT_GT(out.removals_on_take, 0u);
  EXPECT_GT(out.removals_on_free, 0u);
}

TEST(FirstFitIndex, MatchesLinearReferenceWithVerifyOn) {
  WalkOutcome out;
  RunDifferential(/*verify_on=*/true, &out);
  if (!HasFatalFailure()) {
    ExpectEveryPath(out);
  }
}

TEST(FirstFitIndex, MatchesLinearReferenceWithVerifyOff) {
  WalkOutcome out;
  RunDifferential(/*verify_on=*/false, &out);
  if (!HasFatalFailure()) {
    ExpectEveryPath(out);
  }
}

// A free that touches both neighbours joins all three, across a chunk edge as well as inside a
// chunk; an empty index and a range below every other one start and extend chunk 0.
TEST(FirstFitIndex, CoalescesOnBothSidesAcrossAChunkEdge) {
  FirstFitIndex index;
  EXPECT_EQ(index.largest(), 0u);
  EXPECT_EQ(index.TakeFirstFit(1), std::nullopt);
  // 2 * kChunkRanges + 1 unit ranges at even addresses 2, 4, ...: at least one split.
  const uint64_t n = 2 * FirstFitIndex::kChunkRanges + 1;
  for (uint64_t k = n; k >= 1; --k) {
    index.Insert(2 * k, 2 * k + 1);
  }
  EXPECT_GT(index.num_chunks(), 1u);
  EXPECT_EQ(index.total(), n);
  EXPECT_EQ(index.largest(), 1u);
  // Fill every gap: the whole sequence becomes one range [2, 2n + 1). Only frees run, so the
  // chunks that go are removed by joins across a chunk edge.
  for (uint64_t k = 1; k < n; ++k) {
    index.Insert(2 * k + 1, 2 * k + 2);
  }
  EXPECT_EQ(index.num_chunks(), 1u);
  EXPECT_EQ(index.largest(), 2 * n - 1);
  index.Insert(0, 1);  // below everything, not adjacent
  EXPECT_EQ(index.TakeFirstFit(1), std::optional<uint64_t>(0));
  EXPECT_EQ(index.TakeFirstFit(2 * n - 1), std::optional<uint64_t>(2));
  EXPECT_EQ(index.total(), 0u);
  EXPECT_EQ(index.num_chunks(), 0u);
}

}  // namespace
}  // namespace stalloc
