// FirstFitIndex (src/interval/first_fit_index.h) against a linear first-fit reference: every
// TakeFirstFit result, total() and largest() after every op, with verify mode on and off, at a
// size (>= 10k free ranges at once) where chunks split, empty chunks go and frees coalesce
// across chunk edges. Those paths are seen from outside through num_chunks(): it rises only on
// a split and falls only on a removal, and an Insert removes a chunk only when it joins its
// lower neighbour with the sole range of the next chunk, a join across a chunk edge. The exact
// carve (TakeRange) and the clipped walk (ForEachFitIn) run against the same reference, with
// carves that split a full chunk, carves that span two free ranges and carves at the arena end.

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

  bool TakeRange(uint64_t lo, uint64_t hi) {
    if (lo >= hi) {
      return false;
    }
    auto it = free_.upper_bound(lo);
    if (it == free_.begin()) {
      return false;
    }
    --it;
    const auto [a, b] = *it;
    if (b < hi) {
      return false;
    }
    Forget(a, b);
    free_.erase(it);
    if (a < lo) {
      free_.emplace(a, lo);
      lengths_.insert(lo - a);
    }
    if (hi < b) {
      free_.emplace(hi, b);
      lengths_.insert(b - hi);
    }
    total_ -= hi - lo;
    return true;
  }

  // Every free range clipped to [lo, hi) and at least `size` long, in address order, up to and
  // including the first one exactly `size` long; *exact says whether that one was reached.
  std::vector<std::pair<uint64_t, uint64_t>> FitsIn(uint64_t lo, uint64_t hi, uint64_t size,
                                                    bool* exact) const {
    std::vector<std::pair<uint64_t, uint64_t>> fits;
    *exact = false;
    for (const auto& [a, b] : free_) {
      const uint64_t clip_lo = std::max(a, lo);
      const uint64_t clip_hi = std::min(b, hi);
      if (clip_lo < clip_hi && clip_hi - clip_lo >= size) {
        fits.emplace_back(clip_lo, clip_hi);
        if (clip_hi - clip_lo == size) {
          *exact = true;
          break;
        }
      }
    }
    return fits;
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

// The index's walk of [lo, hi) for `size`, collected, against the reference's.
void ExpectSameFits(const FirstFitIndex& index, const LinearFirstFit& ref, uint64_t lo,
                    uint64_t hi, uint64_t size) {
  std::vector<std::pair<uint64_t, uint64_t>> got;
  const bool got_exact =
      index.ForEachFitIn(lo, hi, size, [&](uint64_t a, uint64_t b) { got.emplace_back(a, b); });
  bool want_exact = false;
  const auto want = ref.FitsIn(lo, hi, size, &want_exact);
  ASSERT_EQ(got, want) << "walk [" << lo << ", " << hi << ") for " << size;
  ASSERT_EQ(got_exact, want_exact) << "walk [" << lo << ", " << hi << ") for " << size;
}

struct CarveOutcome {
  uint64_t middle_carves = 0;  // carves that left free space on both sides
  uint64_t full_splits = 0;    // carves that split a full chunk
  uint64_t exact_carves = 0;   // carves that took a whole free range, before the drain
  uint64_t spanning_rejects = 0;  // carves across two free ranges, rejected
  uint64_t removals = 0;       // carves that emptied a chunk
};

// One seeded walk of exact carves and frees over a 2^40-byte arena: carves inside one free
// range (front, back, middle or whole), carves that span two free ranges or reach past the
// arena end (rejected), random carves, and after every op a clipped walk of a random window for
// a random size, all against the reference.
void RunCarveDifferential(bool verify_on, CarveOutcome* out) {
  ScopedVerify scoped(verify_on);
  constexpr uint64_t kArena = uint64_t{1} << 40;
  FirstFitIndex index;
  LinearFirstFit ref;
  index.Insert(0, kArena);
  ref.Insert(0, kArena);
  Rng rng(2031);
  std::vector<Block> live;

  auto carve = [&](uint64_t lo, uint64_t hi, uint64_t step) {
    const size_t chunks_before = index.num_chunks();
    const bool want = ref.TakeRange(lo, hi);
    const bool got = index.TakeRange(lo, hi);
    ASSERT_EQ(got, want) << "carve [" << lo << ", " << hi << ") at " << step;
    if (want) {
      live.push_back(Block{lo, hi - lo});
    }
    if (index.num_chunks() > chunks_before) {
      ++out->full_splits;
    } else if (index.num_chunks() < chunks_before) {
      ++out->removals;
    }
  };
  auto check = [&](uint64_t step) {
    ASSERT_EQ(index.total(), ref.total()) << step;
    ASSERT_EQ(index.largest(), ref.largest()) << step;
    const uint64_t lo = rng.NextBelow(kArena);
    const uint64_t hi = lo + rng.NextInRange(1, kArena / 64);
    ExpectSameFits(index, ref, lo, hi, rng.NextInRange(1, 64) * 512);
  };
  // A free range picked at random: its index in address order, then its bounds.
  auto pick_free = [&]() {
    const uint64_t tail = ref.ranges().rbegin()->first;
    auto it = ref.ranges().upper_bound(rng.NextBelow(tail + 1));
    return *std::prev(it);
  };

  for (uint64_t step = 0; step < 20000; ++step) {
    const uint64_t dice = rng.NextBelow(100);
    if (ref.ranges().empty() || (dice >= 85 && !live.empty())) {
      const size_t pick = rng.NextBelow(live.size());
      const Block b = live[pick];
      live[pick] = live.back();
      live.pop_back();
      ref.Insert(b.addr, b.addr + b.size);
      index.Insert(b.addr, b.addr + b.size);
    } else if (dice < 55) {  // the middle of a free range, or one of its ends
      const auto [a, b] = pick_free();
      const uint64_t length = std::min<uint64_t>(rng.NextInRange(1, 32) * 512, b - a);
      const uint64_t at = a + rng.NextBelow((b - a - length) / 512 + 1) * 512;
      out->middle_carves += at > a && at + length < b ? 1 : 0;
      carve(at, at + length, step);
    } else if (dice < 65) {  // a whole free range
      const auto [a, b] = pick_free();
      ++out->exact_carves;
      carve(a, b, step);
    } else if (dice < 72 && ref.ranges().size() >= 2) {  // across the gap after a free range
      auto [a, b] = pick_free();
      auto next = ref.ranges().upper_bound(a);
      if (next == ref.ranges().end()) {
        continue;
      }
      ++out->spanning_rejects;
      carve(b - a > 512 ? b - 512 : a, next->first + 1, step);
    } else if (dice < 75) {  // the arena end: the last 512 bytes, or past the end
      const uint64_t over = rng.NextBelow(2);
      carve(kArena - 512, kArena + over, step);
    } else {  // anywhere
      const uint64_t lo = rng.NextBelow(kArena);
      carve(lo, lo + rng.NextInRange(1, 1 << 20), step);
    }
    if (::testing::Test::HasFatalFailure()) {
      return;
    }
    check(step);
    if (::testing::Test::HasFatalFailure()) {
      return;
    }
  }
  // Carve every free range whole, in random order: chunks empty and go. Then free everything.
  for (uint64_t step = 0; !ref.ranges().empty(); ++step) {
    const auto [a, b] = pick_free();
    carve(a, b, step);
    ASSERT_EQ(index.total(), ref.total()) << step;
    ASSERT_EQ(index.largest(), ref.largest()) << step;
  }
  EXPECT_EQ(index.num_chunks(), 0u);
  for (const Block& b : live) {
    ref.Insert(b.addr, b.addr + b.size);
    index.Insert(b.addr, b.addr + b.size);
  }
  EXPECT_EQ(index.total(), kArena);
  EXPECT_EQ(index.num_chunks(), 1u);
}

void ExpectEveryCarvePath(const CarveOutcome& out) {
  EXPECT_GT(out.middle_carves, 0u);
  EXPECT_GT(out.full_splits, 0u);
  EXPECT_GT(out.exact_carves, 0u);
  EXPECT_GT(out.spanning_rejects, 0u);
  EXPECT_GT(out.removals, 0u);
}

TEST(FirstFitIndex, TakeRangeAndWalkMatchReferenceWithVerifyOn) {
  CarveOutcome out;
  RunCarveDifferential(/*verify_on=*/true, &out);
  if (!HasFatalFailure()) {
    ExpectEveryCarvePath(out);
  }
}

TEST(FirstFitIndex, TakeRangeAndWalkMatchReferenceWithVerifyOff) {
  CarveOutcome out;
  RunCarveDifferential(/*verify_on=*/false, &out);
  if (!HasFatalFailure()) {
    ExpectEveryCarvePath(out);
  }
}

// The named edge cases, with verify mode on and off: a middle carve that splits a full chunk, a
// carve spanning two free ranges, and carves at the end of the arena.
TEST(FirstFitIndex, TakeRangeEdges) {
  for (const bool verify_on : {true, false}) {
    SCOPED_TRACE(verify_on ? "verify on" : "verify off");
    ScopedVerify scoped(verify_on);
    FirstFitIndex index;
    LinearFirstFit ref;
    // kChunkRanges ranges [10k, 10k + 8) in one chunk, the last one ending the arena.
    const uint64_t n = FirstFitIndex::kChunkRanges;
    for (uint64_t k = 0; k < n; ++k) {
      index.Insert(10 * k, 10 * k + 8);
      ref.Insert(10 * k, 10 * k + 8);
    }
    const uint64_t end = 10 * (n - 1) + 8;
    ASSERT_EQ(index.num_chunks(), 1u);
    // The middle of a range of the full chunk: two ranges from one, and the chunk splits.
    EXPECT_TRUE(index.TakeRange(10 * 3 + 2, 10 * 3 + 5));
    EXPECT_TRUE(ref.TakeRange(10 * 3 + 2, 10 * 3 + 5));
    EXPECT_EQ(index.num_chunks(), 2u);
    // Across the gap between two ranges, and over a carved hole: rejected, nothing changes.
    EXPECT_FALSE(index.TakeRange(10 * 5 + 6, 10 * 6 + 2));
    EXPECT_FALSE(index.TakeRange(10 * 3 + 1, 10 * 3 + 3));
    EXPECT_FALSE(index.TakeRange(10 * 7, 10 * 7));  // empty
    // The arena end: past it rejected, its last byte and then the rest of the last range taken.
    EXPECT_FALSE(index.TakeRange(end - 1, end + 1));
    EXPECT_TRUE(index.TakeRange(end - 1, end));
    EXPECT_TRUE(ref.TakeRange(end - 1, end));
    EXPECT_TRUE(index.TakeRange(end - 8, end - 1));
    EXPECT_TRUE(ref.TakeRange(end - 8, end - 1));
    EXPECT_FALSE(index.TakeRange(end - 8, end - 7));
    // Below every range: rejected.
    index.TakeRange(0, 8);
    ref.TakeRange(0, 8);
    EXPECT_FALSE(index.TakeRange(0, 1));
    EXPECT_EQ(index.total(), ref.total());
    EXPECT_EQ(index.largest(), ref.largest());
    for (uint64_t size : {1, 3, 5, 8, 9}) {
      ExpectSameFits(index, ref, 0, end, size);
      ExpectSameFits(index, ref, 10 * 3 + 3, 10 * 90 + 4, size);
    }
  }
}

}  // namespace
}  // namespace stalloc
