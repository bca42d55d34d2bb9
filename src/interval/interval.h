// Half-open address intervals [lo, hi), and the three operations the offline planner runs on
// them. Two work on a sorted interval vector: a merging insert and an overlap test (fusion's
// per-item blocked sets in FusePlans). The third, LowestFit, is the planner's one placement walk:
// the lowest offset that no blocking range covers, over ranges sorted by lo that may overlap.
//
// A "sorted interval vector" is ascending by lo, its intervals disjoint, non-adjacent and
// non-empty. Dynamic Reusable Space regions (src/core/dynamic_space.h) are kept in this form too.

#ifndef SRC_INTERVAL_INTERVAL_H_
#define SRC_INTERVAL_INTERVAL_H_

#include <algorithm>
#include <cstdint>
#include <vector>

namespace stalloc {

struct Interval {
  uint64_t lo = 0;
  uint64_t hi = 0;  // exclusive

  uint64_t length() const { return hi - lo; }

  friend bool operator==(const Interval& a, const Interval& b) {
    return a.lo == b.lo && a.hi == b.hi;
  }
};

// Adds [lo, hi) to the sorted interval vector `set`, merging it with every interval it overlaps
// or touches. An empty range (lo >= hi) is a no-op.
inline void InsertMerged(std::vector<Interval>* set, uint64_t lo, uint64_t hi) {
  if (lo >= hi) {
    return;
  }
  // The intervals that end at or after lo form a suffix (ends ascend); the first of them that
  // starts past hi bounds the run to absorb.
  auto first = std::lower_bound(set->begin(), set->end(), lo,
                                [](const Interval& iv, uint64_t x) { return iv.hi < x; });
  auto last = first;
  while (last != set->end() && last->lo <= hi) {
    lo = std::min(lo, last->lo);
    hi = std::max(hi, last->hi);
    ++last;
  }
  if (first == last) {
    set->insert(first, Interval{lo, hi});
    return;
  }
  *first = Interval{lo, hi};
  set->erase(first + 1, last);
}

// True iff some interval of the sorted interval vector `set` overlaps [lo, hi). An empty query
// range overlaps nothing.
inline bool OverlapsAny(const std::vector<Interval>& set, uint64_t lo, uint64_t hi) {
  if (lo >= hi) {
    return false;
  }
  auto it = std::upper_bound(set.begin(), set.end(), lo,
                             [](uint64_t x, const Interval& iv) { return x < iv.hi; });
  return it != set.end() && it->lo < hi;
}

// Lowest offset c such that [c, c + size) meets no range of `ranges` that `blocks` accepts.
// `Range` is any type with lo/hi fields. The ranges need only be ascending by lo: they may
// overlap, nest or share a lo, and their order among equal lo does not change the result. The
// walk raises its cursor to the hi of each blocking range that reaches above it, and stops at
// the first range that starts at or past cursor + size, which every later range does too.
// Packing (PackGroup), fusion's stacking fallback (FusePlans), layer insertion (PlanGlobally)
// and compaction (CompactPlan) all place through it.
template <typename Range, typename Blocks>
uint64_t LowestFit(const std::vector<Range>& ranges, uint64_t size, Blocks blocks) {
  uint64_t cursor = 0;
  for (const Range& r : ranges) {
    if (r.lo >= cursor + size) {
      break;
    }
    if (blocks(r) && r.hi > cursor) {
      cursor = r.hi;
    }
  }
  return cursor;
}

// LowestFit where every range blocks.
template <typename Range>
uint64_t LowestFit(const std::vector<Range>& ranges, uint64_t size) {
  return LowestFit(ranges, size, [](const Range&) { return true; });
}

}  // namespace stalloc

#endif  // SRC_INTERVAL_INTERVAL_H_
