// Half-open address intervals [lo, hi), and the two operations on a sorted interval vector that
// the phase-group fusion (FusePlans) needs: a merging insert and an overlap test.
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

}  // namespace stalloc

#endif  // SRC_INTERVAL_INTERVAL_H_
