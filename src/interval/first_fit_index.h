// FirstFitIndex: the free ranges of a first-fit arena (SimDevice's classic cudaMalloc arena, and
// the planner's greedy first-fit plan), indexed so the lowest-addressed range that fits is found
// without walking every free range.
//
// A linear first fit scans ranges in address order until one is long enough, which is linear in
// the number of free ranges and was the whole cost of a DevMalloc on fragmented arenas. Here
// every free range also sits in a size class, ⌊log2(length)⌋, each class ordered by address.
// For a request of `size` in class c:
//   * every range in a class above c is at least 2^(c+1) > size bytes long, so all of them fit,
//     and the lowest-addressed of them is the smallest class minimum — one O(1) read per
//     non-empty class;
//   * no range in a class below c fits (shorter than 2^c <= size);
//   * ranges in class c itself may or may not fit, so class c is scanned in address order, but
//     only below the candidate from the classes above: a fitting range there is lower than it.
// The range picked is therefore exactly the lowest-addressed range with length >= size, the one
// the linear scan returns. A running total makes total() O(1), and largest() reads only
// the top non-empty class.

#ifndef SRC_INTERVAL_FIRST_FIT_INDEX_H_
#define SRC_INTERVAL_FIRST_FIT_INDEX_H_

#include <array>
#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <utility>

namespace stalloc {

class FirstFitIndex {
 public:
  // Adds the free range [lo, hi) (lo < hi), coalescing it with a free neighbour on either side.
  // The range must not overlap a range already free.
  void Insert(uint64_t lo, uint64_t hi);

  // Carves `size` (> 0) bytes off the front of the lowest-addressed free range at least `size`
  // long and returns their address; nullopt, with nothing changed, when no range fits.
  std::optional<uint64_t> TakeFirstFit(uint64_t size);

  // Total free bytes.
  uint64_t total() const { return total_; }
  // Length of the largest free range (0 when none).
  uint64_t largest() const;

 private:
  using Range = std::pair<uint64_t, uint64_t>;  // [first, second)

  static int ClassOf(uint64_t len) { return 63 - __builtin_clzll(len); }
  // Add / remove [lo, hi) in its size class, keeping nonempty_classes_ in step.
  void Classify(uint64_t lo, uint64_t hi);
  void Unclassify(uint64_t lo, uint64_t hi);
  // Moves range [lo, hi) to [new_lo, new_hi) in the size classes, reusing its set node.
  void Reclassify(uint64_t lo, uint64_t hi, uint64_t new_lo, uint64_t new_hi);
  // Re-keys the span at `it` to start at `new_lo`, reusing its node; `new_lo` must keep the
  // span's place in address order.
  void MoveStart(std::map<uint64_t, uint64_t>::iterator it, uint64_t new_lo);

  std::map<uint64_t, uint64_t> spans_;  // every free range, start -> end; disjoint, non-adjacent
  std::array<std::set<Range>, 64> classes_;  // the same ranges by ⌊log2(length)⌋, address order
  uint64_t nonempty_classes_ = 0;            // bit k set iff classes_[k] is non-empty
  uint64_t total_ = 0;
};

}  // namespace stalloc

#endif  // SRC_INTERVAL_FIRST_FIT_INDEX_H_
