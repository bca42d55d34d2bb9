// FirstFitIndex: the free ranges of an arena (SimDevice's classic cudaMalloc arena, the
// profiler's one-pass placement, the planner's greedy first-fit plan and STAlloc's static pool),
// indexed so the lowest-addressed range that fits is found without walking every free range.
//
// The free ranges, disjoint and non-adjacent, sit in one address-ordered sequence cut into
// chunks of at most kChunkRanges ranges. Two flat summary arrays hold each chunk's lowest start
// and its longest range. With n free ranges and m <= n chunks:
//   * TakeFirstFit(size) scans the chunk summary for the first chunk whose longest range is
//     >= size, and that chunk for its first such range: O(m + kChunkRanges) reads of contiguous
//     memory. Every range skipped is shorter than size, so the range found is exactly the
//     lowest-addressed one with length >= size, the one a linear address-order scan returns;
//   * Insert(lo, hi) is a binary search of the chunk starts, then of one chunk, then an in-chunk
//     insert, or a merge with the free neighbour on either side (the upper neighbour may open
//     the next chunk): O(log n + kChunkRanges). A chunk that would pass kChunkRanges is first
//     split in half, and a chunk left empty is removed, so chunks hold 1..kChunkRanges ranges;
//     both shift the summaries after it (O(m)), once per ~kChunkRanges / 2 new ranges;
//   * a chunk's longest range is re-read only when the range that was its longest shrinks or
//     leaves it (O(kChunkRanges));
//   * TakeRange(lo, hi) carves an exact range: the same two binary searches as Insert, then a
//     shrink of the one free range that covers it, or its split in two (O(log n + kChunkRanges),
//     and O(m) when the split fills a chunk that must itself split);
//   * ForEachFitIn(lo, hi, size, f) walks the free ranges clipped to [lo, hi) in address order,
//     from the two binary searches on, skipping every chunk whose longest range is shorter than
//     size, and stops after a clipped range exactly size long;
//   * total() is a running sum, O(1); largest() is the maximum of the chunk summary, O(m).
// In verify mode (src/common/verify.h, read at construction) every op checks that the range it
// touched is disjoint from, and not adjacent to, its neighbours and that the summaries of every
// chunk it changed are exact; a split or a removal also walks every chunk (order, chunk sizes,
// summaries, total()).

#ifndef SRC_INTERVAL_FIRST_FIT_INDEX_H_
#define SRC_INTERVAL_FIRST_FIT_INDEX_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "src/common/verify.h"

namespace stalloc {

class FirstFitIndex {
 public:
  // Most free ranges one chunk holds.
  static constexpr size_t kChunkRanges = 128;

  // Adds the free range [lo, hi) (lo < hi), coalescing it with a free neighbour on either side.
  // The range must not overlap a range already free.
  void Insert(uint64_t lo, uint64_t hi);

  // Carves `size` (> 0) bytes off the front of the lowest-addressed free range at least `size`
  // long and returns their address; nullopt, with nothing changed, when no range fits.
  std::optional<uint64_t> TakeFirstFit(uint64_t size);

  // Carves exactly [lo, hi) out of the free space. Returns false, with nothing changed, unless
  // lo < hi and one free range covers [lo, hi).
  bool TakeRange(uint64_t lo, uint64_t hi);

  // Calls f(a, b) for each free range clipped to [lo, hi), as [a, b), that is at least `size`
  // (> 0) bytes long, in address order. Stops after the first one exactly `size` long and then
  // returns true; returns false when the walk ran to hi.
  template <typename F>
  bool ForEachFitIn(uint64_t lo, uint64_t hi, uint64_t size, F&& f) const;

  // Total free bytes.
  uint64_t total() const { return total_; }
  // Length of the largest free range (0 when none).
  uint64_t largest() const;

  // Number of chunks: rises only on a split, falls only on a removal.
  size_t num_chunks() const { return chunks_.size(); }

 private:
  struct Range {
    uint64_t lo;
    uint64_t hi;
    uint64_t length() const { return hi - lo; }
  };
  using Chunk = std::vector<Range>;

  // The chunk holding the last range that starts at or below `addr` (chunk 0 when `addr`
  // precedes every range); the index must not be empty.
  size_t ChunkAtOrBelow(uint64_t addr) const {
    const auto after = std::upper_bound(chunk_lo_.begin(), chunk_lo_.end(), addr);
    return after == chunk_lo_.begin() ? 0 : static_cast<size_t>(after - chunk_lo_.begin()) - 1;
  }
  // Re-reads chunk c's lowest start and longest range from its ranges.
  void Resummarize(size_t c);
  // Chunk c's range that was `old_length` long shrank or left it: re-read the chunk's start,
  // and its longest range if that range was its longest.
  void AfterShrink(size_t c, uint64_t old_length);
  // Removes chunk c, which must be empty.
  void RemoveChunk(size_t c);
  // Cuts full chunk c in half; the upper half becomes chunk c + 1.
  void SplitChunk(size_t c);

  // Verify-mode checks: range i of chunk c against its neighbours (across chunk edges too) and
  // chunk c's summaries; one chunk's summaries; and a walk of every chunk.
  void VerifyAround(size_t c, size_t i) const;
  void VerifyChunkSummary(size_t c) const;
  void VerifyAll() const;

  std::vector<Chunk> chunks_;        // address order; each holds 1..kChunkRanges ranges
  std::vector<uint64_t> chunk_lo_;   // chunks_[c].front().lo
  std::vector<uint64_t> chunk_max_;  // longest range length in chunks_[c]
  uint64_t total_ = 0;
  bool verify_ = verify::Enabled();
};

template <typename F>
bool FirstFitIndex::ForEachFitIn(uint64_t lo, uint64_t hi, uint64_t size, F&& f) const {
  if (lo >= hi || chunks_.empty()) {
    return false;
  }
  // Start at the first range ending above lo: in lo's chunk, or the first range of a later one.
  size_t c = ChunkAtOrBelow(lo);
  size_t i = static_cast<size_t>(
      std::upper_bound(chunks_[c].begin(), chunks_[c].end(), lo,
                       [](uint64_t key, const Range& r) { return key < r.hi; }) -
      chunks_[c].begin());
  for (; c < chunks_.size() && chunk_lo_[c] < hi; ++c, i = 0) {
    if (chunk_max_[c] < size) {
      continue;  // every clipped range in it is shorter still
    }
    const Chunk& chunk = chunks_[c];
    for (; i < chunk.size() && chunk[i].lo < hi; ++i) {
      const uint64_t a = std::max(chunk[i].lo, lo);
      const uint64_t b = std::min(chunk[i].hi, hi);
      if (b - a >= size) {
        f(a, b);
        if (b - a == size) {
          return true;
        }
      }
    }
  }
  return false;
}

}  // namespace stalloc

#endif  // SRC_INTERVAL_FIRST_FIT_INDEX_H_
