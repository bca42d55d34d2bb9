// BlockArena: the block ledger shared by the caching-style allocators (torch-caching, GMLake,
// torch-expandable, vmm), and BestFitIndex, the free-space index inside it.
//
// The arena holds address-ordered blocks carved from segments. Every segment belongs to one
// caller-chosen pool, and each pool's free blocks sit in one BestFitIndex. Taking a block picks
// the best fit of its pool and splits off the tail; releasing one coalesces it with its free
// neighbours in the same segment only, so address-adjacent segments never merge. Block records
// live in a slot pool threaded into per-segment doubly-linked lists in address order (as in
// upstream PyTorch), with a flat AddrMap from address to slot: a release is one hash probe, a
// take one index pop plus the probe for the popped block.
//
// BestFitIndex: a free block is the pair (size, addr). Best-fit selection — smallest sufficient size, then
// lowest address — used to walk one flat ordered set over *all* free blocks; under training
// workloads thousands of cached blocks share few sizes, so that tree was deep and the
// lower_bound/insert walks dominated the whole simulator's hot path.
//
// BestFitIndex buckets free blocks by size: a flat sorted size vector (binary search over
// contiguous memory) parallel to per-size address vectors sorted descending, so the best
// (lowest) address of a bucket is an O(1) pop_back. Buckets are kept alive when they empty, so
// a recurring size revives its bucket allocation-free, and lower_bound walks to the first
// *non-empty* bucket.
//
// Request sizes are few (a few dozen rounded sizes recur, §2.3 Fig. 3); free-block sizes are
// not: every split leaves a remainder of a new size, and coalescing makes more — 24,002 distinct
// free-block sizes on the perfbench cluster-day workload, 3,506 on train-fig8. Kept alive
// forever, those empties turned every pop into a walk over hundreds of dead buckets. So empty
// buckets are dropped in one stable pass as soon as they outnumber the live ones and exceed a
// floor of kMinCompactEmpties: the size array never holds more than
// 2 × non-empty + kMinCompactEmpties buckets, and each pass is paid for by the pops and erases
// that emptied its buckets (amortized O(1)). Compaction removes empty buckets only, so the
// block each PopBestFit picks is bit-identical to what lower_bound on the flat (size, addr) set
// it replaces would have picked.

#ifndef SRC_ALLOCATORS_FREE_INDEX_H_
#define SRC_ALLOCATORS_FREE_INDEX_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <utility>
#include <vector>

#include "src/common/addr_map.h"
#include "src/common/check.h"
#include "src/common/verify.h"

namespace stalloc {

class BestFitIndex {
 public:
  // A free block of `size` bytes at `addr`. (size, addr) pairs must be unique.
  void Insert(uint64_t size, uint64_t addr) {
    Bucket& b = BucketFor(size);
    // Descending order keeps the best (lowest) address at the back. The common case is a block
    // freed straight back after a PopBestFit took the bucket's minimum — its address is below
    // everything still in the bucket, so it belongs at the tail with no search at all.
    if (b.empty() || addr < b.back()) {
      if (b.empty()) {
        --empty_buckets_;  // a kept-alive (or newborn) bucket revives
      }
      b.push_back(addr);
      ++count_;
      return;
    }
    // Same-size blocks are typically freed high-to-low, so the binary search usually resolves
    // to one end of a short vector.
    auto it = std::upper_bound(b.begin(), b.end(), addr, std::greater<uint64_t>());
    // In descending order every element at/after `it` is < addr; a duplicate would sit just
    // before the insertion point.
    STALLOC_DCHECK(it == b.begin() || *(it - 1) != addr,
                   << "free index: duplicate block (" << size << ", " << addr << ")");
    b.insert(it, addr);
    ++count_;
  }

  // Removes a block known to be present (e.g. a neighbour being coalesced away).
  void Erase(uint64_t size, uint64_t addr) {
    const size_t pos = LowerBound(size);
    STALLOC_CHECK(pos < sizes_.size() && sizes_[pos] == size,
                  << "free index: erase of unknown size " << size);
    Bucket& b = buckets_[pos];
    auto it = std::lower_bound(b.begin(), b.end(), addr, std::greater<uint64_t>());
    STALLOC_CHECK(it != b.end() && *it == addr,
                  << "free index: erase of unknown block (" << size << ", " << addr << ")");
    b.erase(it);
    --count_;
    if (b.empty()) {
      OnBucketEmptied();
    }
  }

  // Removes and returns the best fit for `min_size`: the lowest-addressed block of the smallest
  // size >= min_size, exactly the block lower_bound found in the flat-set representation.
  std::optional<std::pair<uint64_t, uint64_t>> PopBestFit(uint64_t min_size) {
    for (size_t pos = LowerBound(min_size); pos < sizes_.size(); ++pos) {
      Bucket& b = buckets_[pos];
      if (b.empty()) {
        continue;  // kept-alive empty bucket
      }
      const std::pair<uint64_t, uint64_t> best{sizes_[pos], b.back()};
      b.pop_back();
      --count_;
      if (b.empty()) {
        OnBucketEmptied();
      }
      return best;
    }
    return std::nullopt;
  }

  // Best fit without removal (telemetry / tests).
  std::optional<std::pair<uint64_t, uint64_t>> BestFit(uint64_t min_size) const {
    for (size_t pos = LowerBound(min_size); pos < sizes_.size(); ++pos) {
      if (!buckets_[pos].empty()) {
        return std::pair<uint64_t, uint64_t>{sizes_[pos], buckets_[pos].back()};
      }
    }
    return std::nullopt;
  }

  bool empty() const { return count_ == 0; }
  size_t size() const { return count_; }
  size_t num_size_buckets() const { return sizes_.size(); }  // includes kept-alive empties
  uint64_t largest_size() const {
    for (size_t pos = sizes_.size(); pos > 0; --pos) {
      if (!buckets_[pos - 1].empty()) {
        return sizes_[pos - 1];
      }
    }
    return 0;
  }

 private:
  using Bucket = std::vector<uint64_t>;  // addresses, sorted descending (best fit at back)

  // Compaction floor: fewer kept-alive empties than this are never worth a pass.
  static constexpr size_t kMinCompactEmpties = 64;

  // Drops every empty bucket once empties outnumber both the live buckets and the floor. The
  // pass is stable, so sizes_ stays sorted and every surviving bucket keeps its contents.
  void OnBucketEmptied() {
    ++empty_buckets_;
    const size_t live = sizes_.size() - empty_buckets_;
    if (empty_buckets_ <= std::max(live, kMinCompactEmpties)) {
      return;
    }
    size_t out = 0;
    for (size_t pos = 0; pos < sizes_.size(); ++pos) {
      if (buckets_[pos].empty()) {
        continue;
      }
      if (out != pos) {
        sizes_[out] = sizes_[pos];
        buckets_[out] = std::move(buckets_[pos]);
      }
      ++out;
    }
    sizes_.resize(out);
    buckets_.resize(out);
    empty_buckets_ = 0;
  }

  // Index of the first size >= `size` in the flat sorted size array. The same few dozen request
  // sizes recur for the whole run, so an exact-match position cache short-circuits most
  // searches. The cache is self-validating: sizes_ is sorted and unique, so whenever
  // sizes_[hot_pos_] == size holds, hot_pos_ IS the lower bound — even after insertions or a
  // compaction have shifted positions since the cache was written.
  size_t LowerBound(uint64_t size) const {
    if (hot_pos_ < sizes_.size() && sizes_[hot_pos_] == size) {
      return hot_pos_;
    }
    const size_t pos = static_cast<size_t>(
        std::lower_bound(sizes_.begin(), sizes_.end(), size) - sizes_.begin());
    if (pos < sizes_.size() && sizes_[pos] == size) {
      hot_pos_ = pos;
    }
    return pos;
  }

  Bucket& BucketFor(uint64_t size) {
    const size_t pos = LowerBound(size);
    if (pos < sizes_.size() && sizes_[pos] == size) {
      return buckets_[pos];
    }
    // New distinct size: rare for request sizes, common for split remainders (see top). The
    // bucket is born empty and counted as such until Insert fills it.
    ++empty_buckets_;
    sizes_.insert(sizes_.begin() + static_cast<ptrdiff_t>(pos), size);
    buckets_.insert(buckets_.begin() + static_cast<ptrdiff_t>(pos), Bucket{});
    return buckets_[pos];
  }

  std::vector<uint64_t> sizes_;  // sorted ascending; parallel to buckets_
  std::vector<Bucket> buckets_;
  size_t count_ = 0;
  size_t empty_buckets_ = 0;  // kept-alive empties among buckets_
  mutable size_t hot_pos_ = 0;  // last exact-match LowerBound hit (see LowerBound)
};

class BlockArena {
 public:
  using SegmentId = uint32_t;
  using PoolId = uint32_t;

  struct Segment {
    uint64_t base = 0;
    uint64_t size = 0;
    PoolId pool = 0;
    bool live = true;  // false once RemoveSegment dropped it; ids are never reused
    uint64_t free_bytes = 0;
    uint32_t tail = kNoBlock;  // slot of the highest-addressed block; kNoBlock when empty
  };
  struct Released {
    uint64_t size = 0;  // the released block's own size, before coalescing
    SegmentId segment = 0;
  };

  // Adds [base, base + size) to `pool` and takes its first `take` bytes (none when `take` is 0),
  // splitting as Take does. The rest of the segment is free.
  SegmentId AddSegment(uint64_t base, uint64_t size, PoolId pool, uint64_t take,
                       uint64_t min_split);
  // Takes the best fit for `size` from `pool` — the lowest address among the smallest free blocks
  // of at least `size` bytes — and splits off its tail when the remainder is >= `min_split`.
  std::optional<uint64_t> Take(PoolId pool, uint64_t size, uint64_t min_split);
  // Frees the taken block at `addr` and coalesces it with its free neighbours in its segment.
  Released Release(uint64_t addr);
  // Drops a fully-free segment.
  void RemoveSegment(SegmentId id);

  // Tail operations for segments that grow and shrink at their end (expandable segments).
  // Appends `bytes` of free space at the segment end, merged into a free tail block.
  void GrowTail(SegmentId id, uint64_t bytes);
  // Size of the free block that ends at the segment end, 0 if the tail block is taken or absent.
  uint64_t TailFree(SegmentId id) const;
  // Shrinks the segment to `new_size` bytes; the cut must lie inside the free tail block.
  void TrimTail(SegmentId id, uint64_t new_size);

  const Segment& segment(SegmentId id) const { return segments_[id]; }
  bool FullyFree(SegmentId id) const {
    const Segment& seg = segments_[id];
    return seg.live && seg.free_bytes == seg.size;
  }
  // Segment ids handed out so far, removed ones included.
  size_t num_segments() const { return segments_.size(); }

 private:
  static constexpr uint32_t kNoBlock = ~uint32_t{0};

  struct Block {
    uint64_t addr = 0;
    uint64_t size = 0;
    bool free = true;
    SegmentId segment = 0;
    uint32_t prev = kNoBlock;  // address-ordered neighbours within the segment
    uint32_t next = kNoBlock;
  };

  BestFitIndex& Pool(PoolId pool) {
    if (pool >= pools_.size()) {
      pools_.resize(pool + 1);
    }
    return pools_[pool];
  }
  // Links a new block of `size` bytes at `addr` right after `prev` (kNoBlock: an empty segment).
  uint32_t NewBlock(uint64_t addr, uint64_t size, bool free, SegmentId id, uint32_t prev);
  void DropBlock(uint32_t slot);
  uint32_t FindBlock(uint64_t addr) const;
  // Marks the taken block `slot` as `want` bytes, splitting off a free remainder >= min_split.
  void Split(uint32_t slot, uint64_t want, uint64_t min_split);
  // Indexes the free block `slot` after merging it with its free neighbours.
  void Coalesce(uint32_t slot);

  std::vector<Block> blocks_;  // slot pool; free slots recycled via free_slots_
  std::vector<uint32_t> free_slots_;
  AddrMap<uint32_t> by_addr_;  // block address -> slot
  std::vector<Segment> segments_;
  std::vector<BestFitIndex> pools_;  // indexed by PoolId
  // Verify mode (src/common/verify.h), read at construction: Coalesce checks that the list
  // neighbours it merges are contiguous.
  bool verify_ = verify::Enabled();
};

}  // namespace stalloc

#endif  // SRC_ALLOCATORS_FREE_INDEX_H_
