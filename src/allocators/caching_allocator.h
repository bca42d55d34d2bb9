// CachingPool: a faithful reimplementation of the PyTorch CUDA caching allocator's
// block-management policy (c10::cuda::CUDACachingAllocator), the main baseline of the paper.
//
// Policy summary (matching the upstream constants):
//   * request sizes round up to 512 B (kMinBlockSize);
//   * requests <= 1 MiB (kSmallSize) are served from the small pool, whose segments are 2 MiB
//     (kSmallBuffer); larger requests use the large pool: segments of 20 MiB (kLargeBuffer) for
//     requests < 10 MiB (kMinLargeAlloc), else the request rounded up to 2 MiB (kRoundLarge);
//   * free blocks are kept per (pool, stream) — a freed block is only reusable by requests on
//     the stream that allocated it, as in PyTorch — and selected best-fit (smallest sufficient
//     block, then lowest address);
//   * an oversized block is split when the remainder is >= 512 B (small pool) or > 1 MiB (large
//     pool); the remainder stays cached;
//   * on device OOM the pool releases all fully-free cached segments (cudaFree) and retries
//     once; only then does the request fail;
//   * freed blocks coalesce with free neighbours within the same segment.
//
// This is the "online best-fit without lifespan knowledge" policy whose fragmentation behaviour
// §2.2 analyses. Blocks, splitting and coalescing live in a BlockArena
// (src/allocators/free_index.h), one arena pool per (pool, stream).
//
// The pool is a plain class, not an allocator: CachingAllocator ("torch-caching") wraps one,
// and GMLake, expandable segments and the vmm kind hold one as their small pool, as STAlloc does
// for its fallback. The owning allocator's AllocatorBase keeps the ledger, stats and telemetry.

#ifndef SRC_ALLOCATORS_CACHING_ALLOCATOR_H_
#define SRC_ALLOCATORS_CACHING_ALLOCATOR_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "src/allocators/allocator.h"
#include "src/allocators/free_index.h"
#include "src/common/units.h"
#include "src/gpu/sim_device.h"

namespace stalloc {

class CachingPool {
 public:
  static constexpr uint64_t kMinBlockSize = 512;        // request rounding
  static constexpr uint64_t kSmallSize = 1 * MiB;       // boundary between the pools
  static constexpr uint64_t kSmallBuffer = 2 * MiB;     // small-pool segment size
  static constexpr uint64_t kLargeBuffer = 20 * MiB;    // default large-pool segment size
  static constexpr uint64_t kMinLargeAlloc = 10 * MiB;  // above this, segments fit the request
  static constexpr uint64_t kRoundLarge = 2 * MiB;      // rounding for big segments

  explicit CachingPool(SimDevice* device) : device_(device) {}
  ~CachingPool();
  CachingPool(const CachingPool&) = delete;
  CachingPool& operator=(const CachingPool&) = delete;

  // Serves `size` bytes (> 0) on `stream`; nullopt when the device is out of memory even after
  // releasing the cache.
  std::optional<uint64_t> Malloc(uint64_t size, StreamId stream);
  // Returns a block this pool served.
  void Free(uint64_t addr) { arena_.Release(addr); }
  uint64_t ReservedBytes() const { return reserved_; }
  // Releases fully-free segments to the device (torch.cuda.empty_cache).
  void EmptyCache();
  void AppendHeapSegments(std::vector<telemetry::HeapSegment>* out) const;
  // Whether a request of `size` bytes belongs to the small pool; GMLake and expandable
  // segments route their requests by it too.
  static bool IsSmall(uint64_t size) { return RoundSize(size) <= kSmallSize; }

  // Introspection for tests.
  size_t num_segments() const { return arena_.num_segments(); }  // released ones included
  uint64_t cached_free_bytes() const;
  // Rounded request size per the PyTorch rounding rule.
  static uint64_t RoundSize(uint64_t size) {
    return size < kMinBlockSize ? kMinBlockSize : AlignUp(size, kMinBlockSize);
  }

 private:
  // One arena pool per (pool, stream): PyTorch segregates cached blocks by stream.
  static BlockArena::PoolId PoolFor(bool small, StreamId stream) {
    return (BlockArena::PoolId{stream} << 1) | (small ? 1 : 0);
  }
  static bool IsSmallPool(BlockArena::PoolId pool) { return (pool & 1) != 0; }
  static StreamId StreamOf(BlockArena::PoolId pool) { return static_cast<StreamId>(pool >> 1); }

  static uint64_t SegmentSizeFor(uint64_t rounded);
  // PyTorch should_split: the small pool splits off any remainder >= kMinBlockSize, the large
  // pool only remainders above kSmallSize, to limit large-pool fragmentation.
  static uint64_t MinSplit(bool small) { return small ? kMinBlockSize : kSmallSize + 1; }

  // Allocates a fresh segment from the device and serves from it.
  std::optional<uint64_t> AllocFromNewSegment(uint64_t rounded, bool small, StreamId stream);
  // Releases all fully-free segments back to the device; returns bytes released.
  uint64_t ReleaseCachedSegments();

  SimDevice* device_;
  BlockArena arena_;
  uint64_t reserved_ = 0;
};

// The "torch-caching" registry kind: the caching policy on its own.
class CachingAllocator final : public AllocatorBase {
 public:
  explicit CachingAllocator(SimDevice* device) : pool_(device) {}

  std::string_view name() const override { return "torch-caching"; }
  uint64_t ReservedBytes() const override { return pool_.ReservedBytes(); }
  void EmptyCache() override { pool_.EmptyCache(); }
  void AppendHeapSegments(std::vector<telemetry::HeapSegment>* out) const override {
    pool_.AppendHeapSegments(out);
  }

  // Introspection for tests.
  size_t num_segments() const { return pool_.num_segments(); }
  uint64_t cached_free_bytes() const { return pool_.cached_free_bytes(); }
  uint64_t RoundSize(uint64_t size) const { return CachingPool::RoundSize(size); }

 protected:
  std::optional<uint64_t> DoMalloc(uint64_t size, const RequestContext& ctx) override {
    return pool_.Malloc(size, ctx.stream);
  }
  void DoFree(uint64_t addr, uint64_t /*size*/) override { pool_.Free(addr); }

 private:
  CachingPool pool_;
};

}  // namespace stalloc

#endif  // SRC_ALLOCATORS_CACHING_ALLOCATOR_H_
