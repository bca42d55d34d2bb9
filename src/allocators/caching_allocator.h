// CachingAllocator: a faithful reimplementation of the PyTorch CUDA caching allocator's
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
//   * on device OOM the allocator releases all fully-free cached segments (cudaFree) and retries
//     once; only then does the request fail;
//   * freed blocks coalesce with free neighbours within the same segment.
//
// This is the "online best-fit without lifespan knowledge" policy whose fragmentation behaviour
// §2.2 analyses. Blocks, splitting and coalescing live in a BlockArena
// (src/allocators/free_index.h), one arena pool per (pool, stream).

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

struct CachingAllocatorConfig {
  uint64_t min_block_size = 512;          // kMinBlockSize
  uint64_t small_size = 1 * MiB;          // kSmallSize: boundary between pools
  uint64_t small_buffer = 2 * MiB;        // kSmallBuffer: small-pool segment size
  uint64_t large_buffer = 20 * MiB;       // kLargeBuffer: default large-pool segment size
  uint64_t min_large_alloc = 10 * MiB;    // kMinLargeAlloc: above this, segments fit the request
  uint64_t round_large = 2 * MiB;         // kRoundLarge: rounding for big segments
};

class CachingAllocator final : public AllocatorBase {
 public:
  explicit CachingAllocator(SimDevice* device,
                            CachingAllocatorConfig config = CachingAllocatorConfig{});
  ~CachingAllocator() override;

  std::string_view name() const override { return "torch-caching"; }
  uint64_t ReservedBytes() const override { return reserved_; }
  void EmptyCache() override;
  void AppendHeapSegments(std::vector<telemetry::HeapSegment>* out) const override;

  // Introspection for tests.
  size_t num_segments() const { return arena_.num_segments(); }  // released ones included
  uint64_t cached_free_bytes() const;
  // Rounded request size per the PyTorch rounding rule (exposed for tests).
  uint64_t RoundSize(uint64_t size) const;

 protected:
  std::optional<uint64_t> DoMalloc(uint64_t size, const RequestContext& ctx) override;
  void DoFree(uint64_t addr, uint64_t size) override;

 private:
  // One arena pool per (pool, stream): PyTorch segregates cached blocks by stream.
  static BlockArena::PoolId PoolFor(bool small, StreamId stream) {
    return (BlockArena::PoolId{stream} << 1) | (small ? 1 : 0);
  }
  static bool IsSmallPool(BlockArena::PoolId pool) { return (pool & 1) != 0; }
  static StreamId StreamOf(BlockArena::PoolId pool) { return static_cast<StreamId>(pool >> 1); }

  bool IsSmall(uint64_t rounded) const { return rounded <= config_.small_size; }
  uint64_t SegmentSizeFor(uint64_t rounded) const;
  // PyTorch should_split: the small pool splits off any remainder >= kMinBlockSize, the large
  // pool only remainders above kSmallSize, to limit large-pool fragmentation.
  uint64_t MinSplit(bool small) const {
    return small ? config_.min_block_size : config_.small_size + 1;
  }

  // Allocates a fresh segment from the device and serves from it.
  std::optional<uint64_t> AllocFromNewSegment(uint64_t rounded, bool small, StreamId stream);
  // Releases all fully-free segments back to the device; returns bytes released.
  uint64_t ReleaseCachedSegments();

  SimDevice* device_;
  CachingAllocatorConfig config_;
  BlockArena arena_;
  uint64_t reserved_ = 0;
};

}  // namespace stalloc

#endif  // SRC_ALLOCATORS_CACHING_ALLOCATOR_H_
