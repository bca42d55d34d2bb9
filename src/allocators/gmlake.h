// GMLakeAllocator: reimplementation of GMLake (ASPLOS '24), the virtual-memory-stitching
// baseline. GMLake extends the PyTorch caching allocator by backing every large segment
// ("primitive block", pBlock) with a CUDA VMM allocation — a virtual-address reservation plus a
// physical handle — so that, when a large request cannot be served contiguously, the physical
// handles of several *free* pBlocks can be unmapped from their original addresses and re-mapped
// back-to-back into a freshly reserved range ("stitched block", sBlock). Stitching defragments
// without copying data, but each stitch costs unmap+map calls; with a low fragLimit threshold and
// MoE's dynamic sizes this churn is the >50% slowdown the paper reports (§9.2).
//
// Stitching applies only to requests >= frag_limit (default 512 MiB, per the paper). pBlocks and
// sBlocks are BlockArena segments with one pool per stream, split by the caching allocator's
// large-pool rule; requests of at most 1 MiB go to a caching small pool.

#ifndef SRC_ALLOCATORS_GMLAKE_H_
#define SRC_ALLOCATORS_GMLAKE_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "src/allocators/caching_allocator.h"
#include "src/allocators/free_index.h"
#include "src/gpu/sim_device.h"

namespace stalloc {

struct GMLakeConfig {
  uint64_t frag_limit = 512 * MiB;  // stitching threshold (paper default)
};

class GMLakeAllocator final : public AllocatorBase {
 public:
  explicit GMLakeAllocator(SimDevice* device, GMLakeConfig config = GMLakeConfig{});
  ~GMLakeAllocator() override;

  std::string_view name() const override { return "gmlake"; }
  uint64_t ReservedBytes() const override;
  void EmptyCache() override;
  void AppendHeapSegments(std::vector<telemetry::HeapSegment>* out) const override;

  // Introspection for tests / benches.
  uint64_t num_stitches() const { return num_stitches_; }
  size_t num_segments() const;

 protected:
  std::optional<uint64_t> DoMalloc(uint64_t size, const RequestContext& ctx) override;
  void DoFree(uint64_t addr, uint64_t size) override;

 private:
  struct HandlePart {
    MemHandle handle = 0;
    uint64_t size = 0;
  };
  // VMM backing of one arena segment — a pBlock or an sBlock — indexed by its segment id. The
  // segment's pool is its stream.
  struct Backing {
    std::vector<HandlePart> handles;  // mapped consecutively from offset 0
    bool stitched = false;
  };
  // PyTorch's large-pool rule: only remainders above the small-pool boundary are split off.
  static constexpr uint64_t kMinSplit = CachingPool::kSmallSize + 1;
  static uint64_t SegmentSizeFor(uint64_t rounded);
  std::optional<uint64_t> LargeMalloc(uint64_t rounded, StreamId stream);
  std::optional<uint64_t> AllocFromNewSegment(uint64_t rounded, StreamId stream);
  // Stitches fully-free same-stream pBlocks into a new segment holding `rounded`.
  std::optional<uint64_t> AllocByStitching(uint64_t rounded, StreamId stream);
  // Adds a mapped segment at `va` to the arena, taking its first `rounded` bytes.
  void AddSegment(VaPtr va, uint64_t size, StreamId stream, uint64_t rounded, Backing backing);
  // Unmaps a fully-free segment's handles; optionally releases the physical memory.
  void DismantleSegment(BlockArena::SegmentId id, bool release_physical);
  uint64_t ReleaseCachedSegments();

  SimDevice* device_;
  GMLakeConfig config_;
  CachingPool small_pool_;
  BlockArena arena_;
  std::vector<Backing> backings_;  // parallel to the arena's segment ids
  uint64_t reserved_large_ = 0;  // physical bytes held by large segments
  uint64_t num_stitches_ = 0;
};

}  // namespace stalloc

#endif  // SRC_ALLOCATORS_GMLAKE_H_
