// VmmAllocator: a two-level virtual-memory allocator over VaSpace + PhysHandlePool.
//
// Level 1 reserves one large VA range up front (VaSpace) and places blocks best-fit inside it,
// as one BlockArena segment — placement is pure address arithmetic inside the reservation, so
// virtual fragmentation is the only placement constraint and it is bounded by the reservation
// size, not by capacity.
// Level 2 backs only the pages that live blocks actually touch with fixed-granularity physical
// handles (PhysHandlePool), mapped lazily and reference-counted per page.
//
// The headline trick is remap-based compaction: when the device runs out of physical memory,
// idle pages — mapped but referenced by no live block — are *unmapped* and their handles
// remapped under the new allocation. Memory "moves" at map-call cost with zero bytes copied,
// which is the VMM counterpart of core/compaction's copy-based model (cuMemMap vs cudaMemcpy;
// the GMLake / PyTorch expandable_segments lineage, taken one step further by relocating
// handles instead of only growing frontiers).
//
// Granularity is configurable: SimDevice::kGranularity (2 MiB huge pages, the CUDA-recommended
// setting) by default, down to SimDevice::kMinGranularity (64 KiB). Small granules track live
// data tightly (better Mr); huge pages cost fewer map calls. Tests pin both sides of that
// trade-off.

#ifndef SRC_VMM_VMM_ALLOCATOR_H_
#define SRC_VMM_VMM_ALLOCATOR_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string_view>
#include <vector>

#include "src/allocators/allocator.h"
#include "src/allocators/caching_allocator.h"
#include "src/allocators/free_index.h"
#include "src/gpu/sim_device.h"
#include "src/vmm/phys_handle_pool.h"
#include "src/vmm/va_space.h"

namespace stalloc {

struct VmmConfig {
  // Physical handle / page size. Power of two, >= SimDevice::kMinGranularity.
  uint64_t granularity = SimDevice::kGranularity;
  // VA reservation size; 0 = 2x device capacity rounded up to the granularity (headroom for
  // virtual fragmentation without a second reservation).
  uint64_t va_size = 0;
  // Requests <= small_size go to a caching small pool (0 disables the small pool).
  uint64_t small_size = 1 * MiB;
  // Allow remapping idle pages under pressure (the remap-based compaction). Off = behave like
  // a plain lazy-mapping allocator that can only create fresh handles.
  bool remap = true;
};

// Counters specific to the VMM level (device API counts live in SimDevice; these attribute the
// allocator's *decisions*). bytes_copied is always 0 and exists to line up against
// CompactionResult::bytes_moved in the remap-vs-copy bench.
struct VmmStats {
  uint64_t map_calls = 0;       // pages mapped (fresh or remapped)
  uint64_t unmap_calls = 0;     // pages unmapped (remap steals + EmptyCache)
  uint64_t remap_events = 0;    // Mallocs that relocated at least one idle page
  uint64_t pages_remapped = 0;  // idle pages stolen and remapped under new allocations
  uint64_t bytes_remapped = 0;  // pages_remapped * granularity — "bytes moved" without a copy
  uint64_t bytes_copied = 0;    // remap moves handles, never data
};

class VmmAllocator : public AllocatorBase {
 public:
  explicit VmmAllocator(SimDevice* device, VmmConfig config = VmmConfig{});
  ~VmmAllocator() override;

  std::string_view name() const override { return "vmm"; }
  uint64_t ReservedBytes() const override;
  void EmptyCache() override;
  void AppendHeapSegments(std::vector<telemetry::HeapSegment>* out) const override;

  const VmmStats& vmm_stats() const { return vmm_stats_; }
  const VaSpace& va_space() const { return *va_; }
  const PhysHandlePool& handle_pool() const { return *pool_; }

 protected:
  std::optional<uint64_t> DoMalloc(uint64_t size, const RequestContext& ctx) override;
  void DoFree(uint64_t addr, uint64_t size) override;

 private:
  bool IsSmall(uint64_t size) const {
    return config_.small_size != 0 && size <= config_.small_size;
  }

  std::optional<uint64_t> LargeMalloc(uint64_t rounded);
  // Backs every page of [off, off+size) with a handle. Bumps the block's page references up
  // front, so pressure-stealing never targets the pages being mapped; on failure unwinds both
  // the refs and its own new mappings and returns false.
  bool EnsureMapped(uint64_t off, uint64_t size);
  // A handle for one page, under physical pressure: pool cache -> fresh create -> steal an
  // idle mapped page (remap) -> trim caches and retry. nullopt = genuine OOM.
  std::optional<MemHandle> AcquireUnderPressure(bool* remapped);
  // Highest-index mapped page with refcount 0 (stealing from high VA compacts the working set
  // toward low addresses). nullopt if every mapped page is referenced.
  std::optional<uint64_t> FindIdlePage() const;
  void AddRefs(uint64_t off, uint64_t size, int delta);
  // Unmaps every refcount-0 mapped page, returning handles to the pool.
  void ReleaseIdlePages();

  SimDevice* device_;
  VmmConfig config_;
  std::optional<CachingPool> small_pool_;  // empty when small_size == 0
  std::unique_ptr<VaSpace> va_;
  std::unique_ptr<PhysHandlePool> pool_;
  BlockArena arena_;  // one segment covering the whole reservation
  std::vector<uint32_t> page_refs_;  // per page: live large blocks overlapping it
  VmmStats vmm_stats_;
};

}  // namespace stalloc

#endif  // SRC_VMM_VMM_ALLOCATOR_H_
