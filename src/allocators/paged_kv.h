// PagedKVAllocator: a vLLM-style paged KV-cache allocator — the serving-native baseline.
//
// vLLM's PagedAttention sidesteps fragmentation by serving the KV cache from a pool of
// fixed-size blocks: any free block satisfies any block request, so external fragmentation is
// zero by construction and the only waste is internal (the tail of the last block of each
// sequence). This allocator reproduces that policy on SimDevice:
//   * requests <= block_bytes are served from the block pool. The pool grows in slabs of
//     slab_blocks contiguous blocks (one cudaMalloc each); freed blocks return to a free list
//     and are reused lowest-address-first, deterministically;
//   * larger requests (weights, prefill activations) bypass the pool with a native cudaMalloc,
//     exactly as vLLM leaves non-KV tensors to the framework allocator.
//
// Sized to the workload (block_bytes == servesim's KvBlockBytes), every KV allocation is a pool
// hit; sized wrong, the pool's internal waste shows up as reduced memory efficiency — the
// page-granularity sensitivity the serving benches measure.

#ifndef SRC_ALLOCATORS_PAGED_KV_H_
#define SRC_ALLOCATORS_PAGED_KV_H_

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string_view>
#include <vector>

#include "src/allocators/allocator.h"
#include "src/common/addr_map.h"
#include "src/common/units.h"
#include "src/gpu/sim_device.h"

namespace stalloc {

struct PagedKVConfig {
  // Pool page size. Requests of at most this many bytes consume one block each.
  uint64_t block_bytes = 2 * MiB;
  // Blocks acquired per device allocation when the free list runs dry.
  uint64_t slab_blocks = 64;
};

class PagedKVAllocator final : public AllocatorBase {
 public:
  explicit PagedKVAllocator(SimDevice* device, PagedKVConfig config = PagedKVConfig{});
  ~PagedKVAllocator() override;

  std::string_view name() const override { return "paged-kv"; }
  uint64_t ReservedBytes() const override { return reserved_; }
  // Releases fully-free slabs back to the device.
  void EmptyCache() override;
  void AppendHeapSegments(std::vector<telemetry::HeapSegment>* out) const override;

  // Introspection for tests.
  size_t num_slabs() const { return slabs_.size(); }
  uint64_t block_bytes() const { return config_.block_bytes; }

 protected:
  std::optional<uint64_t> DoMalloc(uint64_t size, const RequestContext& ctx) override;
  void DoFree(uint64_t addr, uint64_t size) override;

 private:
  struct Slab {
    uint64_t blocks = 0;
    uint64_t free = 0;  // free blocks currently inside this slab
  };

  // Grows the pool by one slab (shrinking the slab under device pressure); false when even a
  // single block cannot be allocated.
  bool GrowPool();
  // The slab holding pool block `addr`: the predecessor of `addr` among slab bases.
  std::map<uint64_t, Slab>::iterator SlabOf(uint64_t addr);
  // Device bytes one slab of `blocks` consumes (DevMalloc rounds to kMallocAlign).
  uint64_t SlabBytes(uint64_t blocks) const {
    return AlignUp(blocks * config_.block_bytes, SimDevice::kMallocAlign);
  }

  SimDevice* device_;
  PagedKVConfig config_;
  std::map<uint64_t, Slab> slabs_;          // slab base -> slab
  std::set<uint64_t> free_blocks_;            // free block base addresses (lowest-first reuse)
  AddrMap<uint64_t> passthrough_;             // direct cudaMalloc allocations: addr -> size
  uint64_t reserved_ = 0;
};

}  // namespace stalloc

#endif  // SRC_ALLOCATORS_PAGED_KV_H_
