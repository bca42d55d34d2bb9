// PhysHandlePool: a cache of fixed-granularity physical memory handles (cuMemCreate
// analogues) shared by the VMM allocator family.
//
// Creating physical memory is the expensive VMM operation (mem_create_us ~2.5x a map call in
// the DeviceCostModel, and real drivers behave the same way), so handles released by an unmap
// are cached here instead of being returned to the device: the next mapping reuses a cached
// handle with zero device traffic. This is exactly how a remap moves memory — the handle
// travels from the old page through the pool to the new page, and no bytes are copied.
// Trim() gives everything back to the device (empty_cache semantics).

#ifndef SRC_VMM_PHYS_HANDLE_POOL_H_
#define SRC_VMM_PHYS_HANDLE_POOL_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "src/gpu/sim_device.h"

namespace stalloc {

struct PhysHandlePoolStats {
  uint64_t created = 0;    // handles created on the device (cuMemCreate)
  uint64_t pool_hits = 0;  // Acquire calls served from the cache, no device traffic
  uint64_t released = 0;   // handles given back to the device (Trim)
};

class PhysHandlePool {
 public:
  // Every handle this pool manages has exactly `granularity` bytes (a power of two, at least
  // SimDevice::kMinGranularity).
  PhysHandlePool(SimDevice* device, uint64_t granularity);
  ~PhysHandlePool();  // trims: cached handles go back to the device

  uint64_t granularity() const { return granularity_; }

  // One unmapped physical handle of granularity() bytes: the most recently released cached
  // handle when the cache is non-empty, else a fresh cuMemCreate. nullopt when the cache is
  // empty and the device is out of physical memory.
  std::optional<MemHandle> Acquire();

  // Returns an unmapped handle (previously Acquired) to the cache for reuse.
  void Release(MemHandle handle);

  // cuMemRelease every cached handle back to the device. Returns bytes released.
  uint64_t Trim();

  uint64_t cached_bytes() const { return cache_.size() * granularity_; }
  const PhysHandlePoolStats& stats() const { return stats_; }

 private:
  SimDevice* device_;
  uint64_t granularity_;
  std::vector<MemHandle> cache_;  // LIFO: the handle unmapped last is remapped first
  PhysHandlePoolStats stats_;
};

}  // namespace stalloc

#endif  // SRC_VMM_PHYS_HANDLE_POOL_H_
