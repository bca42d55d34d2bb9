// NativeAllocator: pass-through to the device's cudaMalloc/cudaFree.
//
// This is the allocation the Allocation Profiler models (§8): memory is allocated exactly as
// required, "almost entirely obviating memory fragmentation", at the cost of a native API call
// per request. If a configuration OOMs under the native allocator, its theoretical demand
// exceeds capacity and no allocator can run it. The profiler reproduces this allocator's
// placements and call counts in its own sweep (src/core/profiler.h); here it is a replay kind.

#ifndef SRC_ALLOCATORS_NATIVE_ALLOCATOR_H_
#define SRC_ALLOCATORS_NATIVE_ALLOCATOR_H_

#include <cstdint>
#include <optional>

#include "src/allocators/allocator.h"
#include "src/gpu/sim_device.h"

namespace stalloc {

class NativeAllocator final : public AllocatorBase {
 public:
  explicit NativeAllocator(SimDevice* device) : device_(device) {}

  std::string_view name() const override { return "native"; }
  uint64_t ReservedBytes() const override { return reserved_; }

 protected:
  std::optional<uint64_t> DoMalloc(uint64_t size, const RequestContext& ctx) override;
  void DoFree(uint64_t addr, uint64_t size) override;

 private:
  SimDevice* device_;
  uint64_t reserved_ = 0;
};

}  // namespace stalloc

#endif  // SRC_ALLOCATORS_NATIVE_ALLOCATOR_H_
