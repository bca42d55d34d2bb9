// SimDevice: a simulated GPU memory device.
//
// The paper's allocators sit on top of two families of CUDA APIs:
//   * classic contiguous allocation:  cudaMalloc / cudaFree
//   * virtual memory management:      cuMemAddressReserve / cuMemCreate / cuMemMap / cuMemUnmap /
//                                     cuMemRelease                  (used by GMLake & PyTorch ES)
//
// SimDevice reproduces the address-space algebra and the failure semantics of both families over
// a configurable capacity, and keeps a ledger of API-call counts and modelled wall-clock cost so
// benches can reproduce the paper's overhead analysis (§9.3: VMM ops cost ~tens of ms under heavy
// churn). No real memory is touched: addresses are opaque 64-bit offsets.

#ifndef SRC_GPU_SIM_DEVICE_H_
#define SRC_GPU_SIM_DEVICE_H_

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/addr_map.h"
#include "src/common/units.h"
#include "src/interval/first_fit_index.h"

namespace stalloc {

// Cost (in microseconds of modelled wall-clock time) of each device API call. Values are
// order-of-magnitude estimates from published measurements; benches report ratios, not absolutes.
struct DeviceCostModel {
  double cuda_malloc_us = 250.0;
  double cuda_free_us = 120.0;
  double va_reserve_us = 40.0;
  double va_free_us = 40.0;
  double mem_create_us = 300.0;   // physical handle creation
  double mem_release_us = 180.0;
  double mem_map_us = 120.0;      // per map call (any number of granules)
  double mem_unmap_us = 120.0;
  // Extra synchronization penalty charged per map/unmap when the device is busy with compute;
  // this is what makes GMLake's 64 MB fragLimit setting slow (§9.2: ~30 ms per op).
  double vmm_sync_penalty_us = 0.0;
};

struct DeviceApiCounters {
  uint64_t cuda_malloc = 0;
  uint64_t cuda_free = 0;
  uint64_t va_reserve = 0;
  uint64_t va_free = 0;
  uint64_t mem_create = 0;
  uint64_t mem_release = 0;
  uint64_t mem_map = 0;
  uint64_t mem_unmap = 0;
  double total_cost_us = 0.0;

  uint64_t TotalCalls() const {
    return cuda_malloc + cuda_free + va_reserve + va_free + mem_create + mem_release + mem_map +
           mem_unmap;
  }
};

// Result codes mirroring the CUDA error surface we care about.
enum class DeviceStatus : uint8_t {
  kOk = 0,
  kOutOfMemory,      // physical memory exhausted
  kInvalidArgument,  // misaligned size / unknown handle / bad address
};

using DevPtr = uint64_t;      // device address (classic allocations share one address space)
using VaPtr = uint64_t;       // virtual address from ReserveVa
using MemHandle = uint64_t;   // physical allocation handle (cuMemCreate analogue)

class SimDevice {
 public:
  // Recommended VMM granularity: cuMemGetAllocationGranularity with
  // CU_MEM_ALLOC_GRANULARITY_RECOMMENDED reports 2 MiB on all evaluated GPUs.
  static constexpr uint64_t kGranularity = 2 * MiB;
  // Minimum VMM granularity the device accepts (CU_MEM_ALLOC_GRANULARITY_MINIMUM). Sizes and
  // offsets in the VMM API must be multiples of this; kGranularity remains what well-behaved
  // allocators use by default (huge-page-aligned mappings, the THP trade-off).
  static constexpr uint64_t kMinGranularity = 64 * KiB;
  // cudaMalloc alignment.
  static constexpr uint64_t kMallocAlign = 512;

  // Largest simulated capacity, 2^40 B (1 TiB). Every allocator kind works up to it, including
  // the ones that size a virtual reservation or a per-page table from the capacity (vmm,
  // torch-expandable). Callers with external input (the C ABI, Session::Validate) reject larger
  // capacities; the constructor aborts on them.
  static constexpr uint64_t kMaxCapacity = uint64_t{1} << 40;

  explicit SimDevice(uint64_t capacity_bytes, DeviceCostModel cost = DeviceCostModel{});

  uint64_t capacity() const { return capacity_; }

  // --- classic API ---
  // Contiguous allocation in the device address space. Fails with kOutOfMemory when no region of
  // the requested (aligned) size is free or the physical budget is exhausted.
  std::optional<DevPtr> DevMalloc(uint64_t size);
  DeviceStatus DevFree(DevPtr ptr);

  // --- VMM API ---
  // Reserves a virtual address range (multiple of kMinGranularity). Virtual space is plentiful
  // (64-bit): reservations only fail on misalignment.
  std::optional<VaPtr> ReserveVa(uint64_t size);
  DeviceStatus FreeVa(VaPtr va);
  // Creates a physical allocation of `size` (multiple of kMinGranularity). Counts against
  // capacity.
  std::optional<MemHandle> MemCreate(uint64_t size);
  DeviceStatus MemRelease(MemHandle handle);
  // Maps the whole of `handle` at va+offset. The target range must lie inside one reservation and
  // not overlap an existing mapping. One handle may be mapped at most once (CUDA semantics).
  DeviceStatus MemMap(VaPtr va, uint64_t offset, MemHandle handle);
  // Unmaps [va+offset, va+offset+size); must exactly cover previously mapped handles.
  DeviceStatus MemUnmap(VaPtr va, uint64_t offset, uint64_t size);

  // --- accounting ---
  // Physically used bytes right now (classic allocations + created handles).
  uint64_t physical_used() const { return classic_used_ + handle_used_; }
  // Free-space telemetry of the classic arena, for cluster-level fragmentation metrics:
  // total free address space and the largest single contiguous free region. VMM-based
  // allocators leave the classic arena untouched (their fragmentation is internal to handles),
  // so these report the arena as fully free under expandable-segments/GMLake tenants. Both are
  // cheap enough to sample every scheduling window: the total is kept running, and the largest
  // region is the maximum of the arena index's chunk summary (one entry per chunk of up to 128
  // free ranges).
  uint64_t classic_free_total() const { return classic_free_.total(); }
  uint64_t classic_largest_free() const { return classic_free_.largest(); }
  uint64_t physical_peak() const { return physical_peak_; }
  uint64_t classic_used() const { return classic_used_; }
  const DeviceApiCounters& counters() const { return counters_; }
  const DeviceCostModel& cost_model() const { return cost_; }

  // Number of live classic allocations / handles / reservations (leak checks in tests).
  size_t live_classic_allocs() const { return classic_allocs_.size(); }
  size_t live_handles() const { return handles_.size(); }
  size_t live_reservations() const { return reservations_.size(); }

 private:
  struct Reservation {
    uint64_t size = 0;
    // Mapped subranges (offsets within the reservation) -> handle.
    std::map<uint64_t, MemHandle> mappings;  // offset -> handle (handle size known via handles_)
  };

  void Charge(double us) { counters_.total_cost_us += us; }
  void UpdatePeak();

  uint64_t capacity_;
  DeviceCostModel cost_;
  DeviceApiCounters counters_;

  // Classic allocator state: free ranges of the classic arena, first-fit indexed.
  FirstFitIndex classic_free_;
  AddrMap<uint64_t> classic_allocs_;  // addr -> size
  uint64_t classic_used_ = 0;

  // VMM state.
  std::unordered_map<MemHandle, uint64_t> handles_;          // handle -> size
  std::unordered_map<MemHandle, bool> handle_mapped_;        // handle -> currently mapped
  std::map<VaPtr, Reservation> reservations_;
  uint64_t handle_used_ = 0;
  uint64_t next_handle_ = 1;
  uint64_t next_va_ = 0;

  uint64_t physical_peak_ = 0;
};

}  // namespace stalloc

#endif  // SRC_GPU_SIM_DEVICE_H_
