// VaSpace: one reserved virtual-address range with a page-granular map table.
//
// The CUDA VMM model (cuMemAddressReserve + cuMemMap): the VA range is reserved once, up
// front, and physical handles are mapped and unmapped beneath it page by page. VaSpace owns
// the reservation and the page table; which pages *should* be mapped — and where the handles
// come from — is the allocator's policy (vmm_allocator.cc), not this class's.
//
// The page table is dense: one slot per page of the reservation, holding the mapped handle or
// kNoHandle, with the mapped-page count beside it. IsMapped, MapPage and UnmapPage touch one
// slot. Walks over the mapped pages (teardown here; the idle-page search, idle release and
// heap-segment runs in the allocator) cover only [first_mapped(), end_mapped()), the pages
// between the lowest and the highest mapped page, which UnmapPage keeps tight.

#ifndef SRC_VMM_VA_SPACE_H_
#define SRC_VMM_VA_SPACE_H_

#include <cstdint>
#include <vector>

#include "src/common/check.h"
#include "src/gpu/sim_device.h"

namespace stalloc {

class VaSpace {
 public:
  // Reserves `size` bytes (must be a multiple of `granularity`) of virtual address space.
  // Reservation happens exactly once, here; it cannot fail for lack of space (VA is
  // plentiful), only on misalignment, which aborts.
  VaSpace(SimDevice* device, uint64_t size, uint64_t granularity);
  // Unmaps and releases any still-mapped handles, then frees the reservation. Owners that
  // want cached-handle reuse across teardown must drain the table themselves first.
  ~VaSpace();

  VaSpace(const VaSpace&) = delete;
  VaSpace& operator=(const VaSpace&) = delete;

  VaPtr base() const { return va_; }
  uint64_t size() const { return size_; }
  uint64_t granularity() const { return granularity_; }
  uint64_t num_pages() const { return size_ / granularity_; }
  uint64_t PageOf(uint64_t offset) const { return offset / granularity_; }

  // `page` must be below num_pages().
  bool IsMapped(uint64_t page) const {
    STALLOC_DCHECK_LT(page, num_pages());
    return pages_[page] != kNoHandle;
  }
  uint64_t mapped_bytes() const { return mapped_ * granularity_; }
  // The lowest mapped page and one past the highest; equal (both 0) when nothing is mapped.
  uint64_t first_mapped() const { return first_mapped_; }
  uint64_t end_mapped() const { return end_mapped_; }

  // Maps `handle` (granularity() bytes, currently unmapped) at page index `page`. The target
  // page must be inside the reservation and unmapped; violations abort — the allocator's page
  // accounting, not the device, decides what gets mapped where.
  void MapPage(uint64_t page, MemHandle handle);

  // Unmaps page `page` and returns the handle that was mapped there, ready for remapping
  // elsewhere or release.
  MemHandle UnmapPage(uint64_t page);

 private:
  // SimDevice numbers handles from 1, so no mapped handle is ever 0.
  static constexpr MemHandle kNoHandle = 0;

  SimDevice* device_;
  VaPtr va_ = 0;
  uint64_t size_;
  uint64_t granularity_;
  std::vector<MemHandle> pages_;  // page index -> mapped handle, or kNoHandle
  uint64_t mapped_ = 0;
  uint64_t first_mapped_ = 0;
  uint64_t end_mapped_ = 0;
};

}  // namespace stalloc

#endif  // SRC_VMM_VA_SPACE_H_
