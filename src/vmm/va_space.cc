#include "src/vmm/va_space.h"

#include <algorithm>

#include "src/common/check.h"

namespace stalloc {

VaSpace::VaSpace(SimDevice* device, uint64_t size, uint64_t granularity)
    : device_(device), size_(size), granularity_(granularity) {
  STALLOC_CHECK(size > 0 && size % granularity == 0,
                << "VA size " << size << " not a multiple of granularity " << granularity);
  auto va = device_->ReserveVa(size);
  STALLOC_CHECK(va.has_value(), << "VA reservation of " << size << " bytes failed");
  va_ = *va;
  pages_.assign(num_pages(), kNoHandle);
}

VaSpace::~VaSpace() {
  for (uint64_t page = first_mapped_; page < end_mapped_; ++page) {
    if (IsMapped(page)) {
      STALLOC_CHECK(device_->MemUnmap(va_, page * granularity_, granularity_) ==
                    DeviceStatus::kOk);
      STALLOC_CHECK(device_->MemRelease(pages_[page]) == DeviceStatus::kOk);
    }
  }
  STALLOC_CHECK(device_->FreeVa(va_) == DeviceStatus::kOk);
}

void VaSpace::MapPage(uint64_t page, MemHandle handle) {
  STALLOC_CHECK_LT(page, num_pages(), << "VMM map outside the reservation");
  STALLOC_CHECK(!IsMapped(page), << "VMM double map of page " << page);
  STALLOC_CHECK_NE(handle, kNoHandle, << "VMM map of the no-handle sentinel");
  STALLOC_CHECK(device_->MemMap(va_, page * granularity_, handle) == DeviceStatus::kOk);
  pages_[page] = handle;
  if (mapped_++ == 0) {
    first_mapped_ = page;
    end_mapped_ = page + 1;
  } else {
    first_mapped_ = std::min(first_mapped_, page);
    end_mapped_ = std::max(end_mapped_, page + 1);
  }
}

MemHandle VaSpace::UnmapPage(uint64_t page) {
  STALLOC_CHECK(page < num_pages() && IsMapped(page), << "VMM unmap of unmapped page " << page);
  const MemHandle handle = pages_[page];
  STALLOC_CHECK(device_->MemUnmap(va_, page * granularity_, granularity_) == DeviceStatus::kOk);
  pages_[page] = kNoHandle;
  if (--mapped_ == 0) {
    first_mapped_ = end_mapped_ = 0;
    return handle;
  }
  // Keep [first_mapped_, end_mapped_) tight: a mapped page remains on each side.
  while (pages_[first_mapped_] == kNoHandle) {
    ++first_mapped_;
  }
  while (pages_[end_mapped_ - 1] == kNoHandle) {
    --end_mapped_;
  }
  return handle;
}

}  // namespace stalloc
