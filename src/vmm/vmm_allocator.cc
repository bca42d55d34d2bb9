#include "src/vmm/vmm_allocator.h"

#include <algorithm>
#include <utility>

#include "src/common/check.h"
#include "src/telemetry/metrics.h"
#include "src/telemetry/telemetry.h"

namespace stalloc {

VmmAllocator::VmmAllocator(SimDevice* device, VmmConfig config)
    : device_(device), config_(config) {
  if (config_.small_size != 0) {
    small_pool_.emplace(device);
  }
  const uint64_t va_size =
      config_.va_size != 0 ? AlignUp(config_.va_size, config_.granularity)
                           : AlignUp(2 * device_->capacity(), config_.granularity);
  va_ = std::make_unique<VaSpace>(device_, va_size, config_.granularity);
  pool_ = std::make_unique<PhysHandlePool>(device_, config_.granularity);
  arena_.AddSegment(va_->base(), va_size, /*pool=*/0, /*take=*/0, SimDevice::kMallocAlign);
  page_refs_.assign(va_->num_pages(), 0);
}

// Member order does the teardown: pool_ trims its cache back to the device, then VaSpace
// unmaps and releases every still-mapped handle before freeing the reservation.
VmmAllocator::~VmmAllocator() = default;

uint64_t VmmAllocator::ReservedBytes() const {
  return va_->mapped_bytes() + pool_->cached_bytes() +
         (small_pool_ ? small_pool_->ReservedBytes() : 0);
}

std::optional<uint64_t> VmmAllocator::DoMalloc(uint64_t size, const RequestContext& ctx) {
  if (IsSmall(size)) {
    return small_pool_->Malloc(size, ctx.stream);
  }
  return LargeMalloc(AlignUp(size, SimDevice::kMallocAlign));
}

void VmmAllocator::DoFree(uint64_t addr, uint64_t size) {
  if (IsSmall(size)) {
    small_pool_->Free(addr);
    return;
  }
  // Pages stay mapped (lazy, as PyTorch keeps segments): idle pages are the remap reserve and
  // the very fuel of remap-based compaction. EmptyCache returns them to the device.
  AddRefs(addr - va_->base(), arena_.Release(addr).size, -1);
}

std::optional<uint64_t> VmmAllocator::LargeMalloc(uint64_t rounded) {
  auto addr = arena_.Take(/*pool=*/0, rounded, SimDevice::kMallocAlign);
  if (!addr.has_value()) {
    // The VA reservation's block map is exhausted: no hole fits. This is the VMM-specific OOM —
    // virtual, not physical.
    return std::nullopt;
  }
  if (!EnsureMapped(*addr - va_->base(), rounded)) {
    arena_.Release(*addr);
    return std::nullopt;
  }
  return addr;
}

bool VmmAllocator::EnsureMapped(uint64_t off, uint64_t size) {
  AddRefs(off, size, 1);
  const uint64_t first = va_->PageOf(off);
  const uint64_t last = va_->PageOf(off + size - 1);
  std::vector<uint64_t> newly_mapped;
  bool remapped_any = false;
  for (uint64_t page = first; page <= last; ++page) {
    if (va_->IsMapped(page)) {
      continue;
    }
    auto handle = AcquireUnderPressure(&remapped_any);
    if (!handle.has_value()) {
      for (const uint64_t p : newly_mapped) {
        pool_->Release(va_->UnmapPage(p));
        ++vmm_stats_.unmap_calls;
      }
      AddRefs(off, size, -1);
      return false;
    }
    va_->MapPage(page, *handle);
    ++vmm_stats_.map_calls;
    newly_mapped.push_back(page);
  }
  if (remapped_any) {
    ++vmm_stats_.remap_events;
  }
  if (telemetry::Enabled() && !newly_mapped.empty()) {
    telemetry::MetricsRegistry::Global()
        .GetCounter("vmm.map_pages")
        ->Add(newly_mapped.size());
  }
  return true;
}

std::optional<MemHandle> VmmAllocator::AcquireUnderPressure(bool* remapped) {
  auto handle = pool_->Acquire();
  if (handle.has_value()) {
    return handle;
  }
  // Physical memory is exhausted. First choice: relocate one of our own idle pages — mapped,
  // but under no live block. The handle moves at map-call cost; no bytes are copied. This is
  // the remap-based compaction.
  if (config_.remap) {
    auto idle = FindIdlePage();
    if (idle.has_value()) {
      MemHandle h = va_->UnmapPage(*idle);
      ++vmm_stats_.unmap_calls;
      ++vmm_stats_.pages_remapped;
      vmm_stats_.bytes_remapped += config_.granularity;
      *remapped = true;
      if (telemetry::Enabled()) {
        telemetry::MetricsRegistry::Global().GetCounter("vmm.remap_pages")->Add(1);
      }
      return h;
    }
  }
  // No idle page either: return cached memory to the device and retry the create once.
  if (small_pool_) {
    small_pool_->EmptyCache();
  }
  return pool_->Acquire();
}

std::optional<uint64_t> VmmAllocator::FindIdlePage() const {
  for (uint64_t page = va_->end_mapped(); page > va_->first_mapped();) {
    --page;
    if (va_->IsMapped(page) && page_refs_[page] == 0) {
      return page;
    }
  }
  return std::nullopt;
}

void VmmAllocator::AddRefs(uint64_t off, uint64_t size, int delta) {
  const uint64_t first = va_->PageOf(off);
  const uint64_t last = va_->PageOf(off + size - 1);
  for (uint64_t page = first; page <= last; ++page) {
    if (delta < 0) {
      STALLOC_CHECK_GT(page_refs_[page], 0u);
      --page_refs_[page];
    } else {
      ++page_refs_[page];
    }
  }
}

void VmmAllocator::ReleaseIdlePages() {
  // Unmapping only narrows [first_mapped, end_mapped), and never past a page still to visit.
  for (uint64_t page = va_->first_mapped(); page < va_->end_mapped(); ++page) {
    if (va_->IsMapped(page) && page_refs_[page] == 0) {
      pool_->Release(va_->UnmapPage(page));
      ++vmm_stats_.unmap_calls;
    }
  }
}

void VmmAllocator::EmptyCache() {
  if (small_pool_) {
    small_pool_->EmptyCache();
  }
  ReleaseIdlePages();
  pool_->Trim();
}

void VmmAllocator::AppendHeapSegments(std::vector<telemetry::HeapSegment>* out) const {
  // Contiguous mapped-page runs are the reserved memory; unmapped holes in the reservation cost
  // nothing physical and do not appear.
  for (uint64_t page = va_->first_mapped(); page < va_->end_mapped();) {
    if (!va_->IsMapped(page)) {
      ++page;
      continue;
    }
    const uint64_t start = page;
    while (page < va_->end_mapped() && va_->IsMapped(page)) {
      ++page;
    }
    telemetry::HeapSegment s;
    s.base = va_->base() + start * config_.granularity;
    s.size = (page - start) * config_.granularity;
    s.stream = kComputeStream;
    s.pool = "vmm";
    out->push_back(std::move(s));
  }
  if (small_pool_) {
    small_pool_->AppendHeapSegments(out);
  }
}

}  // namespace stalloc
