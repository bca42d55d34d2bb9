#include "src/gpu/sim_device.h"

#include <algorithm>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "src/common/check.h"

namespace stalloc {

namespace {

// Classic allocations live in [kClassicBase, kClassicBase + capacity).
constexpr uint64_t kClassicBase = 0x0000'7000'0000'0000ull;
// Virtual reservations are handed out from a separate, effectively unbounded region.
constexpr uint64_t kVaBase = 0x0000'A000'0000'0000ull;

}  // namespace

SimDevice::SimDevice(uint64_t capacity_bytes, DeviceCostModel cost)
    : capacity_(capacity_bytes), cost_(cost) {
  STALLOC_CHECK(capacity_bytes > 0);
  STALLOC_CHECK_LE(capacity_bytes, kMaxCapacity,
                   << "device capacity above SimDevice::kMaxCapacity");
  classic_free_.Insert(kClassicBase, kClassicBase + capacity_);
  next_va_ = kVaBase;
}

void SimDevice::UpdatePeak() { physical_peak_ = std::max(physical_peak_, physical_used()); }

std::optional<DevPtr> SimDevice::DevMalloc(uint64_t size) {
  ++counters_.cuda_malloc;
  Charge(cost_.cuda_malloc_us);
  // A request larger than the device fails before rounding, which could wrap near 2^64.
  if (size == 0 || size > capacity_) {
    return std::nullopt;
  }
  const uint64_t aligned = AlignUp(size, kMallocAlign);
  // Physical budget check: classic allocations and VMM handles share the same physical memory.
  if (physical_used() + aligned > capacity_) {
    return std::nullopt;
  }
  // The lowest-addressed free region that fits: the first-fit placement cudaMalloc models.
  const std::optional<DevPtr> fit = classic_free_.TakeFirstFit(aligned);
  if (!fit.has_value()) {
    return std::nullopt;  // address space fragmented (rare: arena == capacity)
  }
  const DevPtr addr = *fit;
  classic_allocs_.Insert(addr, aligned);
  classic_used_ += aligned;
  UpdatePeak();
  return addr;
}

DeviceStatus SimDevice::DevFree(DevPtr ptr) {
  ++counters_.cuda_free;
  Charge(cost_.cuda_free_us);
  const uint64_t* size = classic_allocs_.Find(ptr);
  if (size == nullptr) {
    return DeviceStatus::kInvalidArgument;
  }
  classic_free_.Insert(ptr, ptr + *size);
  classic_used_ -= *size;
  classic_allocs_.Erase(ptr);
  return DeviceStatus::kOk;
}

std::optional<VaPtr> SimDevice::ReserveVa(uint64_t size) {
  ++counters_.va_reserve;
  Charge(cost_.va_reserve_us);
  // The guard gap must fit too; a reservation past the top of the 64-bit space fails.
  if (size == 0 || size % kMinGranularity != 0 || size > ~uint64_t{0} - kGranularity - next_va_) {
    return std::nullopt;
  }
  const VaPtr va = next_va_;
  next_va_ += size + kGranularity;  // guard gap between reservations
  Reservation r;
  r.size = size;
  reservations_.emplace(va, std::move(r));
  return va;
}

DeviceStatus SimDevice::FreeVa(VaPtr va) {
  ++counters_.va_free;
  Charge(cost_.va_free_us);
  auto it = reservations_.find(va);
  if (it == reservations_.end()) {
    return DeviceStatus::kInvalidArgument;
  }
  // CUDA requires unmapping before freeing the reservation; enforce it.
  if (!it->second.mappings.empty()) {
    return DeviceStatus::kInvalidArgument;
  }
  reservations_.erase(it);
  return DeviceStatus::kOk;
}

std::optional<MemHandle> SimDevice::MemCreate(uint64_t size) {
  ++counters_.mem_create;
  Charge(cost_.mem_create_us);
  if (size == 0 || size % kMinGranularity != 0) {
    return std::nullopt;
  }
  if (size > capacity_ - physical_used()) {  // cannot wrap: physical_used() <= capacity_
    return std::nullopt;
  }
  const MemHandle h = next_handle_++;
  handles_.emplace(h, size);
  handle_mapped_.emplace(h, false);
  handle_used_ += size;
  UpdatePeak();
  return h;
}

DeviceStatus SimDevice::MemRelease(MemHandle handle) {
  ++counters_.mem_release;
  Charge(cost_.mem_release_us);
  auto it = handles_.find(handle);
  if (it == handles_.end()) {
    return DeviceStatus::kInvalidArgument;
  }
  if (handle_mapped_[handle]) {
    return DeviceStatus::kInvalidArgument;  // must unmap first
  }
  handle_used_ -= it->second;
  handles_.erase(it);
  handle_mapped_.erase(handle);
  return DeviceStatus::kOk;
}

DeviceStatus SimDevice::MemMap(VaPtr va, uint64_t offset, MemHandle handle) {
  ++counters_.mem_map;
  Charge(cost_.mem_map_us + cost_.vmm_sync_penalty_us);
  auto rit = reservations_.find(va);
  if (rit == reservations_.end()) {
    return DeviceStatus::kInvalidArgument;
  }
  auto hit = handles_.find(handle);
  if (hit == handles_.end()) {
    return DeviceStatus::kInvalidArgument;
  }
  if (handle_mapped_[handle]) {
    return DeviceStatus::kInvalidArgument;  // a handle maps at most once
  }
  const uint64_t size = hit->second;
  if (offset % kMinGranularity != 0 || offset + size > rit->second.size) {
    return DeviceStatus::kInvalidArgument;
  }
  // Overlap check against existing mappings.
  auto& mappings = rit->second.mappings;
  auto next = mappings.lower_bound(offset);
  if (next != mappings.end() && next->first < offset + size) {
    return DeviceStatus::kInvalidArgument;
  }
  if (next != mappings.begin()) {
    auto prev = std::prev(next);
    if (prev->first + handles_.at(prev->second) > offset) {
      return DeviceStatus::kInvalidArgument;
    }
  }
  mappings.emplace(offset, handle);
  handle_mapped_[handle] = true;
  return DeviceStatus::kOk;
}

DeviceStatus SimDevice::MemUnmap(VaPtr va, uint64_t offset, uint64_t size) {
  ++counters_.mem_unmap;
  Charge(cost_.mem_unmap_us + cost_.vmm_sync_penalty_us);
  auto rit = reservations_.find(va);
  if (rit == reservations_.end()) {
    return DeviceStatus::kInvalidArgument;
  }
  auto& mappings = rit->second.mappings;
  // The range must exactly cover a run of whole mappings.
  uint64_t cursor = offset;
  const uint64_t end = offset + size;
  std::vector<uint64_t> to_erase;
  auto it = mappings.find(offset);
  while (cursor < end) {
    if (it == mappings.end() || it->first != cursor) {
      return DeviceStatus::kInvalidArgument;
    }
    const uint64_t hsize = handles_.at(it->second);
    if (cursor + hsize > end) {
      return DeviceStatus::kInvalidArgument;
    }
    to_erase.push_back(it->first);
    cursor += hsize;
    ++it;
  }
  for (uint64_t off : to_erase) {
    handle_mapped_[mappings.at(off)] = false;
    mappings.erase(off);
  }
  return DeviceStatus::kOk;
}

}  // namespace stalloc
