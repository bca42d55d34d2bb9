#include "src/allocators/paged_kv.h"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "src/common/check.h"

namespace stalloc {

PagedKVAllocator::PagedKVAllocator(SimDevice* device, PagedKVConfig config)
    : device_(device), config_(config) {
  STALLOC_CHECK(config_.block_bytes > 0);
  STALLOC_CHECK(config_.slab_blocks > 0);
}

PagedKVAllocator::~PagedKVAllocator() {
  // Return every slab and passthrough block so a shared SimDevice's accounting stays clean.
  for (const auto& [base, slab] : slabs_) {
    device_->DevFree(base);
  }
  passthrough_.ForEach([this](uint64_t addr, uint64_t) { device_->DevFree(addr); });
}

bool PagedKVAllocator::GrowPool() {
  // Shrink the slab under device pressure: a smaller contiguous run may still fit.
  for (uint64_t blocks = config_.slab_blocks; blocks >= 1; blocks /= 2) {
    auto base = device_->DevMalloc(blocks * config_.block_bytes);
    if (!base.has_value()) {
      continue;
    }
    slabs_.emplace(*base, Slab{blocks, blocks});
    for (uint64_t b = 0; b < blocks; ++b) {
      free_blocks_.insert(*base + b * config_.block_bytes);
    }
    reserved_ += SlabBytes(blocks);
    return true;
  }
  return false;
}

std::map<uint64_t, PagedKVAllocator::Slab>::iterator PagedKVAllocator::SlabOf(uint64_t addr) {
  auto it = slabs_.upper_bound(addr);
  STALLOC_CHECK(it != slabs_.begin(), << "paged-kv free of unknown pool block " << addr);
  --it;
  STALLOC_CHECK_LT(addr, it->first + it->second.blocks * config_.block_bytes,
                   << "paged-kv free of unknown pool block " << addr);
  return it;
}

std::optional<uint64_t> PagedKVAllocator::DoMalloc(uint64_t size, const RequestContext& ctx) {
  (void)ctx;
  if (size <= config_.block_bytes) {
    if (free_blocks_.empty() && !GrowPool()) {
      return std::nullopt;
    }
    const auto it = free_blocks_.begin();
    const uint64_t addr = *it;
    free_blocks_.erase(it);
    --SlabOf(addr)->second.free;
    return addr;
  }
  // Non-KV-sized request (weights, prefill activations): native passthrough, with one retry
  // after releasing cached free slabs — mirroring the caching allocator's OOM protocol.
  auto addr = device_->DevMalloc(size);
  if (!addr.has_value()) {
    EmptyCache();
    addr = device_->DevMalloc(size);
    if (!addr.has_value()) {
      return std::nullopt;
    }
  }
  passthrough_.Insert(*addr, size);
  reserved_ += AlignUp(size, SimDevice::kMallocAlign);
  return addr;
}

void PagedKVAllocator::DoFree(uint64_t addr, uint64_t size) {
  // The request size routes a free exactly as it routed the malloc.
  if (size <= config_.block_bytes) {
    const auto slab = SlabOf(addr);
    const bool inserted = free_blocks_.insert(addr).second;
    STALLOC_CHECK(inserted, << "double free of pool block " << addr);
    ++slab->second.free;
    return;
  }
  const uint64_t* recorded = passthrough_.Find(addr);
  STALLOC_CHECK(recorded != nullptr, << "paged-kv free of unknown address " << addr);
  STALLOC_CHECK_EQ(*recorded, size);
  device_->DevFree(addr);
  reserved_ -= AlignUp(size, SimDevice::kMallocAlign);
  passthrough_.Erase(addr);
}

void PagedKVAllocator::EmptyCache() {
  std::vector<uint64_t> releasable;
  for (const auto& [base, slab] : slabs_) {
    if (slab.free == slab.blocks) {
      releasable.push_back(base);
    }
  }
  for (uint64_t base : releasable) {
    const Slab slab = slabs_.at(base);
    // A fully-free slab's blocks are exactly the free blocks inside its address range.
    free_blocks_.erase(free_blocks_.lower_bound(base),
                       free_blocks_.lower_bound(base + slab.blocks * config_.block_bytes));
    device_->DevFree(base);
    reserved_ -= SlabBytes(slab.blocks);
    slabs_.erase(base);
  }
}

void PagedKVAllocator::AppendHeapSegments(std::vector<telemetry::HeapSegment>* out) const {
  for (const auto& [base, slab] : slabs_) {
    telemetry::HeapSegment s;
    s.base = base;
    s.size = SlabBytes(slab.blocks);
    s.pool = "slab";
    out->push_back(std::move(s));
  }
  // The passthrough table is unordered; direct segments are reported by address.
  const size_t first_direct = out->size();
  passthrough_.ForEach([out](uint64_t addr, uint64_t size) {
    telemetry::HeapSegment s;
    s.base = addr;
    s.size = AlignUp(size, SimDevice::kMallocAlign);
    s.pool = "direct";
    out->push_back(std::move(s));
  });
  std::sort(out->begin() + static_cast<ptrdiff_t>(first_direct), out->end(),
            [](const telemetry::HeapSegment& a, const telemetry::HeapSegment& b) {
              return a.base < b.base;
            });
}

}  // namespace stalloc
