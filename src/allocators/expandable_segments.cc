#include "src/allocators/expandable_segments.h"

#include <algorithm>
#include <cstdint>
#include <map>
#include <optional>
#include <utility>
#include <vector>

#include "src/common/check.h"

namespace stalloc {

ExpandableSegmentsAllocator::ExpandableSegmentsAllocator(SimDevice* device,
                                                         ExpandableSegmentsConfig config)
    : device_(device), config_(config), small_pool_(device) {}

ExpandableSegmentsAllocator::~ExpandableSegmentsAllocator() {
  for (auto& [stream, seg] : streams_) {
    for (const auto& [off, handle] : seg.granule_handles) {
      device_->MemUnmap(seg.va, off, SimDevice::kGranularity);
      device_->MemRelease(handle);
    }
    device_->FreeVa(seg.va);
  }
}

ExpandableSegmentsAllocator::StreamSegment& ExpandableSegmentsAllocator::SegmentFor(
    StreamId stream) {
  auto it = streams_.find(stream);
  if (it != streams_.end()) {
    return it->second;
  }
  StreamSegment seg;
  seg.va_size = AlignUp(device_->capacity(), SimDevice::kGranularity);
  auto va = device_->ReserveVa(seg.va_size);
  STALLOC_CHECK(va.has_value(), << "VA reservation failed");
  seg.va = *va;
  seg.id = arena_.AddSegment(seg.va, 0, stream, 0, kMinSplit);  // nothing mapped yet
  return streams_.emplace(stream, std::move(seg)).first->second;
}

uint64_t ExpandableSegmentsAllocator::mapped_bytes() const {
  uint64_t total = 0;
  for (const auto& [stream, seg] : streams_) {
    total += MappedEnd(seg);
  }
  return total;
}

uint64_t ExpandableSegmentsAllocator::ReservedBytes() const {
  return mapped_bytes() + small_pool_.ReservedBytes();
}

std::optional<uint64_t> ExpandableSegmentsAllocator::DoMalloc(uint64_t size,
                                                              const RequestContext& ctx) {
  if (CachingPool::IsSmall(size)) {
    return small_pool_.Malloc(size, ctx.stream);
  }
  return LargeMalloc(SegmentFor(ctx.stream), AlignUp(size, 512));
}

void ExpandableSegmentsAllocator::DoFree(uint64_t addr, uint64_t size) {
  if (CachingPool::IsSmall(size)) {
    small_pool_.Free(addr);
    return;
  }
  const BlockArena::Released released = arena_.Release(addr);
  const auto stream = static_cast<StreamId>(arena_.segment(released.segment).pool);
  TrimTail(streams_.at(stream), config_.trim_threshold);
}

std::optional<uint64_t> ExpandableSegmentsAllocator::LargeMalloc(StreamSegment& seg,
                                                                 uint64_t rounded) {
  const BlockArena::PoolId pool = arena_.segment(seg.id).pool;
  auto addr = arena_.Take(pool, rounded, kMinSplit);
  if (!addr.has_value()) {
    // No hole fits: grow the frontier. If a free block ends exactly at the frontier we only need
    // the difference.
    const uint64_t tail_free = arena_.TailFree(seg.id);
    const uint64_t need = rounded > tail_free ? rounded - tail_free : 0;
    if (need > 0 && !Grow(seg, AlignUp(need, SimDevice::kGranularity))) {
      return std::nullopt;
    }
    addr = arena_.Take(pool, rounded, kMinSplit);
    STALLOC_CHECK(addr.has_value(), << "expandable segment grow did not produce a fit");
  }
  return addr;
}

bool ExpandableSegmentsAllocator::Grow(StreamSegment& seg, uint64_t bytes) {
  STALLOC_CHECK_EQ(bytes % SimDevice::kGranularity, 0u);
  const uint64_t mapped_end = MappedEnd(seg);
  if (mapped_end + bytes > seg.va_size) {
    return false;  // virtual reservation exhausted
  }
  // Map one granule handle at a time, as PyTorch does (granular handles allow partial unmap).
  std::vector<std::pair<uint64_t, MemHandle>> created;
  for (uint64_t off = mapped_end; off < mapped_end + bytes; off += SimDevice::kGranularity) {
    auto h = device_->MemCreate(SimDevice::kGranularity);
    if (!h.has_value()) {
      // Device OOM: let the small pool return cached segments and *other* streams trim, then
      // retry once. The growing segment itself must not be trimmed — its frontier is the very
      // region being extended.
      small_pool_.EmptyCache();
      for (auto& [stream, other] : streams_) {
        if (&other != &seg) {
          TrimTail(other, /*threshold=*/1);
        }
      }
      h = device_->MemCreate(SimDevice::kGranularity);
    }
    if (!h.has_value()) {
      // Roll back partial growth.
      for (auto& [o, handle] : created) {
        device_->MemUnmap(seg.va, o, SimDevice::kGranularity);
        device_->MemRelease(handle);
      }
      return false;
    }
    STALLOC_CHECK(device_->MemMap(seg.va, off, *h) == DeviceStatus::kOk);
    created.emplace_back(off, *h);
  }
  for (auto& [off, handle] : created) {
    seg.granule_handles.emplace(off, handle);
  }
  arena_.GrowTail(seg.id, bytes);  // extends the tail free block or opens a new one
  return true;
}

void ExpandableSegmentsAllocator::TrimTail(StreamSegment& seg, uint64_t threshold) {
  const uint64_t tail_free = arena_.TailFree(seg.id);
  if (tail_free == 0 || tail_free < threshold) {
    return;
  }
  // Unmap whole granules above the free block's (granularity-aligned) start.
  const uint64_t mapped_end = MappedEnd(seg);
  const uint64_t new_end = AlignUp(mapped_end - tail_free, SimDevice::kGranularity);
  if (new_end >= mapped_end) {
    return;
  }
  for (uint64_t off = new_end; off < mapped_end; off += SimDevice::kGranularity) {
    auto hit = seg.granule_handles.find(off);
    STALLOC_CHECK(hit != seg.granule_handles.end());
    STALLOC_CHECK(device_->MemUnmap(seg.va, off, SimDevice::kGranularity) == DeviceStatus::kOk);
    STALLOC_CHECK(device_->MemRelease(hit->second) == DeviceStatus::kOk);
    seg.granule_handles.erase(hit);
  }
  arena_.TrimTail(seg.id, new_end);
}

void ExpandableSegmentsAllocator::EmptyCache() {
  small_pool_.EmptyCache();
  for (auto& [stream, seg] : streams_) {
    TrimTail(seg, /*threshold=*/1);
  }
}

void ExpandableSegmentsAllocator::AppendHeapSegments(
    std::vector<telemetry::HeapSegment>* out) const {
  // Only the mapped prefix of each stream's VA reservation is real reserved memory.
  for (const auto& [stream, seg] : streams_) {
    if (MappedEnd(seg) == 0) {
      continue;
    }
    telemetry::HeapSegment s;
    s.base = seg.va;
    s.size = MappedEnd(seg);
    s.stream = stream;
    s.pool = "expandable";
    out->push_back(std::move(s));
  }
  small_pool_.AppendHeapSegments(out);
}

}  // namespace stalloc
