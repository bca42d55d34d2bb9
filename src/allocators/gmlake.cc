#include "src/allocators/gmlake.h"

#include <algorithm>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "src/common/check.h"
#include "src/telemetry/metrics.h"
#include "src/telemetry/telemetry.h"
#include "src/telemetry/tracer.h"

namespace stalloc {

GMLakeAllocator::GMLakeAllocator(SimDevice* device, GMLakeConfig config)
    : device_(device), config_(config), small_pool_(device) {}

GMLakeAllocator::~GMLakeAllocator() {
  for (BlockArena::SegmentId id = 0; id < arena_.num_segments(); ++id) {
    const BlockArena::Segment& seg = arena_.segment(id);
    if (!seg.live) {
      continue;
    }
    uint64_t off = 0;
    for (const auto& part : backings_[id].handles) {
      device_->MemUnmap(seg.base, off, part.size);
      device_->MemRelease(part.handle);
      off += part.size;
    }
    device_->FreeVa(seg.base);
  }
}

uint64_t GMLakeAllocator::ReservedBytes() const {
  return reserved_large_ + small_pool_.ReservedBytes();
}

uint64_t GMLakeAllocator::SegmentSizeFor(uint64_t rounded) {
  if (rounded < CachingPool::kMinLargeAlloc) {
    return CachingPool::kLargeBuffer;
  }
  return AlignUp(rounded, SimDevice::kGranularity);
}

std::optional<uint64_t> GMLakeAllocator::DoMalloc(uint64_t size, const RequestContext& ctx) {
  if (CachingPool::IsSmall(size)) {
    return small_pool_.Malloc(size, ctx.stream);
  }
  return LargeMalloc(AlignUp(size, 512), ctx.stream);
}

void GMLakeAllocator::DoFree(uint64_t addr, uint64_t size) {
  if (CachingPool::IsSmall(size)) {
    small_pool_.Free(addr);
    return;
  }
  arena_.Release(addr);
}

std::optional<uint64_t> GMLakeAllocator::LargeMalloc(uint64_t rounded, StreamId stream) {
  if (auto addr = arena_.Take(stream, rounded, kMinSplit); addr.has_value()) {
    return addr;
  }
  if (auto addr = AllocFromNewSegment(rounded, stream); addr.has_value()) {
    return addr;
  }
  // Physical memory is exhausted. Above the fragLimit threshold, defragment by stitching the
  // physical handles of free pBlocks into a fresh contiguous virtual range.
  if (rounded >= config_.frag_limit) {
    if (auto addr = AllocByStitching(rounded, stream); addr.has_value()) {
      return addr;
    }
  }
  // Last resort: release every cached free segment and retry a fresh physical allocation.
  if (ReleaseCachedSegments() > 0) {
    return AllocFromNewSegment(rounded, stream);
  }
  return std::nullopt;
}

std::optional<uint64_t> GMLakeAllocator::AllocFromNewSegment(uint64_t rounded,
                                                             StreamId stream) {
  const uint64_t seg_size = SegmentSizeFor(rounded);
  auto va = device_->ReserveVa(seg_size);
  if (!va.has_value()) {
    return std::nullopt;
  }
  auto handle = device_->MemCreate(seg_size);
  if (!handle.has_value()) {
    device_->FreeVa(*va);
    return std::nullopt;
  }
  STALLOC_CHECK(device_->MemMap(*va, 0, *handle) == DeviceStatus::kOk);
  reserved_large_ += seg_size;
  AddSegment(*va, seg_size, stream, rounded, Backing{{HandlePart{*handle, seg_size}}, false});
  return *va;
}

void GMLakeAllocator::AddSegment(VaPtr va, uint64_t size, StreamId stream, uint64_t rounded,
                                 Backing backing) {
  const BlockArena::SegmentId id = arena_.AddSegment(va, size, stream, rounded, kMinSplit);
  STALLOC_CHECK_EQ(id, backings_.size());
  backings_.push_back(std::move(backing));
}

void GMLakeAllocator::DismantleSegment(BlockArena::SegmentId id, bool release_physical) {
  const BlockArena::Segment& seg = arena_.segment(id);
  const VaPtr va = seg.base;
  const uint64_t size = seg.size;
  arena_.RemoveSegment(id);
  uint64_t off = 0;
  for (const auto& part : backings_[id].handles) {
    STALLOC_CHECK(device_->MemUnmap(va, off, part.size) == DeviceStatus::kOk);
    if (release_physical) {
      STALLOC_CHECK(device_->MemRelease(part.handle) == DeviceStatus::kOk);
    }
    off += part.size;
  }
  STALLOC_CHECK(device_->FreeVa(va) == DeviceStatus::kOk);
  if (release_physical) {
    reserved_large_ -= size;
  }
}

std::optional<uint64_t> GMLakeAllocator::AllocByStitching(uint64_t rounded, StreamId stream) {
  const uint64_t needed = AlignUp(rounded, SimDevice::kGranularity);
  // Gather fully-free same-stream segments, largest first, until their physical memory covers
  // the request (blocks of other streams may still be in flight on their streams).
  std::vector<BlockArena::SegmentId> candidates;
  for (BlockArena::SegmentId id = 0; id < arena_.num_segments(); ++id) {
    if (arena_.FullyFree(id) && arena_.segment(id).pool == stream) {
      candidates.push_back(id);
    }
  }
  std::sort(candidates.begin(), candidates.end(),
            [&](BlockArena::SegmentId a, BlockArena::SegmentId b) {
              return arena_.segment(a).size > arena_.segment(b).size;
            });
  std::vector<BlockArena::SegmentId> picked;
  uint64_t total = 0;
  for (BlockArena::SegmentId id : candidates) {
    if (total >= needed) {
      break;
    }
    picked.push_back(id);
    total += arena_.segment(id).size;
  }
  if (total < needed) {
    return std::nullopt;
  }

  // Unmap the victims (keeping their physical handles) and collect the handles. The physical
  // bytes move into the stitched segment, so reserved_large_ is unchanged.
  std::vector<HandlePart> parts;
  for (BlockArena::SegmentId id : picked) {
    for (const auto& part : backings_[id].handles) {
      parts.push_back(part);
    }
    DismantleSegment(id, /*release_physical=*/false);
  }

  auto va = device_->ReserveVa(total);
  STALLOC_CHECK(va.has_value());
  uint64_t off = 0;
  for (const auto& part : parts) {
    STALLOC_CHECK(device_->MemMap(*va, off, part.handle) == DeviceStatus::kOk);
    off += part.size;
  }
  ++num_stitches_;
  if (telemetry::Enabled()) {
    static telemetry::Counter* stitches =
        telemetry::MetricsRegistry::Global().GetCounter("alloc.gmlake_stitches");
    stitches->Add();
    auto& tracer = telemetry::Tracer::Global();
    Json args = Json::Object();
    args.Set("size", total);
    args.Set("parts", static_cast<unsigned long long>(parts.size()));
    tracer.ThreadTrack()->Instant("gmlake stitch", telemetry::kCatAlloc, tracer.NowUs(),
                                  std::move(args));
  }

  AddSegment(*va, total, stream, rounded, Backing{std::move(parts), true});
  return *va;
}

uint64_t GMLakeAllocator::ReleaseCachedSegments() {
  uint64_t released = 0;
  for (BlockArena::SegmentId id = 0; id < arena_.num_segments(); ++id) {
    if (arena_.FullyFree(id)) {
      released += arena_.segment(id).size;
      DismantleSegment(id, /*release_physical=*/true);
    }
  }
  return released;
}

void GMLakeAllocator::EmptyCache() {
  small_pool_.EmptyCache();
  ReleaseCachedSegments();
}

size_t GMLakeAllocator::num_segments() const {
  size_t n = 0;
  for (BlockArena::SegmentId id = 0; id < arena_.num_segments(); ++id) {
    n += arena_.segment(id).live ? 1 : 0;
  }
  return n;
}

void GMLakeAllocator::AppendHeapSegments(std::vector<telemetry::HeapSegment>* out) const {
  for (BlockArena::SegmentId id = 0; id < arena_.num_segments(); ++id) {
    const BlockArena::Segment& seg = arena_.segment(id);
    if (!seg.live) {
      continue;
    }
    telemetry::HeapSegment s;
    s.base = seg.base;
    s.size = seg.size;
    s.stream = static_cast<StreamId>(seg.pool);
    s.pool = backings_[id].stitched ? "stitched" : "pblock";
    out->push_back(std::move(s));
  }
  small_pool_.AppendHeapSegments(out);
}

}  // namespace stalloc
