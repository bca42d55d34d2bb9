#include "src/allocators/caching_allocator.h"

#include <cstdint>
#include <optional>
#include <utility>

#include "src/telemetry/metrics.h"
#include "src/telemetry/telemetry.h"
#include "src/telemetry/tracer.h"

namespace stalloc {

CachingPool::~CachingPool() {
  // Return every segment to the device so a shared SimDevice's accounting stays clean.
  for (BlockArena::SegmentId id = 0; id < arena_.num_segments(); ++id) {
    if (arena_.segment(id).live) {
      device_->DevFree(arena_.segment(id).base);
    }
  }
}

uint64_t CachingPool::SegmentSizeFor(uint64_t rounded) {
  if (rounded <= kSmallSize) {
    return kSmallBuffer;
  }
  if (rounded < kMinLargeAlloc) {
    return kLargeBuffer;
  }
  return AlignUp(rounded, kRoundLarge);
}

std::optional<uint64_t> CachingPool::AllocFromNewSegment(uint64_t rounded, bool small,
                                                         StreamId stream) {
  const uint64_t seg_size = SegmentSizeFor(rounded);
  auto base = device_->DevMalloc(seg_size);
  if (!base.has_value()) {
    // Device OOM: release cached fully-free segments, then retry once (PyTorch behaviour).
    if (ReleaseCachedSegments() == 0) {
      return std::nullopt;
    }
    base = device_->DevMalloc(seg_size);
    if (!base.has_value()) {
      return std::nullopt;
    }
  }
  reserved_ += seg_size;
  arena_.AddSegment(*base, seg_size, PoolFor(small, stream), rounded, MinSplit(small));
  return *base;
}

std::optional<uint64_t> CachingPool::Malloc(uint64_t size, StreamId stream) {
  const uint64_t rounded = RoundSize(size);
  const bool small = rounded <= kSmallSize;
  if (auto addr = arena_.Take(PoolFor(small, stream), rounded, MinSplit(small));
      addr.has_value()) {
    return addr;
  }
  return AllocFromNewSegment(rounded, small, stream);
}

uint64_t CachingPool::ReleaseCachedSegments() {
  uint64_t released = 0;
  for (BlockArena::SegmentId id = 0; id < arena_.num_segments(); ++id) {
    if (!arena_.FullyFree(id)) {
      continue;
    }
    const BlockArena::Segment& seg = arena_.segment(id);
    device_->DevFree(seg.base);
    reserved_ -= seg.size;
    released += seg.size;
    arena_.RemoveSegment(id);
  }
  return released;
}

void CachingPool::EmptyCache() {
  const uint64_t released = ReleaseCachedSegments();
  if (telemetry::Enabled()) {
    static telemetry::Counter* empties =
        telemetry::MetricsRegistry::Global().GetCounter("alloc.empty_cache_calls");
    empties->Add();
    static telemetry::Counter* bytes =
        telemetry::MetricsRegistry::Global().GetCounter("alloc.empty_cache_bytes");
    bytes->Add(released);
    auto& tracer = telemetry::Tracer::Global();
    Json args = Json::Object();
    args.Set("released", released);
    tracer.ThreadTrack()->Instant("empty_cache", telemetry::kCatAlloc, tracer.NowUs(),
                                  std::move(args));
  }
}

uint64_t CachingPool::cached_free_bytes() const {
  uint64_t total = 0;
  for (BlockArena::SegmentId id = 0; id < arena_.num_segments(); ++id) {
    if (arena_.segment(id).live) {
      total += arena_.segment(id).free_bytes;
    }
  }
  return total;
}

void CachingPool::AppendHeapSegments(std::vector<telemetry::HeapSegment>* out) const {
  for (BlockArena::SegmentId id = 0; id < arena_.num_segments(); ++id) {
    const BlockArena::Segment& seg = arena_.segment(id);
    if (!seg.live) {
      continue;
    }
    telemetry::HeapSegment s;
    s.base = seg.base;
    s.size = seg.size;
    s.stream = StreamOf(seg.pool);
    s.pool = IsSmallPool(seg.pool) ? "small" : "large";
    out->push_back(std::move(s));
  }
}

}  // namespace stalloc
