// ExpandableSegmentsAllocator: reimplementation of PyTorch's `expandable_segments:True` mode
// (the "PyTorch ES" baseline, available since PyTorch 2.1).
//
// Instead of many fixed cudaMalloc segments, large-pool memory lives in expandable segments —
// one per CUDA stream, as in PyTorch: a big virtual-address reservation into which physical
// memory is mapped at 2 MiB granularity as the high-water mark grows. Because all large blocks
// of a stream share one contiguous virtual range, freed holes can be reused by requests of any
// size — that is the defragmentation benefit. The costs are (1) VMM API traffic: growing maps
// granule handles, trimming unmaps them, each call carrying a synchronization penalty (the
// paper's ES throughput regression under recompute churn, §9.2/§9.3), and (2) per-stream
// isolation: a stream's mapped memory is not reusable by other streams.
//
// Small requests (<= 1 MiB) use a classic caching small pool, as in PyTorch. Each stream's
// mapped prefix is one BlockArena segment that grows and trims at its tail, inside a virtual
// reservation of the device's capacity.

#ifndef SRC_ALLOCATORS_EXPANDABLE_SEGMENTS_H_
#define SRC_ALLOCATORS_EXPANDABLE_SEGMENTS_H_

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "src/allocators/caching_allocator.h"
#include "src/allocators/free_index.h"
#include "src/gpu/sim_device.h"

namespace stalloc {

struct ExpandableSegmentsConfig {
  // When the free tail of a segment exceeds this, trailing granules are unmapped. PyTorch is
  // lazy: it unmaps only under memory pressure or on empty_cache — hence the "never" default.
  // Pressure-driven trimming still happens regardless (Grow retries after trimming all
  // streams), which is where the paper's ES map/unmap churn comes from on near-full devices.
  uint64_t trim_threshold = ~uint64_t{0};
};

class ExpandableSegmentsAllocator final : public AllocatorBase {
 public:
  ExpandableSegmentsAllocator(SimDevice* device,
                              ExpandableSegmentsConfig config = ExpandableSegmentsConfig{});
  ~ExpandableSegmentsAllocator() override;

  std::string_view name() const override { return "torch-expandable"; }
  uint64_t ReservedBytes() const override;
  void EmptyCache() override;
  void AppendHeapSegments(std::vector<telemetry::HeapSegment>* out) const override;

  // Introspection for tests: mapped bytes across all stream segments.
  uint64_t mapped_bytes() const;

 protected:
  std::optional<uint64_t> DoMalloc(uint64_t size, const RequestContext& ctx) override;
  void DoFree(uint64_t addr, uint64_t size) override;

 private:
  // Per-stream expandable segment: a VA reservation whose mapped prefix is the stream's arena
  // segment (its pool is the stream).
  struct StreamSegment {
    VaPtr va = 0;
    uint64_t va_size = 0;
    BlockArena::SegmentId id = 0;
    std::map<uint64_t, MemHandle> granule_handles;  // offset -> handle (one per granule)
  };
  // Virtual space: any remainder of at least one 512 B block is worth splitting off.
  static constexpr uint64_t kMinSplit = 512;

  uint64_t MappedEnd(const StreamSegment& seg) const { return arena_.segment(seg.id).size; }
  StreamSegment& SegmentFor(StreamId stream);
  std::optional<uint64_t> LargeMalloc(StreamSegment& seg, uint64_t rounded);
  // Grows the mapped frontier by `bytes` (granularity-rounded). Returns false on device OOM.
  bool Grow(StreamSegment& seg, uint64_t bytes);
  // Unmaps fully-free granules at the mapped frontier down to the start of the tail free block,
  // when that block is at least `threshold` bytes.
  void TrimTail(StreamSegment& seg, uint64_t threshold);

  SimDevice* device_;
  const ExpandableSegmentsConfig config_;
  CachingPool small_pool_;
  BlockArena arena_;
  std::map<StreamId, StreamSegment> streams_;
};

}  // namespace stalloc

#endif  // SRC_ALLOCATORS_EXPANDABLE_SEGMENTS_H_
