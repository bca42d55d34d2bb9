// STAllocAllocator: the Runtime Allocator (§6) — the composition the paper ships as a PyTorch
// PluggableAllocator.
//
// At initialization it reserves one contiguous static memory pool of exactly the planned size
// (one native allocation; no further device API calls on the hot path, §8). At runtime the
// Request Matcher routes each request:
//   * static requests -> the Static Allocator (§6.1): pre-planned addresses served in plan
//     order with O(1) lookup; a size mismatch against the plan falls through to the caching
//     allocator ("plan mismatch" path in Fig. 5);
//   * dynamic requests -> the Dynamic Allocator (§6.2): best fit among the pool's currently free
//     intervals A_a inside the group's pre-vetted Dynamic Reusable Space A_i (Eq. 7); on lack of
//     space it falls back ("lack of space" path);
//   * anything unexpected -> the caching fallback (a CachingPool), guaranteeing robustness.
//
// The pool's free space A_a is held as it is: a FirstFitIndex over [0, pool_size) that every
// pool malloc carves from and every pool free returns to, next to a hash map from pool offset
// to padded size. A static hit carves its planned range only if one free range covers it (an
// earlier mismatch may have left it occupied); a dynamic request walks the free ranges clipped
// to each interval of A_i. The group (ls, le) of a dynamic request is resolved with one hash
// lookup: at construction every alloc layer's expected_le row becomes a flat row of region
// pointers, indexed by the layer's arrival counter.

#ifndef SRC_CORE_STALLOC_ALLOCATOR_H_
#define SRC_CORE_STALLOC_ALLOCATOR_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#include "src/allocators/caching_allocator.h"
#include "src/common/addr_map.h"
#include "src/core/dynamic_space.h"
#include "src/core/plan.h"
#include "src/gpu/sim_device.h"
#include "src/interval/first_fit_index.h"

namespace stalloc {

struct STAllocConfig {
  // Fig. 13 ablation: disable reuse of static-pool idle space by dynamic requests ("STAlloc w/o
  // reuse"); dynamic requests then always use the caching fallback.
  bool enable_dynamic_reuse = true;
};

// The runtime configuration of the named plan kind: "stalloc-noreuse" is the Fig. 13 ablation
// without dynamic reuse; every other plan kind runs full STAlloc.
STAllocConfig STAllocConfigFor(std::string_view allocator);

// Per-path counters for the performance breakdown (§9.4, Table 3).
struct STAllocBreakdown {
  uint64_t static_hits = 0;        // served at a planned address
  uint64_t static_mismatches = 0;  // static request that missed the plan -> fallback
  uint64_t dynamic_reuse_hits = 0; // dynamic request served inside the static pool
  uint64_t dynamic_fallbacks = 0;  // dynamic request served by the caching fallback
  uint64_t static_bytes = 0;       // bytes served from the plan
  uint64_t dynamic_reuse_bytes = 0;
  uint64_t fallback_bytes = 0;     // bytes served by the caching fallback (both causes)
};

class STAllocAllocator final : public AllocatorBase {
 public:
  STAllocAllocator(SimDevice* device, StaticPlan plan, DynamicReusableSpace dyn_space,
                   STAllocConfig config = STAllocConfig{});
  ~STAllocAllocator() override;

  // Reserves the static pool. Returns false when the device cannot provide it (theoretical OOM).
  bool Init();

  std::string_view name() const override { return "stalloc"; }
  uint64_t ReservedBytes() const override;
  void EmptyCache() override { fallback_.EmptyCache(); }
  void AppendHeapSegments(std::vector<telemetry::HeapSegment>* out) const override;
  // Resets the matcher and the per-layer dynamic counters for the next iteration.
  void EndIteration() override;

  const STAllocBreakdown& breakdown() const { return breakdown_; }
  uint64_t pool_size() const { return plan_.pool_size; }

 protected:
  std::optional<uint64_t> DoMalloc(uint64_t size, const RequestContext& ctx) override;
  void DoFree(uint64_t addr, uint64_t size) override;

 private:
  // Static matcher lookahead: how many pending plan decisions to scan for a size match before
  // declaring a plan mismatch.
  static constexpr size_t kMatcherWindow = 64;

  bool InPool(uint64_t addr) const {
    return pool_base_ != 0 && addr >= pool_base_ && addr < pool_base_ + plan_.pool_size;
  }
  std::optional<uint64_t> StaticMalloc(uint64_t size);
  std::optional<uint64_t> DynamicMalloc(uint64_t size, const RequestContext& ctx);

  SimDevice* device_;
  StaticPlan plan_;
  DynamicReusableSpace dyn_space_;
  STAllocConfig config_;
  CachingPool fallback_;

  uint64_t pool_base_ = 0;
  // Matcher state: plan decisions are consumed roughly in order; used_ marks out-of-order hits.
  size_t cursor_ = 0;
  std::vector<bool> used_;
  // The pool's free space (A_a of §6.2), pool-relative, and its live blocks: pool-relative addr
  // -> padded size. Together they tile [0, pool_size).
  FirstFitIndex pool_free_;
  AddrMap<uint64_t> pool_live_;
  // Dynamic matcher, resolved from dyn_space_ at construction. Alloc layer ls (keyed by its 32
  // bits) owns slot s = layer_slot_[ls]; its k-th dynamic request of an iteration belongs to the
  // group whose region is group_regions_[row_start_[s] + k] (nullptr when the plan has no region
  // row for it), for k < row_start_[s + 1] - row_start_[s]. layer_counters_[s] counts the
  // layer's dynamic requests this iteration.
  AddrMap<uint32_t> layer_slot_;
  std::vector<size_t> row_start_;
  std::vector<const std::vector<Interval>*> group_regions_;
  std::vector<uint64_t> layer_counters_;

  STAllocBreakdown breakdown_;
};

}  // namespace stalloc

#endif  // SRC_CORE_STALLOC_ALLOCATOR_H_
