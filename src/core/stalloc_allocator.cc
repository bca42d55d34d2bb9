#include "src/core/stalloc_allocator.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <optional>
#include <utility>

#include "src/common/check.h"
#include "src/common/units.h"

namespace stalloc {

namespace {

// A layer id as a layer-table key: its 32 bits, so no id collides with AddrMap's empty key.
uint64_t LayerKey(LayerId layer) { return static_cast<uint32_t>(layer); }

}  // namespace

STAllocConfig STAllocConfigFor(std::string_view allocator) {
  STAllocConfig config;
  config.enable_dynamic_reuse = allocator != "stalloc-noreuse";
  return config;
}

STAllocAllocator::STAllocAllocator(SimDevice* device, StaticPlan plan,
                                   DynamicReusableSpace dyn_space, STAllocConfig config)
    : device_(device),
      plan_(std::move(plan)),
      dyn_space_(std::move(dyn_space)),
      config_(config),
      fallback_(device) {
  used_.assign(plan_.decisions.size(), false);
  // One slot and one flat row per expected_le row: memory is bounded by the plan's rows, not by
  // its largest layer id.
  row_start_.push_back(0);
  for (const auto& [ls, les] : dyn_space_.expected_le) {
    layer_slot_.Insert(LayerKey(ls), static_cast<uint32_t>(row_start_.size() - 1));
    for (LayerId le : les) {
      const auto it = dyn_space_.regions.find({ls, le});
      group_regions_.push_back(it == dyn_space_.regions.end() ? nullptr : &it->second);
    }
    row_start_.push_back(group_regions_.size());
  }
  layer_counters_.assign(row_start_.size() - 1, 0);
}

STAllocAllocator::~STAllocAllocator() {
  if (pool_base_ != 0) {
    device_->DevFree(pool_base_);
  }
}

bool STAllocAllocator::Init() {
  if (plan_.pool_size == 0) {
    pool_base_ = 0;
    return true;
  }
  auto base = device_->DevMalloc(plan_.pool_size);
  if (!base.has_value()) {
    return false;
  }
  pool_base_ = *base;
  pool_free_.Insert(0, plan_.pool_size);
  NotePressure();
  return true;
}

uint64_t STAllocAllocator::ReservedBytes() const {
  const uint64_t pool = pool_base_ != 0 ? plan_.pool_size : 0;
  return pool + fallback_.ReservedBytes();
}

void STAllocAllocator::EndIteration() {
  cursor_ = 0;
  std::fill(used_.begin(), used_.end(), false);
  std::fill(layer_counters_.begin(), layer_counters_.end(), 0);
}

std::optional<uint64_t> STAllocAllocator::DoMalloc(uint64_t size, const RequestContext& ctx) {
  if (pool_base_ != 0) {
    if (!ctx.dyn) {
      if (auto addr = StaticMalloc(size); addr.has_value()) {
        return addr;
      }
      ++breakdown_.static_mismatches;
    } else {
      if (config_.enable_dynamic_reuse) {
        if (auto addr = DynamicMalloc(size, ctx); addr.has_value()) {
          return addr;
        }
      }
      ++breakdown_.dynamic_fallbacks;
    }
  }
  // Plan mismatch / lack of space / uninitialized pool: the caching fallback keeps training
  // alive (§6, robustness path).
  auto addr = fallback_.Malloc(size, ctx.stream);
  if (addr.has_value()) {
    breakdown_.fallback_bytes += size;
  }
  return addr;
}

std::optional<uint64_t> STAllocAllocator::StaticMalloc(uint64_t size) {
  // Skip already-consumed decisions.
  while (cursor_ < used_.size() && used_[cursor_]) {
    ++cursor_;
  }
  // Scan a bounded window of pending decisions for an exact size match. Requests normally arrive
  // in plan order, so the first probe hits; the window tolerates benign reordering.
  size_t scanned = 0;
  for (size_t i = cursor_; i < plan_.decisions.size() && scanned < kMatcherWindow; ++i) {
    if (used_[i]) {
      continue;
    }
    ++scanned;
    if (plan_.decisions[i].event.size != size) {
      continue;
    }
    const PlanDecision& d = plan_.decisions[i];
    // The plan guarantees no conflict with other *planned* requests, but an earlier mismatch may
    // have left the range occupied (its twin went to the fallback). Guard anyway: the range is
    // carved only if one free range of the pool covers it.
    if (!pool_free_.TakeRange(d.addr, d.addr + d.padded_size)) {
      continue;
    }
    used_[i] = true;
    pool_live_.Insert(d.addr, d.padded_size);
    ++breakdown_.static_hits;
    breakdown_.static_bytes += size;
    return pool_base_ + d.addr;
  }
  return std::nullopt;
}

std::optional<uint64_t> STAllocAllocator::DynamicMalloc(uint64_t size, const RequestContext& ctx) {
  if (ctx.layer == kInvalidLayer) {
    return std::nullopt;
  }
  // Identify the HomoLayer group (ls, le): ls is the current layer; le comes from the profile's
  // arrival-order table for that layer.
  const uint32_t* slot = layer_slot_.Find(LayerKey(ctx.layer));
  if (slot == nullptr) {
    return std::nullopt;
  }
  const uint64_t k = layer_counters_[*slot]++;
  if (k >= row_start_[*slot + 1] - row_start_[*slot]) {
    return std::nullopt;  // more dynamic requests than profiled for this layer
  }
  const std::vector<Interval>* region = group_regions_[row_start_[*slot] + k];
  if (region == nullptr) {
    return std::nullopt;
  }

  // Best fit over A_c = A_a intersect A_i (Eq. 7): the free pool ranges clipped to each region
  // interval are the candidates. Smallest one that fits wins, the lowest on ties; an exact fit
  // ends the search.
  const uint64_t padded = PlanPaddedSize(size);
  std::optional<uint64_t> best;
  uint64_t best_len = std::numeric_limits<uint64_t>::max();
  auto consider = [&](uint64_t lo, uint64_t hi) {
    if (hi - lo < best_len) {
      best = lo;
      best_len = hi - lo;
    }
  };
  for (const Interval& iv : *region) {
    if (pool_free_.ForEachFitIn(iv.lo, iv.hi, padded, consider)) {
      break;
    }
  }
  if (!best.has_value()) {
    return std::nullopt;
  }
  const uint64_t addr = *best;
  const bool carved = pool_free_.TakeRange(addr, addr + padded);
  STALLOC_CHECK(carved, << "stalloc: best fit " << addr << " is not free");
  pool_live_.Insert(addr, padded);
  ++breakdown_.dynamic_reuse_hits;
  breakdown_.dynamic_reuse_bytes += size;
  return pool_base_ + addr;
}

void STAllocAllocator::DoFree(uint64_t addr, uint64_t size) {
  (void)size;
  if (InPool(addr)) {
    const uint64_t rel = addr - pool_base_;
    uint64_t padded = 0;
    const bool known = pool_live_.Erase(rel, &padded);
    STALLOC_CHECK(known, << "stalloc: free of unknown pool offset " << rel);
    pool_free_.Insert(rel, rel + padded);
    return;
  }
  fallback_.Free(addr);
}

void STAllocAllocator::AppendHeapSegments(std::vector<telemetry::HeapSegment>* out) const {
  if (pool_base_ != 0) {
    telemetry::HeapSegment s;
    s.base = pool_base_;
    s.size = plan_.pool_size;
    s.pool = "static-pool";
    out->push_back(std::move(s));
  }
  fallback_.AppendHeapSegments(out);
}

}  // namespace stalloc
