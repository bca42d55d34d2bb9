#include "src/core/stalloc_allocator.h"

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <limits>
#include <optional>
#include <utility>

#include "src/common/check.h"
#include "src/common/units.h"

namespace stalloc {

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
  layer_counters_.clear();
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
    // have left the range occupied (its twin went to the fallback). Guard anyway: a non-empty
    // range must lie in the pool, the live block below must end at or before it and the one
    // above must start at or after its end.
    const uint64_t end = d.addr + d.padded_size;
    const auto next = pool_live_.lower_bound(d.addr);
    const bool below_clear =
        next == pool_live_.begin() || std::prev(next)->first + std::prev(next)->second <= d.addr;
    const bool above_clear = next == pool_live_.end() || next->first >= end;
    if (end != d.addr && !(end <= plan_.pool_size && below_clear && above_clear)) {
      continue;
    }
    used_[i] = true;
    pool_live_.emplace_hint(next, d.addr, d.padded_size);
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
  auto table_it = dyn_space_.expected_le.find(ctx.layer);
  if (table_it == dyn_space_.expected_le.end()) {
    return std::nullopt;
  }
  const size_t k = layer_counters_[ctx.layer]++;
  if (k >= table_it->second.size()) {
    return std::nullopt;  // more dynamic requests than profiled for this layer
  }
  const LayerId le = table_it->second[k];
  auto region_it = dyn_space_.regions.find({ctx.layer, le});
  if (region_it == dyn_space_.regions.end()) {
    return std::nullopt;
  }

  // Best fit over A_c = A_a intersect A_i (Eq. 7): within each region interval, the gaps between
  // live pool blocks are the candidates. Smallest gap that fits wins, the lowest on ties; an
  // exact fit ends the search.
  const uint64_t padded = PlanPaddedSize(size);
  std::optional<uint64_t> best;
  uint64_t best_len = std::numeric_limits<uint64_t>::max();
  auto consider = [&](uint64_t lo, uint64_t hi) {  // a no-op once an exact fit is found
    if (hi > lo && hi - lo >= padded && hi - lo < best_len) {
      best = lo;
      best_len = hi - lo;
    }
  };
  for (const Interval& iv : region_it->second) {
    if (best_len == padded) {
      break;
    }
    const uint64_t region_hi = std::min(iv.hi, plan_.pool_size);
    auto it = pool_live_.lower_bound(iv.lo);
    uint64_t cursor = iv.lo;
    if (it != pool_live_.begin()) {
      cursor = std::max(cursor, std::prev(it)->first + std::prev(it)->second);
    }
    for (; it != pool_live_.end() && it->first < region_hi && best_len != padded; ++it) {
      consider(cursor, it->first);
      cursor = it->first + it->second;
    }
    consider(cursor, region_hi);
  }
  if (!best.has_value()) {
    return std::nullopt;
  }
  const uint64_t addr = *best;
  pool_live_.emplace(addr, padded);
  ++breakdown_.dynamic_reuse_hits;
  breakdown_.dynamic_reuse_bytes += size;
  return pool_base_ + addr;
}

void STAllocAllocator::DoFree(uint64_t addr, uint64_t size) {
  (void)size;
  if (InPool(addr)) {
    const uint64_t rel = addr - pool_base_;
    auto it = pool_live_.find(rel);
    STALLOC_CHECK(it != pool_live_.end(), << "stalloc: free of unknown pool offset " << rel);
    pool_live_.erase(it);
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
