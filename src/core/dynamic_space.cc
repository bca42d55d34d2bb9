#include "src/core/dynamic_space.h"

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "src/common/check.h"

namespace stalloc {

uint64_t DynamicReusableSpace::TotalReusableBytes() const {
  uint64_t total = 0;
  for (const auto& [key, region] : regions) {
    for (const Interval& iv : region) {
      total += iv.length();
    }
  }
  return total;
}

DynamicReusableSpace LocateDynamicSpace(const Trace& trace, const StaticPlan& plan) {
  DynamicReusableSpace space;

  // Collect the HomoLayer groups and the matcher table, walking the dynamic mallocs in arrival
  // order as the runtime sees them: op order, i.e. by time, then by event id.
  const TraceCursor c = trace.Cursor();
  for (uint64_t i = 0; i < c.num_ops(); ++i) {
    const uint64_t id = c.OpEventId(i);
    if (c.OpIsFree(i) || !c.EventDyn(id)) {
      continue;
    }
    const LayerId ls = c.EventLs(id);
    const LayerId le = c.EventLe(id);
    STALLOC_CHECK(ls != kInvalidLayer && le != kInvalidLayer);
    space.regions.emplace(std::make_pair(ls, le), std::vector<Interval>{});
    space.expected_le[ls].push_back(le);
  }
  if (space.regions.empty()) {
    return space;
  }

  // Decisions sorted by allocation time; binary search bounds the scan per query window.
  std::vector<const PlanDecision*> decisions;
  decisions.reserve(plan.decisions.size());
  for (const auto& d : plan.decisions) {
    decisions.push_back(&d);
  }
  std::sort(decisions.begin(), decisions.end(),
            [](const PlanDecision* a, const PlanDecision* b) { return a->event.ts < b->event.ts; });

  // Per window: the occupied (addr, end) pairs, sorted, then one walk appends the gaps of
  // [0, pool_size) in ascending order. Every decision has padded_size > 0, so no two gaps touch
  // and the region is a sorted interval vector.
  std::vector<std::pair<uint64_t, uint64_t>> occupied;
  occupied.reserve(decisions.size());
  for (auto& [key, region] : space.regions) {
    const LayerInfo& a = trace.layer(key.first);
    const LayerInfo& b = trace.layer(key.second);
    const LogicalTime win_start = a.start;
    const LogicalTime win_end = std::max(b.end, a.start + 1);

    // Occupied address ranges: decisions whose lifespan intersects [win_start, win_end).
    occupied.clear();
    // Find the first decision with ts >= win_end: everything after cannot overlap.
    auto upper = std::upper_bound(
        decisions.begin(), decisions.end(), win_end,
        [](LogicalTime t, const PlanDecision* d) { return t <= d->event.ts; });
    for (auto it = decisions.begin(); it != upper; ++it) {
      if ((*it)->event.te > win_start) {
        occupied.emplace_back((*it)->addr, (*it)->end_addr());
      }
    }
    std::sort(occupied.begin(), occupied.end());
    uint64_t cursor = 0;
    for (const auto& [lo, hi] : occupied) {
      if (cursor >= plan.pool_size) {
        break;
      }
      if (cursor < lo) {
        region.push_back(Interval{cursor, std::min(lo, plan.pool_size)});
      }
      cursor = std::max(cursor, hi);
    }
    if (cursor < plan.pool_size) {
      region.push_back(Interval{cursor, plan.pool_size});
    }
  }
  return space;
}

}  // namespace stalloc
