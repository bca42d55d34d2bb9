// Dynamic Reusable Space (§5.2).
//
// Dynamic (MoE) requests have unpredictable sizes but predictable lifespans: their (alloc-layer,
// free-layer) pair (ls, le) recurs every iteration. All dynamic requests sharing a pair form a
// HomoLayer Group G(a,b); its bounding window T(a,b) = [a.start, b.end). Before training we
// interrogate the Static Allocation Plan for address ranges idle throughout T (Eq. 4-6); at
// runtime the Dynamic Allocator serves G(a,b)'s requests from those pre-vetted ranges, never
// conflicting with planned static allocations.

#ifndef SRC_CORE_DYNAMIC_SPACE_H_
#define SRC_CORE_DYNAMIC_SPACE_H_

#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "src/core/plan.h"
#include "src/interval/interval.h"
#include "src/trace/trace.h"

namespace stalloc {

struct DynamicReusableSpace {
  // HomoLayer group (ls, le) -> address ranges of the static pool idle during T(ls, le), as a
  // sorted interval vector (src/interval/interval.h) within [0, pool_size).
  std::map<std::pair<LayerId, LayerId>, std::vector<Interval>> regions;
  // Matcher table from the profile: for each alloc layer ls, the free layers (le) of its dynamic
  // requests in arrival order. The runtime uses (ls, arrival index) to pick the group.
  std::map<LayerId, std::vector<LayerId>> expected_le;

  size_t group_count() const { return regions.size(); }
  // Total reusable bytes across groups (diagnostic; regions of different groups overlap).
  uint64_t TotalReusableBytes() const;
};

// Computes the reusable space for every HomoLayer group in a sealed `trace` against `plan`.
// Complexity: one op-order walk, then a sweep of the G group windows in end order over a segment
// tree of the plan's D decisions: O((D + G·r) log D), where r is the number of idle address
// atoms a window leaves (§7.1).
DynamicReusableSpace LocateDynamicSpace(const Trace& trace, const StaticPlan& plan);

}  // namespace stalloc

#endif  // SRC_CORE_DYNAMIC_SPACE_H_
