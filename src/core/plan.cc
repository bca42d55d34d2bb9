#include "src/core/plan.h"

#include <algorithm>
#include <cstdint>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/common/check.h"

namespace stalloc {

std::vector<uint64_t> OrderDecisionOps(const std::vector<PlanDecision>& decisions) {
  std::vector<LogicalTime> ts(decisions.size()), te(decisions.size());
  for (size_t i = 0; i < decisions.size(); ++i) {
    ts[i] = decisions[i].event.ts;
    te[i] = decisions[i].event.te;
  }
  return OrderOps(ts, te, nullptr);
}

namespace {

// Sweep over alloc/free points; at each malloc, the new address range must not intersect any
// live range. Returns an error description or empty string.
std::string SweepCheck(const std::vector<PlanDecision>& decisions, uint64_t pool_size) {
  std::map<uint64_t, size_t> live;  // addr -> decision index
  for (const uint64_t ref : OrderDecisionOps(decisions)) {
    const PlanDecision& d = decisions[ref >> 1];
    if ((ref & 1) != 0) {
      live.erase(d.addr);
      continue;
    }
    if (d.end_addr() > pool_size) {
      std::ostringstream os;
      os << "decision for event " << d.event.id << " ends at " << d.end_addr()
         << " beyond pool size " << pool_size;
      return os.str();
    }
    auto next = live.lower_bound(d.addr);
    if (next != live.end() && d.end_addr() > next->first) {
      std::ostringstream os;
      os << "decision for event " << d.event.id << " [" << d.addr << ", " << d.end_addr()
         << ") overlaps live event " << decisions[next->second].event.id;
      return os.str();
    }
    if (next != live.begin()) {
      auto prev = std::prev(next);
      const PlanDecision& pd = decisions[prev->second];
      if (pd.end_addr() > d.addr) {
        std::ostringstream os;
        os << "decision for event " << d.event.id << " at " << d.addr
           << " overlaps live event " << pd.event.id << " [" << pd.addr << ", " << pd.end_addr()
           << ")";
        return os.str();
      }
    }
    live.emplace(d.addr, ref >> 1);
  }
  return {};
}

}  // namespace

uint64_t StaticPlan::PeakPaddedBytes(const std::vector<PlanDecision>& decisions) {
  // Frees precede mallocs at each tick, so the running maximum is the peak.
  uint64_t live = 0;
  uint64_t peak = 0;
  for (const uint64_t ref : OrderDecisionOps(decisions)) {
    const uint64_t size = decisions[ref >> 1].padded_size;
    live = (ref & 1) != 0 ? live - size : live + size;
    peak = std::max(peak, live);
  }
  return peak;
}

bool StaticPlan::Check(std::string* error) const {
  std::string msg = SweepCheck(decisions, pool_size);
  if (!msg.empty()) {
    if (error != nullptr) {
      *error = msg;
    }
    return false;
  }
  return true;
}

void StaticPlan::Validate() const {
  std::string error;
  STALLOC_CHECK(Check(&error), << "invalid static plan: " << error);
}

}  // namespace stalloc
