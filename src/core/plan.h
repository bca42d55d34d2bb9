// Static Allocation Plan: the output of the Plan Synthesizer (§5.1).
//
// A plan is a list of allocation decisions d := m + (a): each static memory event is assigned a
// start address `a` (an offset into the static memory pool) subject to the correctness
// constraint that no two decisions conflict simultaneously in lifespan and address range (§5.1).

#ifndef SRC_CORE_PLAN_H_
#define SRC_CORE_PLAN_H_

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "src/common/units.h"
#include "src/trace/trace.h"

namespace stalloc {

struct PlanDecision {
  MemoryEvent event;      // the planned request (carries its trace event id)
  uint64_t addr = 0;      // assigned offset within the static pool
  uint64_t padded_size = 0;  // event.size rounded to the planning alignment

  uint64_t end_addr() const { return addr + padded_size; }
};

struct StaticPlan {
  // Decisions sorted by event.ts — the order in which the Static Allocator will serve them.
  std::vector<PlanDecision> decisions;
  // Size of the static memory pool to reserve (max end_addr, aligned).
  uint64_t pool_size = 0;
  // Theoretical lower bound: peak live (padded) bytes of the planned events. pool_size can never
  // be below this; pool_size / lower_bound measures planner quality.
  uint64_t lower_bound = 0;

  bool empty() const { return decisions.empty(); }

  // Verifies: (1) no two decisions overlap in both time and address space (memory stomping);
  // (2) every decision fits inside the pool. Aborts with a diagnostic on violation.
  void Validate() const;

  // As Validate(), but returns false + message instead of aborting (for property tests).
  bool Check(std::string* error) const;

  // Peak live padded bytes (computes lower_bound).
  static uint64_t PeakPaddedBytes(const std::vector<PlanDecision>& decisions);
};

// The malloc and free ops of `decisions` in TraceOp order (OrderOps refs: index into
// `decisions` << 1 | is_free).
std::vector<uint64_t> OrderDecisionOps(const std::vector<PlanDecision>& decisions);

// Planning alignment: all planned addresses and padded sizes are multiples of this.
inline constexpr uint64_t kPlanAlign = 512;

// The planned footprint of a request of `size` bytes (an empty request still takes one unit).
inline uint64_t PlanPaddedSize(uint64_t size) {
  return AlignUp(std::max<uint64_t>(size, 1), kPlanAlign);
}

}  // namespace stalloc

#endif  // SRC_CORE_PLAN_H_
