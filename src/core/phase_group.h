// HomoPhase Groups (§5.1): allocation requests that start and end in the same pair of
// computation phases share (approximately) the same lifespan; packing each group tightly yields
// a local plan whose quality is measured by the time-memory product (TMP, Eq. 2). Adjacent
// groups — where one group's end phase equals another's start phase — are fused when fusion
// raises the TMP above the weighted average of the originals (Fig. 7), squeezing out
// spatio-temporal bubbles across phase boundaries.

#ifndef SRC_CORE_PHASE_GROUP_H_
#define SRC_CORE_PHASE_GROUP_H_

#include <cstdint>
#include <vector>

#include "src/core/plan.h"
#include "src/trace/trace.h"

namespace stalloc {

// A packed local plan: requests with relative addresses inside a footprint of `footprint` bytes.
// After phase planning, each LocalPlan is treated as one unified request m_g for the spatial
// (HomoSize) stage (§5.1).
struct LocalPlan {
  std::vector<PlanDecision> items;  // addr = offset relative to the plan base
  uint64_t footprint = 0;           // D_g.s  = max(addr + padded_size)
  LogicalTime ts = 0;               // D_g.ts = min item ts
  LogicalTime te = 0;               // D_g.te = max item te
  PhaseId ps = kInvalidPhase;       // group start phase (first group's ps after fusion)
  PhaseId pe = kInvalidPhase;       // group end phase (last group's pe after fusion)

  // Time-memory product (Eq. 2): used memory-time over reserved memory-time. In [0, 1].
  double Tmp() const;
  // Numerator / denominator of Eq. 2, exposed for weighted averaging during fusion.
  double TmpNumerator() const;
  double TmpDenominator() const;

  bool empty() const { return items.empty(); }
};

// Work counters of phase-group synthesis: the accepted fusions, and the work skipped because
// it provably could not change the result (telemetry only).
struct PhaseGroupWork {
  uint64_t fusions = 0;             // fusions accepted
  uint64_t pack_orders_pruned = 0;  // packing orders not tried: the group already hit its floor
  uint64_t fusions_screened = 0;    // FusePlans calls skipped: the TMP bound cannot win
};

// Packs one group's events: first-fit-by-address greedy in allocation order. Events whose
// lifespans all overlap end up stacked contiguously (the local optimum of §5.1); partially
// overlapping events reuse address ranges where their lifespans permit. Every event must have
// ts < te, as Trace guarantees. `work`, when given, accumulates the pruned packing orders.
LocalPlan PackGroup(std::vector<MemoryEvent> events, PhaseId ps, PhaseId pe,
                    PhaseGroupWork* work = nullptr);

// Paper's fusion placement (Fig. 6 upper left): inserts the smaller plan's requests into the
// larger plan's idle gaps — walking candidate addresses from the larger plan's item addresses —
// and stacks whatever does not fit above the footprint. ps/pe of the result follow the
// temporally-first/last group.
LocalPlan FusePlans(const LocalPlan& a, const LocalPlan& b);

// Groups static events by (ps, pe), packs each group, then runs fusion passes: a fusion of
// adjacent groups is kept only when the fused TMP exceeds the weighted average of the originals.
// `enable_fusion` off reproduces the ablation in docs/ARCHITECTURE.md. `work`, when given,
// accumulates the accepted fusions and the packing orders and fusion attempts skipped by the
// exact bounds.
std::vector<LocalPlan> BuildPhaseGroups(const std::vector<MemoryEvent>& static_events,
                                        bool enable_fusion = true,
                                        PhaseGroupWork* work = nullptr);

}  // namespace stalloc

#endif  // SRC_CORE_PHASE_GROUP_H_
