// PlanSynthesizer (§5): turns a profiled trace into a Static Allocation Plan plus the Dynamic
// Reusable Space. Pipeline:
//   1. partition events into static (M_s) and dynamic (M_d) by the dyn flag;
//   2. HomoPhase grouping + TMP-guided fusion over M_s (phase_group.h);
//   3. HomoSize grouping + memory-layer construction + descending-size global planning
//      (size_group.h);
//   4. expand group-relative addresses into absolute pool offsets → StaticPlan;
//   5. locate Dynamic Reusable Space for M_d's HomoLayer groups (dynamic_space.h).

#ifndef SRC_CORE_PLANNER_H_
#define SRC_CORE_PLANNER_H_

#include <cstdint>
#include <string>

#include "src/core/dynamic_space.h"
#include "src/core/plan.h"
#include "src/trace/trace.h"

namespace stalloc {

struct PlanSynthesizerConfig {
  bool enable_fusion = true;         // TMP-guided HomoPhase fusion (ablation switch)
  bool enable_gap_insertion = true;  // descending-size insertion into larger layers (ablation)
  // Plan post-selection (extension over the paper, see docs/ARCHITECTURE.md): also compute a
  // lifetime-aware greedy first-fit plan over the raw events and keep whichever reserves less.
  // The grouped plan wins or ties on homogeneous ranks; greedy recovers the group-granularity
  // loss on ranks with rare oversized transients (LM-head fp32 logits).
  bool enable_greedy_refinement = true;
};

struct PlanStats {
  uint64_t num_static_events = 0;
  uint64_t num_dynamic_events = 0;
  uint64_t num_phase_groups = 0;     // after fusion
  uint64_t num_fusions = 0;          // accepted fusions
  uint64_t num_layers = 0;           // memory layers in the global layout
  uint64_t num_homolayer_groups = 0; // dynamic (ls, le) groups
  bool used_greedy_refinement = false;  // greedy first-fit beat the grouped plan
  double synthesis_ms = 0;           // wall-clock synthesis time (Table 2's Tplan)
  // Quality: pool size vs the theoretical lower bound (peak live padded bytes).
  uint64_t pool_size = 0;
  uint64_t lower_bound = 0;
  double PlanEfficiency() const {
    return pool_size == 0 ? 1.0
                          : static_cast<double>(lower_bound) / static_cast<double>(pool_size);
  }

  std::string ToString() const;
};

struct SynthesisResult {
  StaticPlan plan;
  DynamicReusableSpace dyn_space;
  PlanStats stats;
};

// Synthesizes the allocation plan for one profiled iteration.
SynthesisResult SynthesizePlan(const Trace& trace,
                               const PlanSynthesizerConfig& config = PlanSynthesizerConfig{});

}  // namespace stalloc

#endif  // SRC_CORE_PLANNER_H_
