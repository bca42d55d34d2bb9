// Offline plan compaction by local search.
//
// Dynamic Storage Allocation is NP-hard (§1); the paper's synthesizer trades optimality for
// O(N log N) time via grouping. This module provides the comparison point: an iterative
// compaction pass (re-place each decision at its lowest conflict-free offset, repeat to a fixed
// point) in the spirit of the solver-based planners the paper cites (Telamalloc, MiniMalloc).
// It is orders of magnitude slower than the synthesizer and is used by benches/tests to measure
// how close the fast plans sit to a strong offline baseline.

#ifndef SRC_CORE_COMPACTION_H_
#define SRC_CORE_COMPACTION_H_

#include <cstdint>

#include "src/core/plan.h"

namespace stalloc {

struct CompactionResult {
  StaticPlan plan;
  int rounds = 0;          // improvement rounds executed
  uint64_t moves = 0;      // decisions relocated
  // Payload bytes the relocations represent: each moved decision's padded size, summed over
  // every move. This is what a *copy-based* defragmenter (cudaMemcpy) would transfer; the VMM
  // allocator's remap-based compaction reports the same quantity as bytes_remapped with
  // bytes_copied = 0 (bench_vmm compares the two models).
  uint64_t bytes_moved = 0;
  uint64_t initial_pool = 0;
  double wall_ms = 0;
};

// Compacts `plan` by repeated lowest-offset re-placement, processing decisions from the highest
// addresses down. Stops at a fixed point or after `max_rounds`. In verify mode the result is
// validated.
CompactionResult CompactPlan(const StaticPlan& plan, int max_rounds = 16);

}  // namespace stalloc

#endif  // SRC_CORE_COMPACTION_H_
