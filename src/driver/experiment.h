// Experiment harness: the end-to-end pipelines behind every evaluation figure/table.
//
// For baselines: build the iteration trace (run seed) and replay it through the allocator.
// For STAlloc: profile with the *profile* seed, synthesize the plan offline, then replay the
// *run* seed through the runtime allocator — dynamic (MoE) sizes differ between the two seeds,
// exercising the dynamic allocator exactly as iteration-to-iteration variation does in training.

#ifndef SRC_DRIVER_EXPERIMENT_H_
#define SRC_DRIVER_EXPERIMENT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/allocators/registry.h"
#include "src/core/planner.h"
#include "src/core/profiler.h"
#include "src/core/stalloc_allocator.h"
#include "src/driver/replay.h"
#include "src/gpu/sim_device.h"
#include "src/trainsim/workload.h"

namespace stalloc {

// Allocators are named by their AllocatorRegistry name (src/allocators/registry.h) throughout:
// every driver below takes one, and the plan kinds are routed by the entry's requires_plan.

struct ExperimentOptions {
  uint64_t capacity_bytes = 80ull * 1024 * 1024 * 1024;  // A800-80G default
  uint64_t profile_seed = 1001;
  uint64_t run_seed = 2002;
  AllocatorOptions allocator_options;  // passed to AllocatorRegistry::Create
};

struct ExperimentResult {
  std::string allocator;            // registry name
  bool oom = false;                // replay hit an unrecoverable allocation failure
  bool infeasible = false;         // theoretical demand exceeds capacity (native OOM)
  uint64_t allocated_peak = 0;     // Ma
  uint64_t reserved_peak = 0;      // Mr
  double memory_efficiency = 1.0;  // E = Ma / Mr
  double fragmentation_ratio = 0;  // 1 - E
  uint64_t fragmentation_bytes = 0;
  double device_api_cost_us = 0;   // modelled allocator overhead for the iteration
  uint64_t device_api_calls = 0;
  // Release-side calls (cudaFree / unmap / handle release) during the replay. Caching-style
  // allocators only release mid-run under memory pressure, so a non-trivial count means the
  // run survived by thrashing.
  uint64_t device_release_calls = 0;
  // STAlloc-only extras.
  STAllocBreakdown breakdown;
  PlanStats plan_stats;
  double profile_wall_ms = 0;
  // Host time inside the replay engine (every kind), so phase attribution
  // (profile/plan/replay) is complete: plan time is plan_stats.synthesis_ms.
  double replay_wall_ms = 0;

  std::string Summary() const;
};

// Runs one (workload, allocator) experiment.
ExperimentResult RunExperiment(const WorkloadBuilder& workload, std::string_view allocator,
                               const ExperimentOptions& options = ExperimentOptions{});

// Replays an externally captured trace (profiled from a real job, converted, or synthesized at
// million-op scale) through one allocator. Baseline kinds replay the trace directly; the plan
// kinds treat the trace as its own profile — ProfileTrace for the feasibility verdict, plan
// synthesis, then replay — so the run is the self-plan upper bound. Traces with no phase
// structure cannot be planned and come back infeasible for the plan kinds.
//
// `trace` is the cursor of a sealed Trace or of an mmap'd v2 TraceView. Only the plan kinds
// copy the columns (for synthesis); the replay itself runs off the cursor.
ExperimentResult RunTraceReplay(const TraceCursor& trace, std::string_view allocator,
                                const ExperimentOptions& options = ExperimentOptions{});

// Whether the named allocator runs through the offline profile+plan pipeline (its registry
// entry's requires_plan). Unknown names abort.
bool RequiresPlan(std::string_view allocator);

// The runtime configuration of the named plan kind: "stalloc-noreuse" is the Fig. 13 ablation
// without dynamic reuse; every other plan kind runs full STAlloc.
STAllocConfig STAllocConfigFor(std::string_view allocator);

// Offline STAlloc stage shared by the training and serving pipelines: takes a profiled
// iteration, synthesizes the plan and returns an initialized runtime allocator. Returns nullptr
// with result->infeasible (profile exceeds capacity) or result->oom (pool reservation failed)
// set; also fills result->profile_wall_ms and result->plan_stats.
std::unique_ptr<STAllocAllocator> MakeSTAllocFromProfile(const ProfileResult& profile,
                                                         std::string_view allocator,
                                                         SimDevice* device,
                                                         ExperimentResult* result);

// Populates the replay-outcome fields of `result` (peaks, efficiency, fragmentation, device API
// counters, STAlloc breakdown, native-OOM -> infeasible promotion) after ReplayTrace. Shared by
// the training and serving pipelines so the reported semantics cannot drift.
void FinishExperimentResult(const ReplayResult& replay, const Allocator& active,
                            const SimDevice& device, const STAllocAllocator* stalloc_alloc,
                            ExperimentResult* result);

}  // namespace stalloc

#endif  // SRC_DRIVER_EXPERIMENT_H_
