// AllocationProfiler (§4, §8): captures the spatial/temporal/dynamicity information of every
// memory request in one training iteration.
//
// The real system interposes on torch-level malloc/free and services them with the *native* GPU
// APIs (cudaMalloc/cudaFree) so that profiling itself is fragmentation-free: a configuration that
// OOMs under native allocation is theoretically infeasible on the device, full stop. Here the
// workload simulator produces the request stream and the profiler sweeps it once in op order,
// placing each request by cudaMalloc's lowest-address first fit over the device arena, as
// NativeAllocator on a SimDevice would. The sweep yields the trace, the feasibility verdict and
// the profiling cost (Table 2's Tprofile is dominated by the per-request native API calls), the
// cost in closed form: one cudaMalloc per request up to and including the first failure, one
// cudaFree per placed request freed, each priced at DeviceCostModel's defaults.

#ifndef SRC_CORE_PROFILER_H_
#define SRC_CORE_PROFILER_H_

#include <cstdint>

#include "src/gpu/sim_device.h"
#include "src/trace/trace.h"
#include "src/trainsim/workload.h"

namespace stalloc {

struct ProfileResult {
  Trace trace;
  bool feasible = false;       // iteration fits on the device under native allocation
  uint64_t peak_allocated = 0; // theoretical Ma
  uint64_t native_api_calls = 0;
  double native_api_cost_us = 0;  // modelled device time spent in cudaMalloc/cudaFree
  double wall_ms = 0;             // host wall time of trace generation + the sweep
};

// Profiles one iteration of `workload` against a device of `capacity_bytes`.
ProfileResult ProfileWorkload(const WorkloadBuilder& workload, uint64_t capacity_bytes,
                              uint64_t iteration_seed);

// Profiles an already-built trace (any workload source — training or serving): one first-fit
// sweep for the feasibility verdict and API-cost ledger. `trace` is moved into the result.
// `capacity_bytes` must be in (0, SimDevice::kMaxCapacity]; anything else aborts.
ProfileResult ProfileTrace(Trace trace, uint64_t capacity_bytes);

}  // namespace stalloc

#endif  // SRC_CORE_PROFILER_H_
