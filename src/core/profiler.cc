#include "src/core/profiler.h"

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "src/allocators/allocator.h"
#include "src/common/check.h"
#include "src/common/stopwatch.h"
#include "src/common/units.h"
#include "src/interval/first_fit_index.h"
#include "src/telemetry/tracer.h"
#include "src/trace/trace_stats.h"

namespace stalloc {

ProfileResult ProfileWorkload(const WorkloadBuilder& workload, uint64_t capacity_bytes,
                              uint64_t iteration_seed) {
  // wall_ms covers trace generation + replay (Table 2's Tprofile), so time the build too.
  Stopwatch timer;
  ProfileResult result = ProfileTrace(workload.Build(iteration_seed), capacity_bytes);
  result.wall_ms = timer.ElapsedMillis();
  return result;
}

ProfileResult ProfileTrace(Trace trace, uint64_t capacity_bytes) {
  Stopwatch timer;
  telemetry::ScopedSpan span(telemetry::kCatSession, "profile");
  STALLOC_CHECK(capacity_bytes > 0);
  STALLOC_CHECK_LE(capacity_bytes, SimDevice::kMaxCapacity,
                   << "device capacity above SimDevice::kMaxCapacity");
  ProfileResult result;
  result.trace = std::move(trace);

  // The device arena [0, capacity) under cudaMalloc's lowest-address first fit. Nothing but the
  // profiled requests lives on it, so a request fails exactly when no free range fits it.
  FirstFitIndex arena;
  arena.Insert(0, capacity_bytes);
  constexpr uint64_t kUnplaced = ~uint64_t{0};
  const TraceCursor c = result.trace.Cursor();
  std::vector<uint64_t> addr_of(c.num_events(), kUnplaced);  // event id -> address
  uint64_t mallocs = 0;  // DevMalloc calls, the failing one included
  uint64_t frees = 0;    // DevFree calls
  result.feasible = true;
  for (uint64_t i = 0; i < c.num_ops(); ++i) {
    const uint64_t id = c.OpEventId(i);
    const uint64_t size = c.EventSize(id);
    if (c.OpIsFree(i)) {
      if (addr_of[id] != kUnplaced) {
        arena.Insert(addr_of[id], addr_of[id] + AlignUp(size, SimDevice::kMallocAlign));
        ++frees;
      }
      continue;
    }
    // A request the allocator interface refuses never reaches the device.
    std::optional<uint64_t> addr;
    if (size != 0 && size <= kMaxRequestSize) {
      ++mallocs;
      // A request larger than the device fails before rounding, which could wrap near 2^64.
      if (size <= capacity_bytes) {
        addr = arena.TakeFirstFit(AlignUp(size, SimDevice::kMallocAlign));
      }
    }
    if (!addr.has_value()) {
      result.feasible = false;
      break;
    }
    addr_of[id] = *addr;
  }
  result.peak_allocated = PeakAllocated(result.trace);
  result.native_api_calls = mallocs + frees;
  // Whole-microsecond call costs sum exactly in a double, so this is the per-call ledger's total.
  const DeviceCostModel cost;
  result.native_api_cost_us = static_cast<double>(mallocs) * cost.cuda_malloc_us +
                              static_cast<double>(frees) * cost.cuda_free_us;
  result.wall_ms = timer.ElapsedMillis();
  span.Arg("ops", static_cast<unsigned long long>(c.num_ops()));
  span.Arg("feasible", result.feasible);
  return result;
}

}  // namespace stalloc
