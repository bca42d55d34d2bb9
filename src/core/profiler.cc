#include "src/core/profiler.h"

#include <cstdint>
#include <unordered_map>
#include <utility>

#include "src/allocators/native_allocator.h"
#include "src/common/stopwatch.h"
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
  ProfileResult result;
  result.trace = std::move(trace);

  SimDevice device(capacity_bytes);
  NativeAllocator native(&device);
  std::unordered_map<uint64_t, uint64_t> addr_of;  // event id -> address
  result.feasible = true;
  const TraceCursor c = result.trace.Cursor();
  for (uint64_t i = 0; i < c.num_ops(); ++i) {
    const uint64_t id = c.OpEventId(i);
    if (!c.OpIsFree(i)) {
      RequestContext ctx;
      ctx.dyn = c.EventDyn(id);
      ctx.layer = c.EventLs(id);
      ctx.phase = c.EventPs(id);
      ctx.stream = c.EventStream(id);
      auto addr = native.Malloc(c.EventSize(id), ctx);
      if (!addr.has_value()) {
        result.feasible = false;
        break;
      }
      addr_of.emplace(id, *addr);
    } else {
      auto it = addr_of.find(id);
      if (it != addr_of.end()) {
        native.Free(it->second);
        addr_of.erase(it);
      }
    }
  }
  result.peak_allocated = PeakAllocated(result.trace);
  result.native_api_calls = device.counters().cuda_malloc + device.counters().cuda_free;
  result.native_api_cost_us = device.counters().total_cost_us;
  result.wall_ms = timer.ElapsedMillis();
  span.Arg("ops", static_cast<unsigned long long>(c.num_ops()));
  span.Arg("feasible", result.feasible);
  return result;
}

}  // namespace stalloc
