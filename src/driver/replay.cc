#include "src/driver/replay.h"

#include <cstdint>
#include <string>

#include "src/common/table.h"
#include "src/common/units.h"
#include "src/replay/replay_engine.h"

namespace stalloc {

std::string ReplayResult::ToString() const {
  if (oom) {
    return StrFormat("OOM at event %llu after %llu mallocs",
                     static_cast<unsigned long long>(failed_event),
                     static_cast<unsigned long long>(num_mallocs));
  }
  return StrFormat("Ma=%s Mr=%s E=%.1f%%", FormatBytes(allocated_peak).c_str(),
                   FormatBytes(reserved_peak).c_str(), memory_efficiency * 100.0);
}

ReplayResult ReplayTrace(const TraceCursor& trace, Allocator* alloc, ReplayObserver* observer) {
  ReplaySource source;
  source.trace = trace;
  source.alloc = alloc;
  ReplayEngine engine(observer);
  engine.AddSource(source);
  const ReplayEngineResult& run = engine.Run();

  alloc->EndIteration();

  ReplayResult result;
  result.oom = run.oom;
  result.failed_event = run.first_failed_event;
  result.num_mallocs = run.num_mallocs;
  result.num_frees = run.num_frees;
  result.allocated_peak = alloc->stats().allocated_peak;
  result.reserved_peak = alloc->stats().reserved_peak;
  result.memory_efficiency = alloc->stats().MemoryEfficiency();
  result.replay_wall_seconds = run.wall_seconds;
  result.replay_ops_per_sec = run.OpsPerSec();
  return result;
}

ReplayResult ReplayTrace(const Trace& trace, Allocator* alloc, ReplayObserver* observer) {
  return ReplayTrace(trace.Cursor(), alloc, observer);
}

ReplayResult ReplayTrace(const TraceView& view, Allocator* alloc, ReplayObserver* observer) {
  return ReplayTrace(view.Cursor(), alloc, observer);
}

}  // namespace stalloc
