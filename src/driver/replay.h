// Trace replay: feeds a workload's malloc/free stream into an allocator, exactly as the training
// framework would through the PluggableAllocator interface, and reports the outcome.
//
// This is a thin wrapper over the unified streaming replay core (src/replay/replay_engine.h) —
// one single-tenant source, abort-on-OOM policy — the replay step of every Session run on one
// device (src/api/session.cc).

#ifndef SRC_DRIVER_REPLAY_H_
#define SRC_DRIVER_REPLAY_H_

#include <cstdint>
#include <string>

#include "src/allocators/allocator.h"
#include "src/replay/replay_engine.h"
#include "src/trace/trace.h"
#include "src/trace/trace_v2.h"

namespace stalloc {

struct ReplayResult {
  bool oom = false;
  uint64_t failed_event = 0;   // event id of the first failed malloc (when oom)
  uint64_t num_mallocs = 0;
  uint64_t num_frees = 0;
  uint64_t allocated_peak = 0;  // Ma observed by the allocator
  uint64_t reserved_peak = 0;   // Mr
  double memory_efficiency = 1.0;
  double replay_wall_seconds = 0;  // host time inside the replay engine
  double replay_ops_per_sec = 0;   // simulator throughput of this replay

  std::string ToString() const;
};

// Replays every op of `trace` into `alloc` through the replay engine. Stops at the first
// allocation failure (training would crash with CUDA OOM). Live blocks are freed at the end so
// the allocator can be reused. `observer` (optional) taps the op stream; the default abort
// policy applies when it is null.
ReplayResult ReplayTrace(const TraceCursor& trace, Allocator* alloc,
                         ReplayObserver* observer = nullptr);

// The same replay over a sealed owned trace, or straight from an mmap'd columnar v2 view with
// no materialization and no per-op heap allocation. Decisions are bit-identical either way.
ReplayResult ReplayTrace(const Trace& trace, Allocator* alloc,
                         ReplayObserver* observer = nullptr);
ReplayResult ReplayTrace(const TraceView& view, Allocator* alloc,
                         ReplayObserver* observer = nullptr);

}  // namespace stalloc

#endif  // SRC_DRIVER_REPLAY_H_
