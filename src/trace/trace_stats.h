// Trace statistics: the analyses behind the paper's motivation figures.
//
// * Fig. 3 — allocation-size distribution (spatial regularity: ~32 distinct sizes).
// * Fig. 4 — lifespan classes (temporal regularity: persistent / scoped / transient).
// * Theoretical peak allocated bytes Ma — the numerator of memory efficiency E = Ma / Mr (§2.2).

#ifndef SRC_TRACE_TRACE_STATS_H_
#define SRC_TRACE_TRACE_STATS_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/trace/trace.h"

namespace stalloc {

struct SizeBucket {
  uint64_t bucket_lo = 0;  // inclusive lower bound of the power-of-two bucket
  uint64_t count = 0;
  double frequency = 0;  // count / total
};

// Peak live bytes inside one computation-phase window — the per-phase memory breakdown a
// memory-aware cluster scheduler admits against (the worst window bounds the job's footprint
// on its device; see src/cluster/scheduler.*).
struct PhasePeak {
  PhaseId phase = kInvalidPhase;
  PhaseKind kind = PhaseKind::kIterInit;
  LogicalTime start = 0;
  LogicalTime end = 0;       // exclusive
  uint64_t peak_live = 0;    // max live bytes at any tick in [start, end)
};

struct TraceStats {
  uint64_t num_events = 0;
  uint64_t num_static = 0;
  uint64_t num_dynamic = 0;
  uint64_t total_bytes = 0;          // sum of event sizes
  uint64_t peak_allocated = 0;       // max over time of live bytes (theoretical Ma)
  LogicalTime peak_time = 0;         // first tick at which the peak is reached
  uint64_t distinct_sizes = 0;       // distinct sizes among events > min_size_filter
  uint64_t min_size_filter = 512;    // paper counts sizes of >512-byte requests
  uint64_t persistent_count = 0;
  uint64_t scoped_count = 0;
  uint64_t transient_count = 0;
  uint64_t persistent_bytes = 0;
  uint64_t scoped_bytes = 0;
  uint64_t transient_bytes = 0;
  std::vector<SizeBucket> size_histogram;  // power-of-two buckets, Fig. 3 style
  std::vector<PhasePeak> phase_peaks;      // one entry per trace phase, in phase order

  std::string ToString() const;
};

// Computes statistics for a trace. `min_size_filter` controls which requests count toward the
// distinct-size figure (paper: >512 bytes).
TraceStats ComputeStats(const Trace& trace, uint64_t min_size_filter = 512);

// Peak live bytes of a sealed trace: one sweep over its op columns.
uint64_t PeakAllocated(const Trace& trace);

// The live-bytes curve of a sealed trace sampled at every change point: pairs of (time, live
// bytes after ops at that time). Useful for plotting and for locating static/dynamic peak
// separation (§5.2).
std::vector<std::pair<LogicalTime, uint64_t>> LiveBytesCurve(const Trace& trace);

// Peak live bytes per computation-phase window, in phase order. Standalone entry point for
// callers that do not need the full ComputeStats pass (plan-aware cluster admission).
std::vector<PhasePeak> PhasePeakBreakdown(const Trace& trace);

}  // namespace stalloc

#endif  // SRC_TRACE_TRACE_STATS_H_
