#include "src/trace/trace_stats.h"

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/common/table.h"
#include "src/common/units.h"

namespace stalloc {

namespace {

// Smallest power of two >= v (v > 0).
uint64_t Pow2Bucket(uint64_t v) {
  uint64_t b = 1;
  while (b < v) {
    b <<= 1;
  }
  return b;
}

}  // namespace

// Each sweep below walks the op columns once. Frees precede mallocs at every tick, so the live
// bytes after a tick's last op are its maximum over that tick, and the running maximum over all
// ops is the peak of the [ts, te) step function.

uint64_t PeakAllocated(const Trace& trace) {
  const TraceCursor c = trace.Cursor();
  uint64_t live = 0;
  uint64_t peak = 0;
  for (uint64_t i = 0; i < c.num_ops(); ++i) {
    const uint64_t size = c.EventSize(c.OpEventId(i));
    if (c.OpIsFree(i)) {
      live -= size;
    } else {
      live += size;
      peak = std::max(peak, live);
    }
  }
  return peak;
}

std::vector<std::pair<LogicalTime, uint64_t>> LiveBytesCurve(const Trace& trace) {
  const TraceCursor c = trace.Cursor();
  std::vector<std::pair<LogicalTime, uint64_t>> curve;
  uint64_t live = 0;
  for (uint64_t i = 0; i < c.num_ops(); ++i) {
    const uint64_t size = c.EventSize(c.OpEventId(i));
    live = c.OpIsFree(i) ? live - size : live + size;
    // Emit one sample per distinct time: after the last op at this tick.
    if (i + 1 == c.num_ops() || c.OpTime(i + 1) != c.OpTime(i)) {
      curve.emplace_back(c.OpTime(i), live);
    }
  }
  return curve;
}

std::vector<PhasePeak> PhasePeakBreakdown(const Trace& trace) {
  const auto curve = LiveBytesCurve(trace);
  std::vector<PhasePeak> peaks;
  peaks.reserve(trace.phases().size());
  for (PhaseId id = 0; id < static_cast<PhaseId>(trace.phases().size()); ++id) {
    const PhaseInfo& phase = trace.phase(id);
    PhasePeak p;
    p.phase = id;
    p.kind = phase.kind;
    p.start = phase.start;
    p.end = phase.end;
    if (phase.end > phase.start) {
      // The live-bytes step function holds the value of the last change point <= t at tick t:
      // the window's peak is the carried-in value at `start` plus every sample inside [start, end).
      auto it = std::lower_bound(
          curve.begin(), curve.end(), phase.start,
          [](const std::pair<LogicalTime, uint64_t>& s, LogicalTime t) { return s.first < t; });
      if (it != curve.begin()) {
        p.peak_live = std::prev(it)->second;  // value carried into the window
      }
      for (; it != curve.end() && it->first < phase.end; ++it) {
        p.peak_live = std::max(p.peak_live, it->second);
      }
    }
    peaks.push_back(p);
  }
  return peaks;
}

TraceStats ComputeStats(const Trace& trace, uint64_t min_size_filter) {
  TraceStats stats;
  stats.min_size_filter = min_size_filter;
  stats.num_events = trace.size();

  std::set<uint64_t> sizes;
  std::map<uint64_t, uint64_t> histogram;
  for (uint64_t id = 0; id < trace.size(); ++id) {
    const MemoryEvent e = trace.Event(id);
    stats.total_bytes += e.size;
    if (e.dyn) {
      ++stats.num_dynamic;
    } else {
      ++stats.num_static;
    }
    if (e.size > min_size_filter) {
      sizes.insert(e.size);
      ++histogram[Pow2Bucket(e.size)];
    }
    switch (trace.Classify(e)) {
      case LifespanClass::kPersistent:
        ++stats.persistent_count;
        stats.persistent_bytes += e.size;
        break;
      case LifespanClass::kScoped:
        ++stats.scoped_count;
        stats.scoped_bytes += e.size;
        break;
      case LifespanClass::kTransient:
        ++stats.transient_count;
        stats.transient_bytes += e.size;
        break;
    }
  }
  stats.distinct_sizes = sizes.size();

  uint64_t filtered_total = 0;
  for (const auto& [bucket, count] : histogram) {
    filtered_total += count;
  }
  for (const auto& [bucket, count] : histogram) {
    SizeBucket b;
    b.bucket_lo = bucket;
    b.count = count;
    b.frequency = filtered_total > 0 ? static_cast<double>(count) / filtered_total : 0;
    stats.size_histogram.push_back(b);
  }

  stats.peak_allocated = PeakAllocated(trace);
  for (const auto& [t, live] : LiveBytesCurve(trace)) {
    if (live == stats.peak_allocated) {
      stats.peak_time = t;
      break;
    }
  }
  stats.phase_peaks = PhasePeakBreakdown(trace);
  return stats;
}

std::string TraceStats::ToString() const {
  std::string out;
  out += StrFormat("events=%llu (static=%llu dynamic=%llu)\n",
                   static_cast<unsigned long long>(num_events),
                   static_cast<unsigned long long>(num_static),
                   static_cast<unsigned long long>(num_dynamic));
  out += StrFormat("peak allocated (Ma) = %s at t=%llu\n", FormatBytes(peak_allocated).c_str(),
                   static_cast<unsigned long long>(peak_time));
  out += StrFormat("distinct sizes (> %llu B) = %llu\n",
                   static_cast<unsigned long long>(min_size_filter),
                   static_cast<unsigned long long>(distinct_sizes));
  out += StrFormat("lifespans: persistent=%llu (%s) scoped=%llu (%s) transient=%llu (%s)\n",
                   static_cast<unsigned long long>(persistent_count),
                   FormatBytes(persistent_bytes).c_str(),
                   static_cast<unsigned long long>(scoped_count),
                   FormatBytes(scoped_bytes).c_str(),
                   static_cast<unsigned long long>(transient_count),
                   FormatBytes(transient_bytes).c_str());
  if (!phase_peaks.empty()) {
    const PhasePeak* worst = &phase_peaks.front();
    for (const PhasePeak& p : phase_peaks) {
      if (p.peak_live > worst->peak_live) {
        worst = &p;
      }
    }
    out += StrFormat("phase peaks: %zu windows, worst %s in phase #%d (%s)\n", phase_peaks.size(),
                     FormatBytes(worst->peak_live).c_str(), worst->phase,
                     PhaseKindName(worst->kind));
  }
  return out;
}

}  // namespace stalloc
