// Dedicated coverage for src/trace/trace_stats.*: the motivation-figure analyses (size
// distribution, lifespan classes, theoretical peak) on hand-built traces with known answers.

#include "src/trace/trace_stats.h"

#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/units.h"

namespace stalloc {
namespace {

MemoryEvent Ev(uint64_t size, LogicalTime ts, LogicalTime te, PhaseId ps, PhaseId pe,
               bool dyn = false) {
  MemoryEvent e;
  e.size = size;
  e.ts = ts;
  e.te = te;
  e.ps = ps;
  e.pe = pe;
  e.dyn = dyn;
  if (dyn) {
    e.ls = 0;
    e.le = 0;
  }
  return e;
}

// init [0,2), fwd [2,6), bwd [6,10), opt [10,12); one layer for dynamic events.
Trace KnownTrace() {
  Trace t;
  t.set_name("known");
  PhaseId init = t.AddPhase(PhaseInfo{PhaseKind::kIterInit, -1, -1, 0, 2});
  PhaseId fwd = t.AddPhase(PhaseInfo{PhaseKind::kForward, 0, -1, 2, 6});
  PhaseId bwd = t.AddPhase(PhaseInfo{PhaseKind::kBackward, 0, -1, 6, 10});
  PhaseId opt = t.AddPhase(PhaseInfo{PhaseKind::kOptimizer, -1, -1, 10, 12});
  t.AddLayer(LayerInfo{"l0", 2, 10});
  t.AddEvent(Ev(1000, 0, 12, init, opt));        // persistent, live throughout
  t.AddEvent(Ev(600, 2, 8, fwd, bwd));           // scoped activation
  t.AddEvent(Ev(100, 3, 5, fwd, fwd));           // transient workspace (filtered: <= 512)
  t.AddEvent(Ev(600, 6, 9, bwd, bwd, true));     // dynamic transient
  t.Validate();
  return t;
}

// A sealed one-phase trace holding `events` (whose ps/pe are phase 0).
Trace SealedTrace(const std::vector<MemoryEvent>& events) {
  Trace t;
  t.AddPhase(PhaseInfo{PhaseKind::kForward, 0, -1, 0, 8});
  for (const MemoryEvent& e : events) {
    t.AddEvent(e);
  }
  t.Validate();
  return t;
}

TEST(TraceStats, CountsAndClasses) {
  TraceStats s = ComputeStats(KnownTrace());
  EXPECT_EQ(s.num_events, 4u);
  EXPECT_EQ(s.num_static, 3u);
  EXPECT_EQ(s.num_dynamic, 1u);
  EXPECT_EQ(s.total_bytes, 1000u + 600 + 100 + 600);
  EXPECT_EQ(s.persistent_count, 1u);
  EXPECT_EQ(s.scoped_count, 1u);
  EXPECT_EQ(s.transient_count, 2u);
  EXPECT_EQ(s.persistent_bytes, 1000u);
  EXPECT_EQ(s.scoped_bytes, 600u);
  EXPECT_EQ(s.transient_bytes, 700u);
}

TEST(TraceStats, DistinctSizesHonourTheFilter) {
  // The 100-byte workspace is under the paper's 512-byte cut; 600 appears twice but counts once.
  TraceStats s = ComputeStats(KnownTrace());
  EXPECT_EQ(s.distinct_sizes, 2u);  // {1000, 600}
  TraceStats all = ComputeStats(KnownTrace(), 0);
  EXPECT_EQ(all.distinct_sizes, 3u);  // {1000, 600, 100}
}

TEST(TraceStats, PeakAndPeakTime) {
  // Live bytes: [0,2)=1000, [2,3)=1600, [3,5)=1700, [5,6)=1600, [6,8)=2200, [8,9)=1600, ...
  TraceStats s = ComputeStats(KnownTrace());
  EXPECT_EQ(s.peak_allocated, 2200u);
  EXPECT_EQ(s.peak_time, 6u);
  EXPECT_EQ(PeakAllocated(KnownTrace()), 2200u);
}

TEST(TraceStats, LiveBytesCurveTracksEveryChangePoint) {
  const Trace t = KnownTrace();
  auto curve = LiveBytesCurve(t);
  ASSERT_FALSE(curve.empty());
  // The curve must contain the peak and end at zero live bytes.
  uint64_t max_live = 0;
  for (const auto& [time, live] : curve) {
    max_live = std::max(max_live, live);
  }
  EXPECT_EQ(max_live, 2200u);
  EXPECT_EQ(curve.back().second, 0u);
  // Change points are strictly ordered in time.
  for (size_t i = 1; i < curve.size(); ++i) {
    EXPECT_LT(curve[i - 1].first, curve[i].first);
  }
}

TEST(TraceStats, PeakAllocatedOfSmallTraces) {
  const Trace overlap = SealedTrace({Ev(100, 0, 4, 0, 0), Ev(200, 2, 6, 0, 0)});
  EXPECT_EQ(PeakAllocated(overlap), 300u);
  // Half-open lifespans: a free at t and a malloc at t do not overlap.
  const Trace handover = SealedTrace({Ev(100, 0, 4, 0, 0), Ev(200, 4, 6, 0, 0)});
  EXPECT_EQ(PeakAllocated(handover), 200u);
  EXPECT_EQ(PeakAllocated(SealedTrace({})), 0u);
}

TEST(TraceStats, SizeHistogramBucketsArePowerOfTwoAndSumToTotal) {
  TraceStats s = ComputeStats(KnownTrace(), 0);
  uint64_t total = 0;
  double freq = 0;
  for (const auto& b : s.size_histogram) {
    total += b.count;
    freq += b.frequency;
    if (b.bucket_lo != 0) {
      EXPECT_TRUE(IsPowerOfTwo(b.bucket_lo)) << b.bucket_lo;
    }
  }
  EXPECT_EQ(total, s.num_events);
  EXPECT_NEAR(freq, 1.0, 1e-9);
}

TEST(TraceStats, PhasePeakBreakdownPerWindow) {
  // Live bytes: [0,2)=1000, [2,3)=1600, [3,5)=1700, [5,6)=1600, [6,8)=2200, [8,9)=1600,
  // [9,10)=1000, [10,12)=1000.
  const Trace t = KnownTrace();
  auto peaks = PhasePeakBreakdown(t);
  ASSERT_EQ(peaks.size(), 4u);
  EXPECT_EQ(peaks[0].kind, PhaseKind::kIterInit);
  EXPECT_EQ(peaks[0].peak_live, 1000u);
  EXPECT_EQ(peaks[1].kind, PhaseKind::kForward);
  EXPECT_EQ(peaks[1].peak_live, 1700u);
  EXPECT_EQ(peaks[2].kind, PhaseKind::kBackward);
  EXPECT_EQ(peaks[2].peak_live, 2200u);
  // The optimizer window has no change points of its own: the peak is the carried-in live value.
  EXPECT_EQ(peaks[3].kind, PhaseKind::kOptimizer);
  EXPECT_EQ(peaks[3].peak_live, 1000u);
  // Window bounds come straight from the phase table.
  EXPECT_EQ(peaks[2].start, 6u);
  EXPECT_EQ(peaks[2].end, 10u);
}

TEST(TraceStats, PhasePeaksBoundTheGlobalPeak) {
  TraceStats s = ComputeStats(KnownTrace());
  ASSERT_EQ(s.phase_peaks.size(), 4u);
  uint64_t worst = 0;
  for (const PhasePeak& p : s.phase_peaks) {
    EXPECT_LE(p.peak_live, s.peak_allocated);
    worst = std::max(worst, p.peak_live);
  }
  // Phases tile the trace timeline here, so the worst window *is* the global peak.
  EXPECT_EQ(worst, s.peak_allocated);
}

TEST(TraceStats, PhasePeaksOnPhaselessTraceAreEmpty) {
  Trace t;
  t.AddEvent(Ev(100, 0, 4, kInvalidPhase, kInvalidPhase));
  t.Validate();
  EXPECT_TRUE(PhasePeakBreakdown(t).empty());
}

TEST(TraceStats, ToStringMentionsTheClasses) {
  const std::string text = ComputeStats(KnownTrace()).ToString();
  EXPECT_NE(text.find("persistent"), std::string::npos);
  EXPECT_NE(text.find("scoped"), std::string::npos);
  EXPECT_NE(text.find("transient"), std::string::npos);
}

}  // namespace
}  // namespace stalloc
