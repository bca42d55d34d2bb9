// Tests for the heap-map observability layer (src/telemetry/heap_map.*): the size-group
// labeler, the gap/attribution math and its exact invariant (sum(attribution) == free_bytes),
// allocator-side snapshot triggers (phase change, exact peak, OOM, every-N, per-allocator
// cap), the per-run attribution rollup, and the contract the whole subsystem hangs on:
// arming the recorder leaves the cluster digest bit-identical and the drained heap timeline
// is byte-for-byte the same at any worker count.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/allocators/allocator.h"
#include "src/allocators/registry.h"
#include "src/api/serializers.h"
#include "src/cluster/cluster_workload.h"
#include "src/cluster/fleet.h"
#include "src/common/units.h"
#include "src/gpu/sim_device.h"
#include "src/telemetry/flight_recorder.h"
#include "src/telemetry/heap_map.h"
#include "src/telemetry/metrics.h"
#include "src/telemetry/telemetry.h"
#include "src/telemetry/tracer.h"

namespace stalloc {
namespace {

using telemetry::FragAttributionRow;
using telemetry::HeapMapConfig;
using telemetry::HeapMapRecorder;
using telemetry::HeapSnapshot;
using telemetry::HeapTrigger;

// Every test starts and ends with telemetry disabled and the recorder disarmed and empty, so
// tests compose in one binary regardless of order.
class HeapMapTest : public ::testing::Test {
 protected:
  void SetUp() override { ResetAll(); }
  void TearDown() override { ResetAll(); }

  static void ResetAll() {
    telemetry::SetEnabled(false);
    HeapMapRecorder::Global().Disarm();
    HeapMapRecorder::Global().Drain();
    telemetry::MetricsRegistry::Global().Reset();
    telemetry::Tracer::Global().Clear();
    telemetry::FlightRecorder::Global().Drain();
  }
};

TEST_F(HeapMapTest, SizeGroupLabels) {
  EXPECT_EQ(telemetry::SizeGroupLabel(0), "<64K");
  EXPECT_EQ(telemetry::SizeGroupLabel(64 * KiB - 1), "<64K");
  EXPECT_EQ(telemetry::SizeGroupLabel(64 * KiB), "64K-256K");
  EXPECT_EQ(telemetry::SizeGroupLabel(1 * MiB), "1M-4M");
  EXPECT_EQ(telemetry::SizeGroupLabel(20 * MiB), "16M-64M");
  EXPECT_EQ(telemetry::SizeGroupLabel(512 * MiB), "256M-1G");
  EXPECT_EQ(telemetry::SizeGroupLabel(4 * GiB), ">=1G");
}

// The gap math on a hand-built frame: an interior gap splits between its two pinning
// neighbors (left gets the rounding remainder), an edge gap charges its single neighbor
// fully, and the rows sum to free_bytes exactly.
TEST_F(HeapMapTest, FinalizeAttributesGapsToPinningBlocks) {
  HeapSnapshot snap;
  telemetry::HeapSegment seg;
  seg.base = 0;
  seg.size = 100;
  snap.segments.push_back(seg);

  telemetry::HeapBlock b1;
  b1.addr = 0;
  b1.size = 10;
  b1.phase = 1;
  telemetry::HeapBlock b2;
  b2.addr = 20;
  b2.size = 10;
  b2.phase = 2;
  snap.blocks = {b1, b2};

  telemetry::FinalizeHeapSnapshot(&snap);

  EXPECT_EQ(snap.free_bytes, 80u);   // gap [10,20) + gap [30,100)
  EXPECT_EQ(snap.largest_gap, 70u);
  EXPECT_EQ(snap.num_gaps, 2u);

  uint64_t sum = 0;
  uint64_t phase1_bytes = 0, phase2_bytes = 0;
  for (const FragAttributionRow& row : snap.attribution) {
    sum += row.bytes;
    if (row.phase == 1) phase1_bytes += row.bytes;
    if (row.phase == 2) phase2_bytes += row.bytes;
  }
  EXPECT_EQ(sum, snap.free_bytes);
  EXPECT_EQ(phase1_bytes, 5u);        // half of the interior 10-byte gap
  EXPECT_EQ(phase2_bytes, 5u + 70u);  // other half + the whole trailing edge gap
}

// A reserved segment with no blocks at all is fragmentation nobody pins: it lands on the
// "idle" row rather than vanishing (the invariant must still hold).
TEST_F(HeapMapTest, EmptySegmentChargesIdleRow) {
  HeapSnapshot snap;
  telemetry::HeapSegment seg;
  seg.base = 1000;
  seg.size = 64;
  snap.segments.push_back(seg);

  telemetry::FinalizeHeapSnapshot(&snap);
  EXPECT_EQ(snap.free_bytes, 64u);
  ASSERT_EQ(snap.attribution.size(), 1u);
  EXPECT_EQ(snap.attribution[0].size_group, "idle");
  EXPECT_EQ(snap.attribution[0].bytes, 64u);
}

// With the recorder unarmed, an enabled-telemetry run must not record anything — the heap
// map costs one relaxed load and nothing else unless explicitly requested.
TEST_F(HeapMapTest, UnarmedRecorderCapturesNothing) {
  telemetry::SetEnabled(true);
  SimDevice device(64 * MiB);
  std::unique_ptr<Allocator> alloc = AllocatorRegistry::Global().Create("torch-caching", &device);
  ASSERT_NE(alloc, nullptr);
  const uint64_t addr = alloc->Malloc(1 * MiB).value();
  ASSERT_TRUE(alloc->Free(addr));
  EXPECT_EQ(HeapMapRecorder::Global().pending(), 0u);
  EXPECT_TRUE(HeapMapRecorder::Global().Drain().empty());
}

#if STALLOC_TELEMETRY

// The invariant on a real allocator: manual snapshots of a caching allocator mid-churn sum
// their attribution rows to free_bytes exactly, and free_bytes equals reserved-minus-covered.
TEST_F(HeapMapTest, ManualSnapshotInvariantOnCachingAllocator) {
  telemetry::SetEnabled(true);
  HeapMapRecorder::Global().Arm(HeapMapConfig{});
  SimDevice device(256 * MiB);
  std::unique_ptr<Allocator> alloc = AllocatorRegistry::Global().Create("torch-caching", &device);
  ASSERT_NE(alloc, nullptr);
  auto* base = dynamic_cast<AllocatorBase*>(alloc.get());
  ASSERT_NE(base, nullptr);

  // Churn that leaves holes: allocate a spread of sizes, free every other block.
  std::vector<uint64_t> addrs;
  for (int i = 0; i < 24; ++i) {
    addrs.push_back(alloc->Malloc((1 + i % 5) * MiB).value());
  }
  for (size_t i = 0; i < addrs.size(); i += 2) {
    ASSERT_TRUE(alloc->Free(addrs[i]));
  }

  base->CaptureHeapSnapshot(HeapTrigger::kManual);
  std::vector<HeapSnapshot> timeline = HeapMapRecorder::Global().Drain();
  const HeapSnapshot* manual = nullptr;
  for (const HeapSnapshot& s : timeline) {
    if (s.trigger == HeapTrigger::kManual) manual = &s;
  }
  ASSERT_NE(manual, nullptr);
  EXPECT_GT(manual->free_bytes, 0u);
  EXPECT_GT(manual->num_gaps, 0u);
  uint64_t sum = 0;
  for (const FragAttributionRow& row : manual->attribution) sum += row.bytes;
  EXPECT_EQ(sum, manual->free_bytes);

  uint64_t segment_bytes = 0, block_bytes = 0;
  for (const auto& seg : manual->segments) segment_bytes += seg.size;
  for (const auto& block : manual->blocks) block_bytes += block.size;
  EXPECT_EQ(manual->free_bytes, segment_bytes - block_bytes);
}

// Leaving a new global allocated high-water mark snapshots the heap *before* the first free
// applies: the frame's allocated equals Ma exactly, with the full peak-resident set on board.
// Re-touching the same peak later must not re-snapshot.
TEST_F(HeapMapTest, ExactPeakFrameCapturedOnDescent) {
  telemetry::SetEnabled(true);
  HeapMapConfig config;
  config.on_phase_change = false;
  config.on_peak = true;
  HeapMapRecorder::Global().Arm(config);
  SimDevice device(256 * MiB);
  std::unique_ptr<Allocator> alloc = AllocatorRegistry::Global().Create("torch-caching", &device);
  ASSERT_NE(alloc, nullptr);

  const uint64_t a = alloc->Malloc(8 * MiB).value();
  const uint64_t b = alloc->Malloc(16 * MiB).value();
  ASSERT_TRUE(alloc->Free(a));  // descend from the 24 MiB peak -> exact-peak frame
  const uint64_t c = alloc->Malloc(8 * MiB).value();
  ASSERT_TRUE(alloc->Free(c));  // back at 24 MiB, not above: no second frame
  ASSERT_TRUE(alloc->Free(b));

  std::vector<HeapSnapshot> peaks;
  for (const HeapSnapshot& s : HeapMapRecorder::Global().Drain()) {
    if (s.trigger == HeapTrigger::kPeak && s.allocated == alloc->stats().allocated_peak) {
      peaks.push_back(s);
    }
  }
  ASSERT_EQ(peaks.size(), 1u);
  EXPECT_EQ(peaks[0].allocated, 24 * MiB);
  EXPECT_EQ(peaks[0].blocks.size(), 2u);  // both blocks still live in the frame
}

// An OOM captures the address space at the instant of failure, with the failed size on the
// frame — even when ordinary snapshots have exhausted the per-allocator cap (the urgent
// reserve must admit it).
TEST_F(HeapMapTest, OomSnapshotSurvivesExhaustedCap) {
  telemetry::SetEnabled(true);
  HeapMapConfig config;
  config.on_phase_change = false;
  config.on_peak = false;
  config.every_n_ops = 1;
  config.max_snapshots_per_allocator = 2;
  HeapMapRecorder::Global().Arm(config);
  SimDevice device(64 * MiB);
  std::unique_ptr<Allocator> alloc = AllocatorRegistry::Global().Create("torch-caching", &device);
  ASSERT_NE(alloc, nullptr);

  const uint64_t a = alloc->Malloc(40 * MiB).value();
  for (int i = 0; i < 6; ++i) {
    const uint64_t x = alloc->Malloc(1 * MiB).value();
    ASSERT_TRUE(alloc->Free(x));  // every-op snapshots burn the cap of 2
  }
  EXPECT_FALSE(alloc->Malloc(40 * MiB).has_value());
  ASSERT_TRUE(alloc->Free(a));

  std::vector<HeapSnapshot> timeline = HeapMapRecorder::Global().Drain();
  const HeapSnapshot* oom = nullptr;
  size_t ordinary = 0;
  for (const HeapSnapshot& s : timeline) {
    if (s.trigger == HeapTrigger::kOom) {
      oom = &s;
    } else {
      ++ordinary;
    }
  }
  EXPECT_EQ(ordinary, 2u);  // the cap held for every-N frames
  ASSERT_NE(oom, nullptr);
  EXPECT_EQ(oom->failed_size, 40 * MiB);
  EXPECT_EQ(oom->allocated, 40 * MiB);
  EXPECT_GE(oom->num_oom, 1u);
}

// Phase-boundary trigger: the first tagged op establishes a baseline silently; each later
// phase change fires one frame tagged with the op's context.
TEST_F(HeapMapTest, PhaseChangeTriggersOncePerBoundary) {
  telemetry::SetEnabled(true);
  HeapMapConfig config;
  config.on_peak = false;
  HeapMapRecorder::Global().Arm(config);
  SimDevice device(64 * MiB);
  std::unique_ptr<Allocator> alloc = AllocatorRegistry::Global().Create("torch-caching", &device);
  ASSERT_NE(alloc, nullptr);

  RequestContext ctx;
  ctx.phase = 3;
  alloc->Malloc(1 * MiB, ctx);   // baseline, no frame
  alloc->Malloc(1 * MiB, ctx);   // same phase, no frame
  ctx.phase = 4;
  ctx.tenant = 7;
  alloc->Malloc(1 * MiB, ctx);   // boundary -> one frame
  alloc->Malloc(1 * MiB, ctx);   // same phase, no frame

  std::vector<HeapSnapshot> timeline = HeapMapRecorder::Global().Drain();
  ASSERT_EQ(timeline.size(), 1u);
  EXPECT_EQ(timeline[0].trigger, HeapTrigger::kPhaseChange);
  EXPECT_EQ(timeline[0].blocks.size(), 3u);
  // The boundary op's block carries its request context into the frame.
  bool tagged = false;
  for (const auto& block : timeline[0].blocks) {
    if (block.phase == 4 && block.tenant == 7) tagged = true;
  }
  EXPECT_TRUE(tagged);
}

// The rollup picks each label's peak-allocated frame (not the emptiest one) and honors the
// prefer-filter so a profiling pass's native allocator stays out of a stalloc run's table.
TEST_F(HeapMapTest, RunAttributionPrefersPeakFrameAndLabel) {
  auto make = [](const std::string& label, uint64_t seq, uint64_t allocated, uint64_t gap_bytes,
                 const std::string& group) {
    HeapSnapshot s;
    s.allocator = label;
    s.seq = seq;
    s.allocated = allocated;
    s.free_bytes = gap_bytes;
    FragAttributionRow row;
    row.size_group = group;
    row.bytes = gap_bytes;
    row.gaps = 1;
    s.attribution.push_back(row);
    return s;
  };
  // (label, seq)-sorted, as Drain() emits: the near-empty frame has far more free bytes, but
  // the peak frame (allocated=200) is the one that explains fragmentation at pressure.
  std::vector<HeapSnapshot> timeline;
  timeline.push_back(make("native", 0, 500, 999, "64K-256K"));
  timeline.push_back(make("stalloc", 0, 10, 5000, "idle"));
  timeline.push_back(make("stalloc", 1, 200, 40, "1M-4M"));

  std::vector<FragAttributionRow> rows = telemetry::RunAttribution(timeline, "stalloc");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].size_group, "1M-4M");
  EXPECT_EQ(rows[0].bytes, 40u);

  // No label matches the preference -> every label contributes its peak frame.
  rows = telemetry::RunAttribution(timeline, "no-such-allocator");
  uint64_t total = 0;
  for (const FragAttributionRow& row : rows) total += row.bytes;
  EXPECT_EQ(total, 999u + 40u);
}

// === Determinism: the heap map must not perturb the simulator, and must itself be ===
// === bit-identical at any worker count (the observability layer's golden contract) ===

ClusterWorkloadConfig GoldenWorkload() {
  // Mirrors sharded_fleet_test's SmallMixedWorkload — the pinned serial golden digest below
  // is the same value pinned there; update both together or not at all.
  ClusterWorkloadConfig config;
  config.num_jobs = 6;
  config.train_fraction = 0.5;
  config.mean_interarrival = 800;
  config.micro_batches = {1, 2};
  config.num_microbatches = 2;
  config.max_pp = 2;
  config.min_iterations = 1;
  config.max_iterations = 2;
  config.serve_requests = 12;
  config.kv_budget_bytes = 1 * GiB;
  return config;
}

std::string SerializeTimeline(const std::vector<HeapSnapshot>& timeline) {
  std::string out;
  for (const HeapSnapshot& s : timeline) {
    out += ToJson(s).Dump(0);
    out += '\n';
  }
  return out;
}

TEST_F(HeapMapTest, ClusterTimelineBitIdenticalAcrossWorkerCounts) {
  const auto jobs = GenerateClusterWorkload(GoldenWorkload(), 21);
  FleetConfig fleet;
  fleet.device_capacities = {16 * GiB, 16 * GiB};
  fleet.policy = SchedulerPolicy::kFirstFit;
  fleet.allocator = "torch-caching";

  telemetry::SetEnabled(true);
  HeapMapRecorder::Global().Arm(HeapMapConfig{});

  fleet.workers = 0;
  const std::string serial_digest = RunCluster(fleet, jobs).Digest();
  EXPECT_EQ(serial_digest, "d6986ffe96219217") << "heap map armed moved the golden digest";
  const std::vector<HeapSnapshot> serial_timeline = HeapMapRecorder::Global().Drain();
  ASSERT_FALSE(serial_timeline.empty()) << "armed cluster run recorded no snapshots";
  const std::string serial_bytes = SerializeTimeline(serial_timeline);

  // Fleet devices must be disambiguated in the frame labels.
  bool per_device = false;
  for (const HeapSnapshot& s : serial_timeline) {
    if (s.allocator.find("@dev") != std::string::npos) per_device = true;
  }
  EXPECT_TRUE(per_device);

  for (int workers : {2, 8}) {
    fleet.workers = workers;
    EXPECT_EQ(RunCluster(fleet, jobs).Digest(), serial_digest)
        << "digest moved with heap map armed at workers=" << workers;
    EXPECT_EQ(SerializeTimeline(HeapMapRecorder::Global().Drain()), serial_bytes)
        << "heap timeline not bit-identical at workers=" << workers;
  }
}

#endif  // STALLOC_TELEMETRY

}  // namespace
}  // namespace stalloc
