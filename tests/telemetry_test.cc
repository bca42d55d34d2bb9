// Tests for src/telemetry/: the metrics registry, the span tracer (ring semantics, JSON
// escaping, concurrent emission — run under TSan in CI), the OOM flight recorder, and the two
// cross-cutting contracts the layer must keep:
//   * one per-op instrumentation path — latency histograms fill exactly when telemetry is on;
//   * determinism — tracing ON leaves ClusterResult::Digest() bit-identical (the serial golden
//     digest pinned in sharded_fleet_test must reproduce with spans flowing).

#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/allocators/allocator.h"
#include "src/allocators/registry.h"
#include "src/api/session.h"
#include "src/api/spec.h"
#include "src/cluster/cluster_workload.h"
#include "src/cluster/fleet.h"
#include "src/common/units.h"
#include "src/core/stalloc_allocator.h"
#include "src/gpu/sim_device.h"
#include "src/telemetry/flight_recorder.h"
#include "src/telemetry/metrics.h"
#include "src/telemetry/telemetry.h"
#include "src/telemetry/tracer.h"

namespace stalloc {
namespace {

using telemetry::FlightOp;
using telemetry::FlightRecorder;
using telemetry::MetricsRegistry;
using telemetry::Tracer;

// Count non-overlapping occurrences of `needle` in `haystack`.
size_t CountOccurrences(const std::string& haystack, const std::string& needle) {
  size_t count = 0;
  for (size_t pos = haystack.find(needle); pos != std::string::npos;
       pos = haystack.find(needle, pos + needle.size())) {
    ++count;
  }
  return count;
}

// Every test starts and ends with telemetry disabled and all global stores zeroed, so tests
// compose in one binary regardless of order. Instruments/tracks persist by design — only
// their values reset.
class TelemetryTest : public ::testing::Test {
 protected:
  void SetUp() override { ResetAll(); }
  void TearDown() override { ResetAll(); }

  static void ResetAll() {
    telemetry::SetEnabled(false);
    MetricsRegistry::Global().Reset();
    Tracer::Global().Clear();
    Tracer::Global().SetCapacity(1 << 16);
    FlightRecorder::Global().Drain();
    FlightRecorder::Global().SetLimit(32);
  }
};

TEST_F(TelemetryTest, CounterGaugeBasics) {
  telemetry::Counter* c = MetricsRegistry::Global().GetCounter("test.counter");
  c->Add();
  c->Add(41);
  EXPECT_EQ(c->value(), 42u);
  // Find-or-create returns the same instrument for the same name.
  EXPECT_EQ(MetricsRegistry::Global().GetCounter("test.counter"), c);

  telemetry::Gauge* g = MetricsRegistry::Global().GetGauge("test.gauge");
  g->Set(10);
  g->Add(-3);
  EXPECT_EQ(g->value(), 7);

  MetricsRegistry::Global().Reset();
  EXPECT_EQ(c->value(), 0u);  // cached pointer survives Reset
  EXPECT_EQ(g->value(), 0);
}

TEST_F(TelemetryTest, HistogramBucketsAndSum) {
  telemetry::Histogram* h =
      MetricsRegistry::Global().GetHistogram("test.hist", {1.0, 10.0, 100.0});
  h->Record(0.5);    // <= 1
  h->Record(1.0);    // <= 1 (inclusive upper bound)
  h->Record(5.0);    // <= 10
  h->Record(1000.0); // overflow
  EXPECT_EQ(h->count(), 4u);
  EXPECT_DOUBLE_EQ(h->sum(), 1006.5);
  EXPECT_EQ(h->BucketCount(0), 2u);
  EXPECT_EQ(h->BucketCount(1), 1u);
  EXPECT_EQ(h->BucketCount(2), 0u);
  EXPECT_EQ(h->BucketCount(3), 1u);  // overflow bucket

  const std::string dump = MetricsRegistry::Global().ToJson().Dump(0);
  EXPECT_NE(dump.find("\"test.hist\""), std::string::npos);
  EXPECT_NE(dump.find("\"+Inf\""), std::string::npos);
  EXPECT_NE(dump.find("\"count\": 4"), std::string::npos);
}

TEST_F(TelemetryTest, RegistrySnapshotShape) {
  MetricsRegistry::Global().GetCounter("a.ops")->Add(3);
  MetricsRegistry::Global().GetGauge("a.depth")->Set(-2);
  const std::string dump = MetricsRegistry::Global().ToJson().Dump(0);
  EXPECT_NE(dump.find("\"counters\""), std::string::npos);
  EXPECT_NE(dump.find("\"gauges\""), std::string::npos);
  EXPECT_NE(dump.find("\"histograms\""), std::string::npos);
  EXPECT_NE(dump.find("\"a.ops\": 3"), std::string::npos);
  EXPECT_NE(dump.find("\"a.depth\": -2"), std::string::npos);
}

// Ring wraparound keeps the newest `capacity` events and counts the overwritten ones. The
// emitting thread is fresh so SetCapacity (which only applies to new tracks) takes effect.
TEST_F(TelemetryTest, RingKeepsNewestEventsOnWraparound) {
  telemetry::SetEnabled(true);
  Tracer::Global().SetCapacity(4);
  std::thread emitter([] {
    telemetry::TraceTrack* track = Tracer::Global().ThreadTrack();
    Tracer::Global().SetThreadName("wrap-emitter");
    for (int i = 0; i < 10; ++i) {
      track->Instant("wrap-ev-" + std::to_string(i), telemetry::kCatReplay,
                     Tracer::Global().NowUs());
    }
    EXPECT_EQ(track->size(), 4u);
    EXPECT_EQ(track->total(), 10u);
    EXPECT_EQ(track->dropped(), 6u);
  });
  emitter.join();

  EXPECT_EQ(Tracer::Global().DroppedEvents(), 6u);
  const std::string dump = Tracer::Global().ChromeTraceJson().Dump(0);
  // Newest four survive, oldest six are gone.
  for (int i = 6; i < 10; ++i) {
    EXPECT_NE(dump.find("wrap-ev-" + std::to_string(i)), std::string::npos) << i;
  }
  for (int i = 0; i < 6; ++i) {
    EXPECT_EQ(dump.find("wrap-ev-" + std::to_string(i)), std::string::npos) << i;
  }
  EXPECT_NE(dump.find("\"droppedEvents\": 6"), std::string::npos);
  EXPECT_NE(dump.find("wrap-emitter"), std::string::npos);  // thread_name metadata
}

// The tests below need emission points compiled in (the -DSTALLOC_TELEMETRY=OFF build turns
// Enabled() into a constant false, which is exactly what they'd observe).
#if STALLOC_TELEMETRY

// Span names flow into JSON verbatim — quotes, backslashes and control bytes must come out as
// valid JSON escapes, never raw.
TEST_F(TelemetryTest, ExportEscapesHostileSpanNames) {
  telemetry::SetEnabled(true);
  {
    telemetry::ScopedSpan span(telemetry::kCatSession, "quote\" back\\slash \n ctrl\x01 end");
    span.Arg("key\"with quote", Json("value\\with backslash"));
  }
  const std::string dump = Tracer::Global().ChromeTraceJson().Dump(0);
  EXPECT_NE(dump.find("quote\\\" back\\\\slash \\n ctrl\\u0001 end"), std::string::npos);
  EXPECT_NE(dump.find("key\\\"with quote"), std::string::npos);
  EXPECT_NE(dump.find("value\\\\with backslash"), std::string::npos);
  // No raw control byte or bare newline inside the compact dump's strings.
  EXPECT_EQ(dump.find('\x01'), std::string::npos);

  EXPECT_EQ(Json::Escape("a\"b\\c\nd\te\rf"), "a\\\"b\\\\c\\nd\\te\\rf");
  EXPECT_EQ(Json::Escape(std::string(1, '\x1f')), "\\u001f");
}

#endif  // STALLOC_TELEMETRY

// Disabled telemetry must be inert: spans allocate no track, instruments keep reading zero
// from the emission points' perspective (nothing is emitted).
TEST_F(TelemetryTest, DisabledTelemetryEmitsNothing) {
  ASSERT_FALSE(telemetry::Enabled());
  {
    telemetry::ScopedSpan span(telemetry::kCatSession, "should-not-appear");
    span.Arg("k", Json(1));
  }
  const std::string dump = Tracer::Global().ChromeTraceJson().Dump(0);
  EXPECT_EQ(dump.find("should-not-appear"), std::string::npos);
}

// Many threads emit into their own tracks while counters/histograms take concurrent updates;
// the export then sees every event. This is the test CI runs under TSan.
TEST_F(TelemetryTest, ConcurrentEmissionAcrossThreads) {
  telemetry::SetEnabled(true);
  constexpr int kThreads = 4;
  constexpr int kEventsPerThread = 500;
  telemetry::Counter* ops = MetricsRegistry::Global().GetCounter("cc.ops");
  telemetry::Histogram* lat = MetricsRegistry::Global().GetHistogram("cc.lat_us");

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, ops, lat] {
      telemetry::TraceTrack* track = Tracer::Global().ThreadTrack();
      Tracer::Global().SetThreadName("cc-thread-" + std::to_string(t));
      for (int i = 0; i < kEventsPerThread; ++i) {
        track->Instant("cc-ev", telemetry::kCatShard, Tracer::Global().NowUs());
        ops->Add();
        lat->Record(static_cast<double>(i % 7));
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }

  EXPECT_EQ(ops->value(), static_cast<uint64_t>(kThreads) * kEventsPerThread);
  EXPECT_EQ(lat->count(), static_cast<uint64_t>(kThreads) * kEventsPerThread);
  EXPECT_EQ(Tracer::Global().DroppedEvents(), 0u);
  const std::string dump = Tracer::Global().ChromeTraceJson().Dump(0);
  EXPECT_EQ(CountOccurrences(dump, "\"cc-ev\""),
            static_cast<size_t>(kThreads) * kEventsPerThread);
}

// === Determinism: tracing must not perturb the simulator ===

#if STALLOC_TELEMETRY

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

TEST_F(TelemetryTest, TracingLeavesClusterDigestBitIdentical) {
  const auto jobs = GenerateClusterWorkload(GoldenWorkload(), 21);
  FleetConfig fleet;
  fleet.device_capacities = {16 * GiB, 16 * GiB};
  fleet.policy = SchedulerPolicy::kFirstFit;
  fleet.allocator = "torch-caching";

  fleet.workers = 0;
  const std::string off_digest = RunCluster(fleet, jobs).Digest();

  telemetry::SetEnabled(true);
  EXPECT_EQ(RunCluster(fleet, jobs).Digest(), off_digest) << "serial digest moved under tracing";
  // The serial golden from sharded_fleet_test must reproduce with spans flowing.
  EXPECT_EQ(off_digest, "d6986ffe96219217");
  for (int workers : {2, 8}) {
    fleet.workers = workers;
    EXPECT_EQ(RunCluster(fleet, jobs).Digest(), off_digest)
        << "parallel digest moved under tracing at workers=" << workers;
  }
  EXPECT_GT(Tracer::Global().DroppedEvents() +
                MetricsRegistry::Global().GetCounter("cluster.windows")->value(),
            0u)
      << "tracing-enabled runs emitted nothing — the determinism check is vacuous";
}

// === End-to-end: a traced Session cluster run covers the subsystems ===

TEST_F(TelemetryTest, SessionClusterTraceCoversSubsystems) {
  telemetry::SetEnabled(true);

  ExperimentSpec spec;
  spec.axis = WorkloadAxis::kCluster;
  spec.devices = 2;
  spec.workers = 2;
  spec.options.capacity_bytes = 16ull * GiB;
  spec.options.run_seed = 7;
  spec.cluster.num_jobs = 4;
  spec.cluster.serve_requests = 16;

  Session session;
  const RunRecord rec = session.RunOne(spec, "torch-caching");
  EXPECT_TRUE(rec.ok());
  EXPECT_GT(rec.phases.total_ms, 0.0);
  EXPECT_GT(rec.phases.replay_ms, 0.0);  // the fleet day counts as replay

  const std::string dump = Tracer::Global().ChromeTraceJson().Dump(0);
  for (const char* cat : {telemetry::kCatSession, telemetry::kCatScheduler,
                          telemetry::kCatShard, telemetry::kCatAlloc, telemetry::kCatFleet}) {
    EXPECT_NE(dump.find("\"cat\": \"" + std::string(cat) + "\""), std::string::npos)
        << "no events from subsystem " << cat;
  }
}

// === OOM flight recorder ===

TEST_F(TelemetryTest, FlightRecorderCapturesOomPostMortem) {
  telemetry::SetEnabled(true);
  SimDevice device(64 * MiB);
  std::unique_ptr<Allocator> alloc = AllocatorRegistry::Global().Create("torch-caching", &device);
  ASSERT_NE(alloc, nullptr);

  // Enough traffic to wrap the 64-op flight ring, then a malloc that cannot fit.
  std::vector<uint64_t> addrs;
  for (int i = 0; i < 50; ++i) {
    auto addr = alloc->Malloc(1024);
    ASSERT_TRUE(addr.has_value());
    addrs.push_back(*addr);
  }
  for (uint64_t addr : addrs) {
    ASSERT_TRUE(alloc->Free(addr));
  }
  EXPECT_FALSE(alloc->Malloc(256 * MiB).has_value());

  ASSERT_EQ(FlightRecorder::Global().pending(), 1u);
  std::vector<telemetry::OomReport> reports = FlightRecorder::Global().Drain();
  ASSERT_EQ(reports.size(), 1u);
  const telemetry::OomReport& r = reports[0];
  EXPECT_EQ(r.allocator, alloc->name());
  EXPECT_EQ(r.failed_size, 256 * MiB);
  EXPECT_EQ(r.num_mallocs, 51u);  // the failing attempt counts
  EXPECT_EQ(r.num_frees, 50u);
  EXPECT_EQ(r.num_oom, 1u);
  EXPECT_EQ(r.allocated, 0u);  // everything freed before the failing malloc
  ASSERT_FALSE(r.recent.empty());
  EXPECT_LE(r.recent.size(), telemetry::FlightRing::kDefaultCapacity);
  // The ring holds the newest window: the tail op is the OOM itself, preceded by frees.
  EXPECT_EQ(r.recent.back().kind, FlightOp::Kind::kOom);
  EXPECT_EQ(r.recent.back().size, 256 * MiB);
  EXPECT_EQ(r.recent[r.recent.size() - 2].kind, FlightOp::Kind::kFree);
  // Drained means drained.
  EXPECT_EQ(FlightRecorder::Global().pending(), 0u);
  EXPECT_TRUE(FlightRecorder::Global().Drain().empty());
}

#endif  // STALLOC_TELEMETRY

TEST_F(TelemetryTest, FlightRecorderEvictsPastLimit) {
  FlightRecorder::Global().SetLimit(2);
  for (int i = 0; i < 5; ++i) {
    telemetry::OomReport report;
    report.allocator = "alloc-" + std::to_string(i);
    FlightRecorder::Global().Report(std::move(report));
  }
  EXPECT_EQ(FlightRecorder::Global().pending(), 2u);
  EXPECT_EQ(FlightRecorder::Global().evicted(), 3u);
  const std::vector<telemetry::OomReport> reports = FlightRecorder::Global().Drain();
  ASSERT_EQ(reports.size(), 2u);
  // Oldest evicted, newest kept, oldest-first order preserved.
  EXPECT_EQ(reports[0].allocator, "alloc-3");
  EXPECT_EQ(reports[1].allocator, "alloc-4");
}

// === Per-op latency: telemetry is the one instrumentation path ===

#if STALLOC_TELEMETRY

// Every unplanned kind, plus STAlloc with an empty plan so that every request takes the caching
// fallback. With requests of at most 1 MiB, GMLake, expandable segments and vmm serve them all
// from their caching small pool.
std::unique_ptr<Allocator> MakeCountedKind(const std::string& name, SimDevice* device) {
  if (name == "stalloc") {
    auto alloc = std::make_unique<STAllocAllocator>(device, StaticPlan{}, DynamicReusableSpace{});
    EXPECT_TRUE(alloc->Init());
    return alloc;
  }
  return AllocatorRegistry::Global().Create(name, device);
}

std::vector<std::string> CountedKinds() {
  std::vector<std::string> kinds = AllocatorRegistry::Global().Names(/*include_plan_kinds=*/false);
  kinds.push_back("stalloc");
  return kinds;
}

TEST_F(TelemetryTest, LatencyHistogramsCountEveryOp) {
  for (const std::string& kind : CountedKinds()) {
    SCOPED_TRACE(kind);
    MetricsRegistry::Global().Reset();
    telemetry::SetEnabled(true);
    SimDevice device(64 * MiB);
    std::unique_ptr<Allocator> alloc = MakeCountedKind(kind, &device);
    ASSERT_NE(alloc, nullptr);

    constexpr int kOps = 32;
    std::vector<uint64_t> addrs;
    for (int i = 0; i < kOps; ++i) {
      addrs.push_back(alloc->Malloc(4096).value());
    }
    for (uint64_t addr : addrs) {
      ASSERT_TRUE(alloc->Free(addr));
    }
    telemetry::SetEnabled(false);

    // The registry histograms and counters saw exactly the replayed ops, each once.
    EXPECT_EQ(MetricsRegistry::Global().GetHistogram("alloc.malloc_latency_us")->count(),
              static_cast<uint64_t>(kOps));
    EXPECT_EQ(MetricsRegistry::Global().GetHistogram("alloc.free_latency_us")->count(),
              static_cast<uint64_t>(kOps));
    EXPECT_EQ(MetricsRegistry::Global().GetCounter("alloc.mallocs")->value(),
              static_cast<uint64_t>(kOps));
    EXPECT_EQ(MetricsRegistry::Global().GetCounter("alloc.frees")->value(),
              static_cast<uint64_t>(kOps));
    EXPECT_EQ(MetricsRegistry::Global().GetCounter("alloc.bytes_allocated")->value(),
              static_cast<uint64_t>(kOps) * 4096);
    EXPECT_EQ(MetricsRegistry::Global().GetCounter("alloc.bytes_freed")->value(),
              static_cast<uint64_t>(kOps) * 4096);
  }
}

// A small request that finds the device full files one flight report, under the kind's own name.
TEST_F(TelemetryTest, SmallRequestOomFilesOneReport) {
  for (const std::string& kind : CountedKinds()) {
    SCOPED_TRACE(kind);
    FlightRecorder::Global().Drain();
    SimDevice device(8 * MiB);
    std::unique_ptr<Allocator> alloc = MakeCountedKind(kind, &device);
    ASSERT_NE(alloc, nullptr);
    telemetry::SetEnabled(true);
    int served = 0;
    while (alloc->Malloc(4096).has_value()) {
      ASSERT_LT(++served, 4096) << "an 8 MiB device cannot hold this many 4 KiB blocks";
    }
    telemetry::SetEnabled(false);
    const std::vector<telemetry::OomReport> reports = FlightRecorder::Global().Drain();
    EXPECT_EQ(reports.size(), 1u);
    if (!reports.empty()) {
      EXPECT_EQ(reports.back().allocator, alloc->name());
      EXPECT_EQ(reports.back().num_mallocs, static_cast<uint64_t>(served) + 1);
    }
  }
}

#endif  // STALLOC_TELEMETRY

// With telemetry off, the hot path must stay untimed and unrecorded.
TEST_F(TelemetryTest, DisabledTelemetryLeavesAllocatorHotPathUntimed) {
  SimDevice device(64 * MiB);
  std::unique_ptr<Allocator> alloc = AllocatorRegistry::Global().Create("torch-caching", &device);
  ASSERT_NE(alloc, nullptr);
  const uint64_t addr = alloc->Malloc(4096).value();
  ASSERT_TRUE(alloc->Free(addr));
  EXPECT_EQ(MetricsRegistry::Global().GetHistogram("alloc.malloc_latency_us")->count(), 0u);
  EXPECT_EQ(MetricsRegistry::Global().GetCounter("alloc.mallocs")->value(), 0u);
  EXPECT_EQ(FlightRecorder::Global().pending(), 0u);
}

}  // namespace
}  // namespace stalloc
