// The VMM allocator family (src/vmm): VA reservation invariants, map-table exhaustion,
// remap-based compaction decisions, the granularity trade-off, and fleet determinism with the
// vmm kind plugged into the sharded cluster.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/cluster/cluster_workload.h"
#include "src/cluster/fleet.h"
#include "src/cluster/scheduler.h"
#include "src/common/units.h"
#include "src/driver/replay.h"
#include "src/gpu/sim_device.h"
#include "src/telemetry/heap_map.h"
#include "src/trace/synthetic.h"
#include "src/trace/trace.h"
#include "src/vmm/va_space.h"
#include "src/vmm/vmm_allocator.h"

namespace stalloc {
namespace {

constexpr uint64_t kPage = SimDevice::kGranularity;  // 2 MiB

VmmConfig NoSmallPool() {
  VmmConfig config;
  config.small_size = 0;  // large path only: page math is exact, no caching-pool reserve
  return config;
}

// --- VaSpace: the reservation is made once, pages map/unmap inside it ---

TEST(VaSpace, ReservationInvariants) {
  SimDevice dev(1 * GiB);
  VaSpace va(&dev, 64 * MiB, kPage);
  EXPECT_EQ(dev.counters().va_reserve, 1u);
  EXPECT_NE(va.base(), 0u);  // never 0: 0 is the allocator's failure value
  EXPECT_EQ(va.num_pages(), 32u);
  EXPECT_EQ(va.mapped_bytes(), 0u);

  const MemHandle h = *dev.MemCreate(kPage);
  va.MapPage(3, h);
  EXPECT_TRUE(va.IsMapped(3));
  EXPECT_EQ(va.mapped_bytes(), kPage);
  EXPECT_EQ(va.UnmapPage(3), h);
  EXPECT_FALSE(va.IsMapped(3));
  dev.MemRelease(h);
  // The reservation itself is untouched by map churn.
  EXPECT_EQ(dev.counters().va_reserve, 1u);
}

TEST(VaSpace, DestructorReturnsEverything) {
  SimDevice dev(1 * GiB);
  {
    VaSpace va(&dev, 16 * MiB, kPage);
    va.MapPage(0, *dev.MemCreate(kPage));
    va.MapPage(7, *dev.MemCreate(kPage));
    EXPECT_EQ(dev.physical_used(), 2 * kPage);
  }
  EXPECT_EQ(dev.physical_used(), 0u);
  EXPECT_EQ(dev.counters().va_free, dev.counters().va_reserve);
  EXPECT_EQ(dev.counters().mem_release, dev.counters().mem_create);
}

// --- VmmAllocator: VA exhaustion is an OOM even with physical memory to spare ---

TEST(VmmAllocator, MapTableExhaustionIsOom) {
  SimDevice dev(1 * GiB);
  VmmConfig config = NoSmallPool();
  config.va_size = 8 * kPage;  // tiny reservation; the device could back 512 pages
  VmmAllocator alloc(&dev, config);
  auto a = alloc.Malloc(8 * kPage);
  ASSERT_TRUE(a.has_value());
  EXPECT_FALSE(alloc.Malloc(kPage).has_value()) << "no VA left: must fail, not wrap";
  ASSERT_TRUE(alloc.Free(*a));
  // Freed VA is reusable; physical stayed far below capacity throughout.
  EXPECT_TRUE(alloc.Malloc(8 * kPage).has_value());
  EXPECT_LE(dev.physical_used(), 8 * kPage);
}

// --- remap-based compaction: the decision pins ---

// Checkerboard: A B C D at 2 pages each fills a tight device; freeing B and D leaves two idle
// 2-page holes. A 4-page request fits neither hole virtually, and physically the device is
// exhausted. The pinned decision chain: best-fit places the block over D's coalesced hole
// (reusing D's two still-mapped pages), and the two pages beyond it are backed by *remapping*
// B's idle handles — no new physical memory, zero bytes copied.
TEST(VmmAllocator, RemapStealsIdlePagesInsteadOfCreating) {
  SimDevice dev(8 * kPage);
  VmmConfig config = NoSmallPool();
  config.va_size = 32 * kPage;  // VA is plentiful; only physical is tight
  VmmAllocator alloc(&dev, config);
  auto a = alloc.Malloc(2 * kPage);
  auto b = alloc.Malloc(2 * kPage);
  auto c = alloc.Malloc(2 * kPage);
  auto d = alloc.Malloc(2 * kPage);
  ASSERT_TRUE(a && b && c && d);
  EXPECT_EQ(dev.physical_used(), 8 * kPage);
  const uint64_t handles_before = alloc.handle_pool().stats().created;
  ASSERT_TRUE(alloc.Free(*b));
  ASSERT_TRUE(alloc.Free(*d));

  auto big = alloc.Malloc(4 * kPage);
  ASSERT_TRUE(big.has_value());
  EXPECT_EQ(*big, *d) << "best fit must reuse D's coalesced (still-mapped) hole";
  EXPECT_EQ(alloc.handle_pool().stats().created, handles_before)
      << "remap must not create handles";
  EXPECT_EQ(dev.physical_used(), 8 * kPage) << "no new physical memory";
  EXPECT_EQ(alloc.vmm_stats().remap_events, 1u);
  EXPECT_EQ(alloc.vmm_stats().pages_remapped, 2u) << "only the pages beyond D's hole remap";
  EXPECT_EQ(alloc.vmm_stats().bytes_remapped, 2 * kPage);
  EXPECT_EQ(alloc.vmm_stats().bytes_copied, 0u);
  ASSERT_TRUE(alloc.Free(*a) && alloc.Free(*c) && alloc.Free(*big));
}

// The same squeeze with remapping disabled is a hard OOM: the config knob isolates exactly what
// the remap path buys.
TEST(VmmAllocator, SameSqueezeWithoutRemapIsOom) {
  SimDevice dev(8 * kPage);
  VmmConfig config = NoSmallPool();
  config.va_size = 32 * kPage;
  config.remap = false;
  VmmAllocator alloc(&dev, config);
  auto a = alloc.Malloc(2 * kPage);
  auto b = alloc.Malloc(2 * kPage);
  auto c = alloc.Malloc(2 * kPage);
  auto d = alloc.Malloc(2 * kPage);
  ASSERT_TRUE(a && b && c && d);
  ASSERT_TRUE(alloc.Free(*b));
  ASSERT_TRUE(alloc.Free(*d));
  EXPECT_FALSE(alloc.Malloc(4 * kPage).has_value());
  EXPECT_EQ(alloc.vmm_stats().pages_remapped, 0u);
}

// A partially-referenced page is never stolen: two live single-page neighbours pin their pages
// even when everything between them is free.
TEST(VmmAllocator, ReferencedPagesAreNeverStolen) {
  SimDevice dev(4 * kPage);
  VmmConfig config = NoSmallPool();
  config.va_size = 32 * kPage;
  VmmAllocator alloc(&dev, config);
  auto a = alloc.Malloc(kPage);
  auto b = alloc.Malloc(2 * kPage);
  auto c = alloc.Malloc(kPage);
  ASSERT_TRUE(a && b && c);
  ASSERT_TRUE(alloc.Free(*b));
  // Physical is full (4 pages); the 2 idle pages under b are the only stealable supply. A
  // 3-page request must fail — stealing a's or c's page would corrupt live data.
  EXPECT_FALSE(alloc.Malloc(3 * kPage).has_value());
  // And the 2-page request succeeds purely from the idle supply.
  const uint64_t created_before = dev.counters().mem_create;
  EXPECT_TRUE(alloc.Malloc(2 * kPage).has_value());
  EXPECT_EQ(dev.counters().mem_create, created_before);
}

TEST(VmmAllocator, EmptyCacheReleasesIdlePagesToDevice) {
  SimDevice dev(16 * kPage);
  VmmAllocator alloc(&dev, NoSmallPool());
  auto a = alloc.Malloc(4 * kPage);
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(alloc.Free(*a));
  // Lazy: freed pages stay mapped (that is what makes them remappable)...
  EXPECT_EQ(alloc.va_space().mapped_bytes(), 4 * kPage);
  // ...until EmptyCache, which unmaps them and releases the handles.
  alloc.EmptyCache();
  EXPECT_EQ(alloc.va_space().mapped_bytes(), 0u);
  EXPECT_EQ(dev.physical_used(), 0u);
}

TEST(VmmAllocator, DoubleFreeIsRejectedNotFatal) {
  SimDevice dev(16 * kPage);
  VmmAllocator alloc(&dev, NoSmallPool());
  auto a = alloc.Malloc(2 * kPage);
  ASSERT_TRUE(a.has_value());
  EXPECT_TRUE(alloc.Free(*a));
  EXPECT_FALSE(alloc.Free(*a));
  EXPECT_FALSE(alloc.Free(0xdead000));
}

TEST(VmmAllocator, HeapSegmentsCoverContiguousMappedRuns) {
  SimDevice dev(16 * kPage);
  VmmAllocator alloc(&dev, NoSmallPool());
  auto a = alloc.Malloc(2 * kPage);
  auto b = alloc.Malloc(2 * kPage);
  ASSERT_TRUE(a && b);
  std::vector<telemetry::HeapSegment> segments;
  alloc.AppendHeapSegments(&segments);
  ASSERT_EQ(segments.size(), 1u) << "adjacent mapped pages must report as one segment";
  EXPECT_EQ(segments[0].base, alloc.va_space().base());
  EXPECT_EQ(segments[0].size, 4 * kPage);
  ASSERT_TRUE(alloc.Free(*a) && alloc.Free(*b));
}

// --- granularity trade-off: huge pages cost Mr, small granules cost map calls ---

TEST(VmmAllocator, SmallGranularityTracksMrTighterHugePagesMapLess) {
  const Trace trace = BuildStormTrace(2000, 7);

  auto run = [&](uint64_t granularity) {
    SimDevice dev(64 * GiB);
    VmmConfig config;
    config.granularity = granularity;
    VmmAllocator alloc(&dev, config);
    ReplayResult r = ReplayTrace(trace, &alloc);
    EXPECT_FALSE(r.oom);
    return std::make_pair(r.reserved_peak, alloc.vmm_stats().map_calls);
  };

  const auto [mr_huge, maps_huge] = run(SimDevice::kGranularity);
  const auto [mr_small, maps_small] = run(SimDevice::kMinGranularity);
  EXPECT_LE(mr_small, mr_huge) << "64 KiB granules must never reserve more than 2 MiB pages";
  EXPECT_LT(maps_huge, maps_small) << "huge pages must cost fewer map calls";
}

// --- fleet determinism: the vmm kind through the sharded cluster ---

TEST(VmmAllocator, FleetDigestBitIdenticalAcrossWorkerCounts) {
  ClusterWorkloadConfig workload;
  workload.num_jobs = 6;
  workload.train_fraction = 0.5;
  workload.mean_interarrival = 800;
  workload.micro_batches = {1, 2};
  workload.num_microbatches = 2;
  workload.max_pp = 2;
  workload.min_iterations = 1;
  workload.max_iterations = 2;
  workload.serve_requests = 12;
  workload.kv_budget_bytes = 1 * GiB;
  const auto jobs = GenerateClusterWorkload(workload, 21);

  FleetConfig fleet;
  fleet.device_capacities = {16 * GiB, 16 * GiB, 16 * GiB};
  fleet.policy = SchedulerPolicy::kFirstFit;
  fleet.allocator = "vmm";
  fleet.workers = 0;
  const ClusterResult serial = RunCluster(fleet, jobs);
  EXPECT_EQ(serial.completed, jobs.size());
  for (int workers : {1, 2, 8}) {
    fleet.workers = workers;
    const ClusterResult parallel = RunCluster(fleet, jobs);
    EXPECT_EQ(parallel.Digest(), serial.Digest()) << "diverged at workers=" << workers;
  }
}

}  // namespace
}  // namespace stalloc
