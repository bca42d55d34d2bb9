// The VMM allocator family (src/vmm): VA reservation invariants, map-table exhaustion,
// remap-based compaction decisions, the granularity trade-off, and fleet determinism with the
// vmm kind plugged into the sharded cluster.

#include <algorithm>
#include <cstdint>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/cluster/cluster_workload.h"
#include "src/cluster/fleet.h"
#include "src/cluster/scheduler.h"
#include "src/common/rng.h"
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

// The page policy of a VmmAllocator without a small pool, replayed on a std::set of mapped
// pages: a malloc references its pages and maps each unmapped one from the handle cache, else a
// fresh handle while the device has room, else by stealing the highest mapped page no live
// block references; a free only drops references; EmptyCache unmaps every unreferenced page and
// returns every cached handle to the device.
class PagePolicyReference {
 public:
  PagePolicyReference(uint64_t num_pages, uint64_t device_pages)
      : refs_(num_pages, 0), device_pages_(device_pages) {}

  void Malloc(uint64_t first, uint64_t last) {
    for (uint64_t page = first; page <= last; ++page) {
      ++refs_[page];
    }
    for (uint64_t page = first; page <= last; ++page) {
      if (mapped_.count(page) != 0) {
        continue;
      }
      if (cached_ > 0) {
        --cached_;
      } else if (mapped_.size() + cached_ == device_pages_) {
        auto idle = mapped_.rbegin();
        while (refs_[*idle] != 0) {
          ++idle;
        }
        mapped_.erase(*idle);
        ++steals_;
      }
      mapped_.insert(page);
    }
  }
  void Free(uint64_t first, uint64_t last) {
    for (uint64_t page = first; page <= last; ++page) {
      --refs_[page];
    }
  }
  void EmptyCache() {
    for (auto it = mapped_.begin(); it != mapped_.end();) {
      it = refs_[*it] == 0 ? mapped_.erase(it) : std::next(it);
    }
    cached_ = 0;
  }
  // Pages some live block references.
  uint64_t referenced() const {
    return static_cast<uint64_t>(
        std::count_if(refs_.begin(), refs_.end(), [](uint32_t r) { return r != 0; }));
  }
  const std::set<uint64_t>& mapped() const { return mapped_; }
  uint64_t steals() const { return steals_; }

 private:
  std::vector<uint32_t> refs_;
  std::set<uint64_t> mapped_;
  uint64_t cached_ = 0;
  uint64_t device_pages_;
  uint64_t steals_ = 0;
};

// Random malloc/free/EmptyCache through VmmAllocator on a device of 64 pages, at the default
// 2 MiB and the minimum 64 KiB granularity. Live blocks never reference more pages than the
// device holds, so every malloc the VA reservation places succeeds, lazily mapped pages pile
// up past capacity and the remap path runs. After every op, IsMapped on every page,
// mapped_bytes() and the "vmm" heap segments (maximal runs of mapped pages) must match the
// reference page set.
TEST(VmmAllocator, PageTableMatchesReferencePageSet) {
  for (const uint64_t granularity : {SimDevice::kGranularity, SimDevice::kMinGranularity}) {
    SCOPED_TRACE(granularity);
    constexpr uint64_t kDevicePages = 64;
    SimDevice dev(kDevicePages * granularity);
    VmmConfig config = NoSmallPool();
    config.granularity = granularity;
    VmmAllocator alloc(&dev, config);
    const VaSpace& va = alloc.va_space();
    PagePolicyReference ref(va.num_pages(), kDevicePages);
    Rng rng(granularity);
    struct Live {
      uint64_t addr, first, last;
    };
    std::vector<Live> live;
    auto pages_of = [&](uint64_t addr, uint64_t size) {
      const uint64_t rounded = AlignUp(size, SimDevice::kMallocAlign);
      return std::pair<uint64_t, uint64_t>{va.PageOf(addr - va.base()),
                                           va.PageOf(addr - va.base() + rounded - 1)};
    };
    auto free_random = [&] {
      const size_t pick = rng.NextBelow(live.size());
      ASSERT_TRUE(alloc.Free(live[pick].addr));
      ref.Free(live[pick].first, live[pick].last);
      live[pick] = live.back();
      live.pop_back();
    };
    uint64_t empty_caches = 0;
    for (int op = 0; op < 4000; ++op) {
      const uint64_t dice = rng.NextBelow(100);
      if (dice < 55) {
        const uint64_t size = rng.NextInRange(1, 6 * granularity);
        // A block spans at most size / granularity + 2 pages; free until that surely fits.
        while (!live.empty() && ref.referenced() + size / granularity + 2 > kDevicePages) {
          free_random();
        }
        const std::optional<uint64_t> addr = alloc.Malloc(size);
        if (addr.has_value()) {  // nullopt only when no VA hole fits: nothing is mapped
          const auto [first, last] = pages_of(*addr, size);
          ref.Malloc(first, last);
          live.push_back(Live{*addr, first, last});
        }
      } else if (dice < 97 && !live.empty()) {
        free_random();
      } else {
        alloc.EmptyCache();
        ref.EmptyCache();
        ++empty_caches;
      }
      ASSERT_FALSE(HasFatalFailure());
      for (uint64_t page = 0; page < va.num_pages(); ++page) {
        ASSERT_EQ(va.IsMapped(page), ref.mapped().count(page) != 0)
            << "op " << op << " page " << page;
      }
      ASSERT_EQ(va.mapped_bytes(), ref.mapped().size() * granularity) << "op " << op;
      std::vector<telemetry::HeapSegment> segments;
      alloc.AppendHeapSegments(&segments);
      std::vector<std::pair<uint64_t, uint64_t>> runs;  // (base, size) of each mapped run
      for (const uint64_t page : ref.mapped()) {
        const uint64_t base = va.base() + page * granularity;
        if (!runs.empty() && runs.back().first + runs.back().second == base) {
          runs.back().second += granularity;
        } else {
          runs.emplace_back(base, granularity);
        }
      }
      ASSERT_EQ(segments.size(), runs.size()) << "op " << op;
      for (size_t k = 0; k < runs.size(); ++k) {
        ASSERT_EQ(segments[k].pool, "vmm");
        ASSERT_EQ(std::make_pair(segments[k].base, segments[k].size), runs[k]) << "op " << op;
      }
    }
    // Both pressure paths ran: idle pages were stolen and remapped, and released wholesale.
    EXPECT_GT(ref.steals(), 0u);
    EXPECT_EQ(alloc.vmm_stats().pages_remapped, ref.steals());
    EXPECT_GT(empty_caches, 0u);
    while (!live.empty()) {
      free_random();
    }
  }
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
