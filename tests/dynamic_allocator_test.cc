// Focused tests of the Dynamic Allocator's interval selection (§6.2): A_c = A_a ∩ A_i with
// best-fit placement, arrival-order group matching, and exhaustion behaviour.

#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "src/common/units.h"
#include "src/core/stalloc_allocator.h"

namespace stalloc {
namespace {

// A plan with one long-lived static block at [0, 1 MiB) and pool size 8 MiB; the reusable region
// for group (0, 1) covers [1 MiB, 5 MiB).
struct Fixture {
  Fixture() : dev(1 * GiB) {
    MemoryEvent s;
    s.id = 0;
    s.size = 1 * MiB;
    s.ts = 0;
    s.te = 1000;
    plan.decisions.push_back({s, 0, 1 * MiB});
    plan.pool_size = 8 * MiB;
    plan.lower_bound = 1 * MiB;

    space.regions.emplace(std::make_pair(0, 1), std::vector<Interval>{{1 * MiB, 5 * MiB}});
    space.expected_le[0] = {1, 1, 1, 1, 1, 1, 1, 1};
  }

  RequestContext Dyn() {
    RequestContext ctx;
    ctx.dyn = true;
    ctx.layer = 0;
    return ctx;
  }

  SimDevice dev;
  StaticPlan plan;
  DynamicReusableSpace space;
};

TEST(DynamicAllocator, AllocatesInsideReusableRegion) {
  Fixture f;
  STAllocAllocator alloc(&f.dev, f.plan, f.space);
  ASSERT_TRUE(alloc.Init());
  auto a = alloc.Malloc(512 * KiB, f.Dyn());
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(alloc.breakdown().dynamic_reuse_hits, 1u);
  // The address must be inside [pool_base + 1 MiB, pool_base + 5 MiB).
  EXPECT_EQ(alloc.ReservedBytes(), 8 * MiB);  // no fallback reservation
  alloc.Free(*a);
}

TEST(DynamicAllocator, SequentialRequestsDoNotOverlap) {
  Fixture f;
  STAllocAllocator alloc(&f.dev, f.plan, f.space);
  ASSERT_TRUE(alloc.Init());
  // Four concurrent 1 MiB requests exactly fill the 4 MiB reusable window; the stomping
  // detector in AllocatorBase verifies disjointness.
  std::vector<uint64_t> live;
  for (int i = 0; i < 4; ++i) {
    auto a = alloc.Malloc(1 * MiB, f.Dyn());
    ASSERT_TRUE(a.has_value());
    live.push_back(*a);
  }
  EXPECT_EQ(alloc.breakdown().dynamic_reuse_hits, 4u);
  // A fifth concurrent request exceeds the window: caching fallback.
  auto extra = alloc.Malloc(1 * MiB, f.Dyn());
  ASSERT_TRUE(extra.has_value());
  EXPECT_EQ(alloc.breakdown().dynamic_fallbacks, 1u);
  for (auto a : live) {
    alloc.Free(a);
  }
  alloc.Free(*extra);
}

TEST(DynamicAllocator, FreedRegionIsReusable) {
  Fixture f;
  STAllocAllocator alloc(&f.dev, f.plan, f.space);
  ASSERT_TRUE(alloc.Init());
  auto a = alloc.Malloc(4 * MiB, f.Dyn());
  ASSERT_TRUE(a.has_value());
  alloc.Free(*a);
  auto b = alloc.Malloc(4 * MiB, f.Dyn());
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(*a, *b);
  EXPECT_EQ(alloc.breakdown().dynamic_reuse_hits, 2u);
  alloc.Free(*b);
}

TEST(DynamicAllocator, OversizedRequestFallsBack) {
  Fixture f;
  STAllocAllocator alloc(&f.dev, f.plan, f.space);
  ASSERT_TRUE(alloc.Init());
  auto a = alloc.Malloc(6 * MiB, f.Dyn());  // larger than the 4 MiB window
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(alloc.breakdown().dynamic_reuse_hits, 0u);
  EXPECT_EQ(alloc.breakdown().dynamic_fallbacks, 1u);
  alloc.Free(*a);
}

TEST(DynamicAllocator, ExhaustedArrivalTableFallsBack) {
  Fixture f;
  f.space.expected_le[0] = {1};  // profile saw a single request for this layer
  STAllocAllocator alloc(&f.dev, f.plan, f.space);
  ASSERT_TRUE(alloc.Init());
  auto a = alloc.Malloc(512 * KiB, f.Dyn());
  auto b = alloc.Malloc(512 * KiB, f.Dyn());  // beyond the profiled count
  ASSERT_TRUE(a.has_value() && b.has_value());
  EXPECT_EQ(alloc.breakdown().dynamic_reuse_hits, 1u);
  EXPECT_EQ(alloc.breakdown().dynamic_fallbacks, 1u);
  alloc.Free(*a);
  alloc.Free(*b);
  // EndIteration resets the arrival counters: the next iteration hits the region again.
  alloc.EndIteration();
  auto c = alloc.Malloc(512 * KiB, f.Dyn());
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ(alloc.breakdown().dynamic_reuse_hits, 2u);
  alloc.Free(*c);
}

TEST(DynamicAllocator, BestFitPrefersTighterInterval) {
  Fixture f;
  // Two disjoint reusable windows: 3 MiB and 1 MiB. A 1 MiB request must take the tighter one.
  f.space.regions[{0, 1}] = {{1 * MiB, 4 * MiB}, {5 * MiB, 6 * MiB}};
  STAllocAllocator alloc(&f.dev, f.plan, f.space);
  ASSERT_TRUE(alloc.Init());
  auto a = alloc.Malloc(1 * MiB, f.Dyn());
  ASSERT_TRUE(a.has_value());
  // The tighter window starts 5 MiB into the pool.
  const uint64_t offset_in_pool = *a % (8 * MiB);
  EXPECT_EQ(offset_in_pool, 5 * MiB);
  alloc.Free(*a);
}

}  // namespace
}  // namespace stalloc
