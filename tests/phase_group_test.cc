#include "src/core/phase_group.h"

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/common/units.h"

namespace stalloc {
namespace {

MemoryEvent Ev(uint64_t id, uint64_t size, LogicalTime ts, LogicalTime te, PhaseId ps,
               PhaseId pe) {
  MemoryEvent e;
  e.id = id;
  e.size = size;
  e.ts = ts;
  e.te = te;
  e.ps = ps;
  e.pe = pe;
  return e;
}

bool ItemsConflict(const PlanDecision& a, const PlanDecision& b) {
  const bool time = a.event.ts < b.event.te && b.event.ts < a.event.te;
  const bool addr = a.addr < b.end_addr() && b.addr < a.end_addr();
  return time && addr;
}

void ExpectNoConflicts(const LocalPlan& plan) {
  for (size_t i = 0; i < plan.items.size(); ++i) {
    for (size_t j = i + 1; j < plan.items.size(); ++j) {
      EXPECT_FALSE(ItemsConflict(plan.items[i], plan.items[j]))
          << "items " << i << " and " << j << " conflict";
    }
  }
}

TEST(PackGroup, OverlappingEventsStackContiguously) {
  // Three fully-overlapping events: footprint must be the padded sum.
  std::vector<MemoryEvent> events = {Ev(0, 1024, 0, 10, 0, 1), Ev(1, 2048, 0, 10, 0, 1),
                                     Ev(2, 512, 0, 10, 0, 1)};
  LocalPlan plan = PackGroup(events, 0, 1);
  EXPECT_EQ(plan.footprint, 1024u + 2048u + 512u);
  ExpectNoConflicts(plan);
  EXPECT_DOUBLE_EQ(plan.Tmp(), 1.0);  // no bubbles: all live the whole span
}

TEST(PackGroup, DisjointEventsShareAddresses) {
  // Sequential (transient-style) events of equal size reuse the same slot.
  std::vector<MemoryEvent> events = {Ev(0, 1024, 0, 2, 0, 0), Ev(1, 1024, 2, 4, 0, 0),
                                     Ev(2, 1024, 4, 6, 0, 0)};
  LocalPlan plan = PackGroup(events, 0, 0);
  EXPECT_EQ(plan.footprint, 1024u);
  for (const auto& item : plan.items) {
    EXPECT_EQ(item.addr, 0u);
  }
  ExpectNoConflicts(plan);
}

TEST(PackGroup, PadsSizesToPlanAlign) {
  std::vector<MemoryEvent> events = {Ev(0, 100, 0, 5, 0, 1)};
  LocalPlan plan = PackGroup(events, 0, 1);
  EXPECT_EQ(plan.items[0].padded_size, kPlanAlign);
  EXPECT_EQ(plan.footprint, kPlanAlign);
}

TEST(PackGroup, PartialOverlapUsesGaps) {
  // e0 [0,4), e1 [4,8) can share; e2 [2,6) overlaps both and must go above.
  std::vector<MemoryEvent> events = {Ev(0, 512, 0, 4, 0, 1), Ev(1, 512, 4, 8, 0, 1),
                                     Ev(2, 512, 2, 6, 0, 1)};
  LocalPlan plan = PackGroup(events, 0, 1);
  EXPECT_EQ(plan.footprint, 1024u);
  ExpectNoConflicts(plan);
}

TEST(Tmp, ReflectsBubbles) {
  // One event of size 512 living half the span within a footprint of 512: TMP = 0.5.
  std::vector<MemoryEvent> events = {Ev(0, 512, 0, 5, 0, 1), Ev(1, 512, 5, 10, 0, 1)};
  LocalPlan plan = PackGroup(events, 0, 1);
  EXPECT_EQ(plan.footprint, 512u);  // disjoint -> shared slot
  EXPECT_DOUBLE_EQ(plan.Tmp(), 1.0);

  // Same two events but overlapping one tick: footprint 1024, bubbles appear.
  events = {Ev(0, 512, 0, 6, 0, 1), Ev(1, 512, 5, 10, 0, 1)};
  plan = PackGroup(events, 0, 1);
  EXPECT_EQ(plan.footprint, 1024u);
  EXPECT_NEAR(plan.Tmp(), (512.0 * 6 + 512.0 * 5) / (1024.0 * 10), 1e-9);
}

TEST(FusePlans, InsertsSmallIntoGapsWithoutGrowth) {
  // Big plan: one long-lived block [0,10) of 2048 and one late block [6,10) of 1024 stacked
  // above it. Small plan: a transient [1,3) of 1024 — fits exactly into the late block's slot
  // while that block is not yet live.
  LocalPlan big = PackGroup({Ev(0, 2048, 0, 10, 0, 3), Ev(1, 1024, 6, 10, 2, 3)}, 0, 3);
  ASSERT_EQ(big.footprint, 3072u);
  LocalPlan small = PackGroup({Ev(2, 1024, 1, 3, 0, 0)}, 0, 0);

  LocalPlan fused = FusePlans(big, small);
  EXPECT_EQ(fused.items.size(), 3u);
  EXPECT_EQ(fused.footprint, 3072u);  // no growth: reused the idle gap
  ExpectNoConflicts(fused);
}

TEST(FusePlans, StacksWhenNoGapExists) {
  // Everything overlaps: the small plan's item cannot reuse anything.
  LocalPlan big = PackGroup({Ev(0, 2048, 0, 10, 0, 1)}, 0, 1);
  LocalPlan small = PackGroup({Ev(1, 1024, 2, 8, 1, 1)}, 1, 1);
  LocalPlan fused = FusePlans(big, small);
  EXPECT_EQ(fused.footprint, 3072u);
  ExpectNoConflicts(fused);
}

TEST(FusePlans, PreservesItemCountAndIds) {
  Rng rng(7);
  std::vector<MemoryEvent> a_events;
  std::vector<MemoryEvent> b_events;
  for (uint64_t i = 0; i < 20; ++i) {
    const LogicalTime ts = rng.NextBelow(50);
    a_events.push_back(Ev(i, 512 * (1 + rng.NextBelow(4)), ts, ts + 1 + rng.NextBelow(30), 0, 1));
  }
  for (uint64_t i = 0; i < 15; ++i) {
    const LogicalTime ts = 50 + rng.NextBelow(50);
    b_events.push_back(
        Ev(100 + i, 512 * (1 + rng.NextBelow(4)), ts, ts + 1 + rng.NextBelow(20), 1, 2));
  }
  LocalPlan a = PackGroup(a_events, 0, 1);
  LocalPlan b = PackGroup(b_events, 1, 2);
  LocalPlan fused = FusePlans(a, b);
  EXPECT_EQ(fused.items.size(), 35u);
  EXPECT_EQ(fused.ps, 0);
  EXPECT_EQ(fused.pe, 2);
  ExpectNoConflicts(fused);
}

// Pins FusePlans' placements on seeded random pairs of packed plans whose lifespans partly
// overlap, so both the gap-insertion scan and the stacking fallback run against non-trivial
// blocked sets. Every fused (id, addr) and footprint folds into one FNV-1a-64 digest.
TEST(FusePlans, PinnedRandomPairsDigest) {
  auto mix = [](uint64_t h, uint64_t value) {
    for (int i = 0; i < 8; ++i) {
      h ^= (value >> (8 * i)) & 0xff;
      h *= 1099511628211ull;
    }
    return h;
  };
  uint64_t digest = 14695981039346656037ull;
  Rng rng(2024);
  for (int pair = 0; pair < 200; ++pair) {
    std::vector<MemoryEvent> a_events;
    std::vector<MemoryEvent> b_events;
    const uint64_t na = 1 + rng.NextBelow(40);
    const uint64_t nb = 1 + rng.NextBelow(40);
    for (uint64_t i = 0; i < na; ++i) {
      const LogicalTime ts = rng.NextBelow(60);
      a_events.push_back(
          Ev(i, 100 + rng.NextBelow(4096), ts, ts + 1 + rng.NextBelow(40), 0, 1));
    }
    for (uint64_t i = 0; i < nb; ++i) {
      const LogicalTime ts = 30 + rng.NextBelow(60);
      b_events.push_back(
          Ev(1000 + i, 100 + rng.NextBelow(4096), ts, ts + 1 + rng.NextBelow(40), 1, 2));
    }
    const LocalPlan fused = FusePlans(PackGroup(a_events, 0, 1), PackGroup(b_events, 1, 2));
    ASSERT_EQ(fused.items.size(), na + nb);
    ExpectNoConflicts(fused);
    for (const PlanDecision& d : fused.items) {
      digest = mix(digest, d.event.id);
      digest = mix(digest, d.addr);
    }
    digest = mix(digest, fused.footprint);
  }
  EXPECT_EQ(digest, 0x395506f69d5f32ecull);
}

TEST(BuildPhaseGroups, GroupsByPhasePair) {
  std::vector<MemoryEvent> events = {
      Ev(0, 512, 0, 10, 0, 1), Ev(1, 512, 1, 9, 0, 1),   // group (0,1)
      Ev(2, 512, 12, 14, 2, 2), Ev(3, 512, 14, 16, 2, 2)  // group (2,2)
  };
  auto plans = BuildPhaseGroups(events, /*enable_fusion=*/false);
  EXPECT_EQ(plans.size(), 2u);
}

TEST(BuildPhaseGroups, FusionAcceptsTransientIntoScoped) {
  // Scoped group (phase 0 -> phase 1): two blocks alive [0,20) and [10, 20).
  // Transient group (0,0): short-lived blocks early in phase 0 that fit exactly into the
  // address range of the late scoped block before it comes alive.
  std::vector<MemoryEvent> events;
  events.push_back(Ev(0, 4096, 0, 20, 0, 1));
  events.push_back(Ev(1, 4096, 10, 20, 0, 1));
  // Transients, each 1 tick, within [1, 8): they can all share the late block's future slot.
  for (uint64_t i = 0; i < 6; ++i) {
    events.push_back(Ev(2 + i, 4096, 1 + i, 2 + i, 0, 0));
  }
  auto unfused = BuildPhaseGroups(events, /*enable_fusion=*/false);
  EXPECT_EQ(unfused.size(), 2u);
  auto fused = BuildPhaseGroups(events, /*enable_fusion=*/true);
  ASSERT_EQ(fused.size(), 1u) << "fusion should merge the transient group into the scoped group";
  EXPECT_EQ(fused[0].items.size(), 8u);
  EXPECT_EQ(fused[0].footprint, 8192u) << "transients must reuse the late block's address range";
  ExpectNoConflicts(fused[0]);
}

TEST(BuildPhaseGroups, FusionRejectsWhenWasteful) {
  // Two groups that fully overlap in time: fusing cannot reuse anything and only concatenates
  // footprints — the TMP criterion must reject (Fig. 7 right).
  std::vector<MemoryEvent> events = {
      Ev(0, 4096, 0, 10, 0, 1),  // group (0,1)
      Ev(1, 4096, 0, 10, 1, 1),  // group (1,1): same lifespan, adjacent phases
  };
  auto plans = BuildPhaseGroups(events, /*enable_fusion=*/true);
  EXPECT_EQ(plans.size(), 2u);
}

// Property: packing any random event set never produces conflicting placements.
class PackGroupPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PackGroupPropertyTest, NeverConflicts) {
  Rng rng(GetParam());
  std::vector<MemoryEvent> events;
  const int n = 60;
  for (int i = 0; i < n; ++i) {
    const LogicalTime ts = rng.NextBelow(200);
    events.push_back(Ev(static_cast<uint64_t>(i), 512 * (1 + rng.NextBelow(8)), ts,
                        ts + 1 + rng.NextBelow(100), 0, 1));
  }
  LocalPlan plan = PackGroup(events, 0, 1);
  ExpectNoConflicts(plan);
  // Footprint is at least the peak concurrent padded bytes (lower bound).
  EXPECT_GE(plan.footprint, StaticPlan::PeakPaddedBytes(plan.items) == 0
                                ? 0
                                : StaticPlan::PeakPaddedBytes(plan.items));
  EXPECT_LE(plan.Tmp(), 1.0 + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PackGroupPropertyTest,
                         ::testing::Values(11, 22, 33, 44, 55, 66, 77, 88));

}  // namespace
}  // namespace stalloc
