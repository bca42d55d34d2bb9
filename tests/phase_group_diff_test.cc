// Differential test of HomoPhase packing and fusion against the exhaustive algorithm.
//
// PackGroup stops trying packing orders once a group sits on its peak-live floor, and
// BuildPhaseGroups skips FusePlans when a placement-free TMP bound shows the fusion must be
// rejected. Both shortcuts claim to change nothing. The reference below packs all three orders
// and calls FusePlans on every fusion candidate; the planner must match it exactly.

#include <algorithm>
#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/common/units.h"
#include "src/core/phase_group.h"

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

// ---- The exhaustive reference ------------------------------------------------------------

uint64_t RefFirstFitOffset(const std::vector<PlanDecision>& items, const MemoryEvent& event,
                           uint64_t padded) {
  std::vector<std::pair<uint64_t, uint64_t>> conflicting;
  for (const auto& it : items) {
    if (it.event.ts < event.te && event.ts < it.event.te) {
      conflicting.emplace_back(it.addr, it.end_addr());
    }
  }
  std::sort(conflicting.begin(), conflicting.end());
  uint64_t cursor = 0;
  for (const auto& [lo, hi] : conflicting) {
    if (hi <= cursor) {
      continue;
    }
    if (lo >= cursor + padded) {
      break;
    }
    cursor = hi;
  }
  return cursor;
}

LocalPlan RefPackInOrder(const std::vector<MemoryEvent>& events, PhaseId ps, PhaseId pe) {
  LocalPlan plan;
  plan.ps = ps;
  plan.pe = pe;
  plan.ts = events.front().ts;
  plan.te = events.front().te;
  for (const auto& e : events) {
    PlanDecision d;
    d.event = e;
    d.padded_size = AlignUp(std::max<uint64_t>(e.size, 1), kPlanAlign);
    d.addr = RefFirstFitOffset(plan.items, e, d.padded_size);
    plan.footprint = std::max(plan.footprint, d.end_addr());
    plan.ts = std::min(plan.ts, e.ts);
    plan.te = std::max(plan.te, e.te);
    plan.items.push_back(d);
  }
  return plan;
}

// Packs all three orders; `winner` reports which one (1, 2 or 3) was kept.
LocalPlan RefPackGroup(std::vector<MemoryEvent> events, PhaseId ps, PhaseId pe,
                       int* winner = nullptr) {
  std::sort(events.begin(), events.end(), [](const MemoryEvent& a, const MemoryEvent& b) {
    if (a.ts != b.ts) {
      return a.ts < b.ts;
    }
    return a.size > b.size;
  });
  LocalPlan best = RefPackInOrder(events, ps, pe);
  int best_order = 1;
  std::vector<MemoryEvent> by_end = events;
  std::sort(by_end.begin(), by_end.end(), [](const MemoryEvent& a, const MemoryEvent& b) {
    if (a.te != b.te) {
      return a.te > b.te;
    }
    return a.ts < b.ts;
  });
  if (LocalPlan p = RefPackInOrder(by_end, ps, pe); p.footprint < best.footprint) {
    best = std::move(p);
    best_order = 2;
  }
  std::vector<MemoryEvent> by_duration = std::move(by_end);
  std::sort(by_duration.begin(), by_duration.end(),
            [](const MemoryEvent& a, const MemoryEvent& b) {
              const LogicalTime da = a.te - a.ts;
              const LogicalTime db = b.te - b.ts;
              if (da != db) {
                return da > db;
              }
              return a.ts < b.ts;
            });
  if (LocalPlan p = RefPackInOrder(by_duration, ps, pe); p.footprint < best.footprint) {
    best = std::move(p);
    best_order = 3;
  }
  if (winner != nullptr) {
    *winner = best_order;
  }
  return best;
}

std::vector<LocalPlan> RefBuildPhaseGroups(const std::vector<MemoryEvent>& static_events,
                                           bool enable_fusion) {
  std::map<std::pair<PhaseId, PhaseId>, std::vector<MemoryEvent>> groups;
  for (const auto& e : static_events) {
    groups[{e.ps, e.pe}].push_back(e);
  }
  std::vector<LocalPlan> plans;
  for (auto& [key, events] : groups) {
    plans.push_back(RefPackGroup(std::move(events), key.first, key.second));
  }
  if (!enable_fusion) {
    return plans;
  }
  std::sort(plans.begin(), plans.end(),
            [](const LocalPlan& x, const LocalPlan& y) { return x.ts < y.ts; });
  std::vector<bool> dead(plans.size(), false);
  for (size_t i = 0; i < plans.size(); ++i) {
    if (dead[i]) {
      continue;
    }
    bool fused_any = true;
    while (fused_any) {
      fused_any = false;
      for (size_t j = 0; j < plans.size(); ++j) {
        if (j == i || dead[j] || plans[i].pe != plans[j].ps || plans[i].pe == kInvalidPhase) {
          continue;
        }
        LocalPlan fused = FusePlans(plans[i], plans[j]);
        const double wa_num = plans[i].TmpNumerator() + plans[j].TmpNumerator();
        const double wa_den = plans[i].TmpDenominator() + plans[j].TmpDenominator();
        const double weighted_avg = wa_den <= 0 ? 1.0 : wa_num / wa_den;
        if (fused.Tmp() > weighted_avg) {
          plans[i] = std::move(fused);
          dead[j] = true;
          fused_any = true;
          break;
        }
      }
    }
  }
  std::vector<LocalPlan> out;
  for (size_t i = 0; i < plans.size(); ++i) {
    if (!dead[i]) {
      out.push_back(std::move(plans[i]));
    }
  }
  return out;
}

// ---- Comparison ---------------------------------------------------------------------------

void ExpectSamePlan(const LocalPlan& got, const LocalPlan& want) {
  EXPECT_EQ(got.footprint, want.footprint);
  EXPECT_EQ(got.ts, want.ts);
  EXPECT_EQ(got.te, want.te);
  EXPECT_EQ(got.ps, want.ps);
  EXPECT_EQ(got.pe, want.pe);
  ASSERT_EQ(got.items.size(), want.items.size());
  for (size_t k = 0; k < got.items.size(); ++k) {
    EXPECT_EQ(got.items[k].event.id, want.items[k].event.id) << "item " << k;
    EXPECT_EQ(got.items[k].addr, want.items[k].addr) << "item " << k;
    EXPECT_EQ(got.items[k].padded_size, want.items[k].padded_size) << "item " << k;
  }
}

void ExpectSamePlans(const std::vector<LocalPlan>& got, const std::vector<LocalPlan>& want) {
  ASSERT_EQ(got.size(), want.size());  // same group count, hence the same fusion count
  for (size_t k = 0; k < got.size(); ++k) {
    SCOPED_TRACE(testing::Message() << "plan " << k);
    ExpectSamePlan(got[k], want[k]);
  }
}

// ---- Hand-built groups --------------------------------------------------------------------

// (size in kPlanAlign units, ts, te) triples in group (0, 1).
std::vector<MemoryEvent> Group(const std::vector<std::vector<uint64_t>>& rows) {
  std::vector<MemoryEvent> events;
  for (const auto& r : rows) {
    events.push_back(Ev(events.size(), r[0] * kPlanAlign, r[1], r[2], 0, 1));
  }
  return events;
}

TEST(PackGroupDiff, ByEndOrderWinsAndReachesTheFloor) {
  // Arrival order packs 4096 bytes; latest-free first reaches the 3072-byte peak, so the
  // by-duration order is pruned.
  const auto events = Group({{2, 1, 4}, {3, 7, 13}, {2, 0, 7}, {3, 4, 8}});
  int winner = 0;
  const LocalPlan want = RefPackGroup(events, 0, 1, &winner);
  ASSERT_EQ(winner, 2);
  PhaseGroupWork work;
  ExpectSamePlan(PackGroup(events, 0, 1, &work), want);
  EXPECT_EQ(want.footprint, 3072u);
  EXPECT_EQ(work.pack_orders_pruned, 1u);
}

TEST(PackGroupDiff, ByDurationOrderWins) {
  // 3584 bytes by arrival, 4096 latest-free first, and the 3072-byte floor longest-lived first.
  const auto events = Group({{3, 4, 8}, {2, 7, 10}, {3, 1, 7}, {1, 0, 3}});
  int winner = 0;
  const LocalPlan want = RefPackGroup(events, 0, 1, &winner);
  ASSERT_EQ(winner, 3);
  PhaseGroupWork work;
  ExpectSamePlan(PackGroup(events, 0, 1, &work), want);
  EXPECT_EQ(work.pack_orders_pruned, 0u);
}

TEST(PackGroupDiff, ByEndOrderWinsAboveTheFloor) {
  const auto events =
      Group({{1, 4, 11}, {3, 7, 10}, {1, 4, 7}, {3, 3, 9}, {2, 5, 13}, {1, 2, 10}});
  int winner = 0;
  const LocalPlan want = RefPackGroup(events, 0, 1, &winner);
  ASSERT_EQ(winner, 2);
  ExpectSamePlan(PackGroup(events, 0, 1), want);
}

TEST(PackGroupDiff, FloorPrunesBothLaterOrders) {
  const auto events = Group({{2, 0, 10}, {1, 0, 4}, {1, 4, 10}});
  PhaseGroupWork work;
  ExpectSamePlan(PackGroup(events, 0, 1, &work), RefPackGroup(events, 0, 1));
  EXPECT_EQ(work.pack_orders_pruned, 2u);
}

// Lifespans are half-open: an item ending at tick t frees its range for an item starting at t.
// The arrival-order sweep drops the first item exactly there, so the second lands on it.
TEST(PackGroupDiff, EndEqualToALaterStartFreesTheRange) {
  const auto events = Group({{4, 0, 5}, {4, 5, 9}, {2, 2, 5}, {2, 5, 7}});
  const LocalPlan want = RefPackGroup(events, 0, 1);
  const LocalPlan got = PackGroup(events, 0, 1);
  ExpectSamePlan(got, want);
  // Arrival order: [0, 5) at 0, [2, 5) above it, then both items starting at 5 reuse the bottom.
  ASSERT_EQ(got.items.size(), 4u);
  EXPECT_EQ(got.items[2].event.id, 1u);
  EXPECT_EQ(got.items[2].addr, 0u);
  EXPECT_EQ(got.items[3].addr, 4 * kPlanAlign);
  EXPECT_EQ(got.footprint, 6 * kPlanAlign);
}

// Items arriving on one tick are placed larger first, and none of them may displace another.
TEST(PackGroupDiff, EqualStartsWithDifferentSizes) {
  const auto events = Group({{1, 3, 9}, {3, 3, 5}, {2, 3, 7}, {2, 5, 9}, {1, 7, 9}});
  const LocalPlan want = RefPackGroup(events, 0, 1);
  const LocalPlan got = PackGroup(events, 0, 1);
  ExpectSamePlan(got, want);
  ASSERT_EQ(got.items.size(), 5u);
  EXPECT_EQ(got.items[0].padded_size, 3 * kPlanAlign);
  EXPECT_EQ(got.items[0].addr, 0u);
  EXPECT_EQ(got.items[1].addr, 3 * kPlanAlign);
  EXPECT_EQ(got.items[2].addr, 5 * kPlanAlign);
}

// Small integer ticks make touching lifespans and shared starts and ends common. The sweep must
// match the reference on every group, and each of the three orders must win somewhere.
TEST(PackGroupDiff, DenseTiesMatchTheReference) {
  int wins[4] = {0, 0, 0, 0};
  for (uint64_t seed = 1; seed <= 400; ++seed) {
    SCOPED_TRACE(testing::Message() << "seed " << seed);
    Rng rng(seed);
    std::vector<std::vector<uint64_t>> rows;
    const int n = 2 + static_cast<int>(rng.NextBelow(9));
    for (int i = 0; i < n; ++i) {
      const uint64_t ts = rng.NextBelow(8);
      rows.push_back({1 + rng.NextBelow(4), ts, ts + 1 + rng.NextBelow(6)});
    }
    const auto events = Group(rows);
    int winner = 0;
    const LocalPlan want = RefPackGroup(events, 0, 1, &winner);
    ++wins[winner];
    ExpectSamePlan(PackGroup(events, 0, 1), want);
  }
  EXPECT_GT(wins[1], 0);
  EXPECT_GT(wins[2], 0);
  EXPECT_GT(wins[3], 0);
}

// Two single-event groups in adjacent phases whose fused TMP sits within 1e-12 of the
// weighted average: just below (rejected) and just above (accepted). Neither may be screened.
constexpr uint64_t kUnits = 2'000'000;  // a ~1 GB block, in kPlanAlign units

TEST(BuildPhaseGroupsDiff, FusionJustBelowWeightedAverageIsRejected) {
  // a: kUnits live [0, T); b: kUnits - 1 live [T, T + 1), reusing a's slot. The fused
  // denominator exceeds the summed ones by exactly one kPlanAlign·tick.
  const LogicalTime t = 1'000'000;
  const std::vector<MemoryEvent> events = {Ev(0, kUnits * kPlanAlign, 0, t, 0, 1),
                                           Ev(1, (kUnits - 1) * kPlanAlign, t, t + 1, 1, 2)};
  const auto unfused = RefBuildPhaseGroups(events, false);
  ASSERT_EQ(unfused.size(), 2u);
  const LocalPlan fused = FusePlans(unfused[0], unfused[1]);
  const double wa = (unfused[0].TmpNumerator() + unfused[1].TmpNumerator()) /
                    (unfused[0].TmpDenominator() + unfused[1].TmpDenominator());
  EXPECT_LT(fused.Tmp(), wa);
  EXPECT_LT(wa - fused.Tmp(), 1e-12);

  PhaseGroupWork work;
  const auto got = BuildPhaseGroups(events, true, &work);
  ExpectSamePlans(got, RefBuildPhaseGroups(events, true));
  EXPECT_EQ(got.size(), 2u);
  EXPECT_EQ(work.fusions_screened, 0u);
}

TEST(BuildPhaseGroupsDiff, FusionJustAboveWeightedAverageIsAccepted) {
  // a: A units live [0, 2). b: B = 2A - 1 units live [2, L) plus one unit live [1, 2), so b
  // starts at 1 and a must sit above that unit inside b's footprint. The fused denominator is
  // one kPlanAlign·tick below the summed ones.
  const uint64_t a_units = kUnits / 2;
  const uint64_t b_units = 2 * a_units - 1;
  const LogicalTime l = 1'000'000;
  const std::vector<MemoryEvent> events = {Ev(0, a_units * kPlanAlign, 0, 2, 0, 1),
                                           Ev(1, b_units * kPlanAlign, 2, l, 1, 2),
                                           Ev(2, kPlanAlign, 1, 2, 1, 2)};
  const auto unfused = RefBuildPhaseGroups(events, false);
  ASSERT_EQ(unfused.size(), 2u);
  const LocalPlan fused = FusePlans(unfused[0], unfused[1]);
  const double wa = (unfused[0].TmpNumerator() + unfused[1].TmpNumerator()) /
                    (unfused[0].TmpDenominator() + unfused[1].TmpDenominator());
  EXPECT_GT(fused.Tmp(), wa);
  EXPECT_LT(fused.Tmp() - wa, 1e-12);

  PhaseGroupWork work;
  const auto got = BuildPhaseGroups(events, true, &work);
  ExpectSamePlans(got, RefBuildPhaseGroups(events, true));
  EXPECT_EQ(got.size(), 1u);
  EXPECT_EQ(work.fusions_screened, 0u);
}

// ---- Seeded random traces -----------------------------------------------------------------

// Phase k spans [10k, 10k + 10). Each event starts in its start phase and ends in its end phase,
// which is the same phase or one of the next two; sizes mix small transients and large blocks.
std::vector<MemoryEvent> RandomTrace(uint64_t seed) {
  Rng rng(seed);
  const PhaseId phases = static_cast<PhaseId>(3 + rng.NextBelow(6));
  const int n = 20 + static_cast<int>(rng.NextBelow(120));
  std::vector<MemoryEvent> events;
  for (int i = 0; i < n; ++i) {
    const PhaseId ps = static_cast<PhaseId>(rng.NextBelow(static_cast<uint64_t>(phases)));
    const PhaseId pe = std::min<PhaseId>(phases - 1, ps + static_cast<PhaseId>(rng.NextBelow(3)));
    const LogicalTime ts = 10 * static_cast<LogicalTime>(ps) + rng.NextBelow(10);
    const LogicalTime lo = std::max<LogicalTime>(ts + 1, 10 * static_cast<LogicalTime>(pe));
    const LogicalTime te = lo + rng.NextBelow(10 * static_cast<LogicalTime>(pe) + 11 - lo);
    const uint64_t size = rng.NextBelow(4) == 0 ? kPlanAlign * (8 + rng.NextBelow(32))
                                                : 1 + rng.NextBelow(4 * kPlanAlign);
    events.push_back(Ev(static_cast<uint64_t>(i), size, ts, te, ps, pe));
  }
  return events;
}

TEST(PhaseGroupDiff, RandomTracesMatchTheExhaustiveAlgorithm) {
  PhaseGroupWork work;
  int later_order_wins = 0;
  int accepted_fusions = 0;
  for (uint64_t seed = 1; seed <= 300; ++seed) {
    SCOPED_TRACE(testing::Message() << "seed " << seed);
    const std::vector<MemoryEvent> events = RandomTrace(seed);

    std::map<std::pair<PhaseId, PhaseId>, std::vector<MemoryEvent>> groups;
    for (const auto& e : events) {
      groups[{e.ps, e.pe}].push_back(e);
    }
    for (const auto& [key, group] : groups) {
      int winner = 0;
      const LocalPlan want = RefPackGroup(group, key.first, key.second, &winner);
      later_order_wins += winner > 1 ? 1 : 0;
      ExpectSamePlan(PackGroup(group, key.first, key.second, &work), want);
    }
    ExpectSamePlans(BuildPhaseGroups(events, false), RefBuildPhaseGroups(events, false));
    const auto want = RefBuildPhaseGroups(events, true);
    ExpectSamePlans(BuildPhaseGroups(events, true, &work), want);
    accepted_fusions += static_cast<int>(groups.size() - want.size());
  }
  // The sweep exercises every path: later orders winning, both pruning rules, and accepted
  // fusions.
  EXPECT_GT(later_order_wins, 0);
  EXPECT_GT(accepted_fusions, 0);
  EXPECT_GT(work.pack_orders_pruned, 0u);
  EXPECT_GT(work.fusions_screened, 0u);
}

}  // namespace
}  // namespace stalloc
