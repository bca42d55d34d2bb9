#include "src/core/dynamic_space.h"

#include <algorithm>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/core/planner.h"
#include "src/trainsim/model_config.h"
#include "src/trainsim/workload.h"

namespace stalloc {
namespace {

// Hand-built scenario: one static block occupying [0, 1024) during [0, 10), another occupying
// [1024, 2048) during [20, 30). A dynamic group whose window is [12, 18) must see the whole pool
// as reusable; one whose window is [5, 25) must see nothing.
TEST(DynamicSpace, WindowedComplementOfStaticPlan) {
  Trace t;
  PhaseId p = t.AddPhase({PhaseKind::kForward, 0, 0, 0, 40});
  LayerId mid_a = t.AddLayer({"mid_a", 12, 15});
  LayerId mid_b = t.AddLayer({"mid_b", 15, 18});
  LayerId wide_a = t.AddLayer({"wide_a", 5, 8});
  LayerId wide_b = t.AddLayer({"wide_b", 22, 25});

  MemoryEvent s1;
  s1.size = 1024;
  s1.ts = 0;
  s1.te = 10;
  s1.ps = p;
  s1.pe = p;
  const uint64_t id1 = t.AddEvent(s1);
  MemoryEvent s2 = s1;
  s2.ts = 20;
  s2.te = 30;
  const uint64_t id2 = t.AddEvent(s2);

  MemoryEvent dyn_mid;
  dyn_mid.size = 256;
  dyn_mid.ts = 13;
  dyn_mid.te = 16;
  dyn_mid.ps = p;
  dyn_mid.pe = p;
  dyn_mid.dyn = true;
  dyn_mid.ls = mid_a;
  dyn_mid.le = mid_b;
  t.AddEvent(dyn_mid);

  MemoryEvent dyn_wide = dyn_mid;
  dyn_wide.ts = 6;
  dyn_wide.te = 24;
  dyn_wide.ls = wide_a;
  dyn_wide.le = wide_b;
  t.AddEvent(dyn_wide);

  StaticPlan plan;
  plan.decisions.push_back({t.Event(id1), 0, 1024});
  plan.decisions.push_back({t.Event(id2), 1024, 1024});
  plan.pool_size = 2048;

  t.Validate();
  DynamicReusableSpace space = LocateDynamicSpace(t, plan);
  ASSERT_EQ(space.group_count(), 2u);

  // Window [12, 18): neither static block is live -> the whole pool is reusable.
  EXPECT_EQ(space.regions.at({mid_a, mid_b}), (std::vector<Interval>{{0, 2048}}));

  // Window [5, 25): overlaps both static lifespans -> nothing reusable.
  EXPECT_TRUE(space.regions.at({wide_a, wide_b}).empty());
}

TEST(DynamicSpace, ExpectedLeTableFollowsArrivalOrder) {
  Trace t;
  PhaseId p = t.AddPhase({PhaseKind::kForward, 0, 0, 0, 40});
  LayerId l0 = t.AddLayer({"l0", 0, 10});
  LayerId l1 = t.AddLayer({"l1", 10, 20});
  for (int i = 0; i < 3; ++i) {
    MemoryEvent e;
    e.size = 512;
    e.ts = static_cast<LogicalTime>(1 + i);
    e.te = static_cast<LogicalTime>(12 + i);
    e.ps = p;
    e.pe = p;
    e.dyn = true;
    e.ls = l0;
    e.le = i == 1 ? l0 : l1;  // second request frees within its own layer
    t.AddEvent(e);
  }
  StaticPlan plan;
  plan.pool_size = 4096;
  t.Validate();
  DynamicReusableSpace space = LocateDynamicSpace(t, plan);
  ASSERT_EQ(space.expected_le.at(l0).size(), 3u);
  EXPECT_EQ(space.expected_le.at(l0)[0], l1);
  EXPECT_EQ(space.expected_le.at(l0)[1], l0);
  EXPECT_EQ(space.expected_le.at(l0)[2], l1);
}

// Requests arriving on the same tick reach the runtime in event-id order (Trace::Ops), so the
// matcher table must list them in that order too, however many share the tick.
TEST(DynamicSpace, ExpectedLeBreaksArrivalTiesByEventId) {
  Trace t;
  PhaseId p = t.AddPhase({PhaseKind::kForward, 0, 0, 0, 40});
  LayerId l0 = t.AddLayer({"l0", 0, 10});
  LayerId l1 = t.AddLayer({"l1", 10, 20});
  LayerId l2 = t.AddLayer({"l2", 20, 30});
  constexpr int kTied = 33;  // odd: an unstable sort can then not just swap same-`le` pairs
  for (int i = 0; i < kTied; ++i) {
    MemoryEvent e;
    e.size = 512;
    e.ts = 5;
    e.te = i % 2 == 0 ? 15 : 25;
    e.ps = p;
    e.pe = p;
    e.dyn = true;
    e.ls = l0;
    e.le = i % 2 == 0 ? l1 : l2;
    t.AddEvent(e);
  }
  StaticPlan plan;
  plan.pool_size = 4096;
  t.Validate();
  DynamicReusableSpace space = LocateDynamicSpace(t, plan);
  const std::vector<LayerId>& les = space.expected_le.at(l0);
  ASSERT_EQ(les.size(), static_cast<size_t>(kTied));
  for (int i = 0; i < kTied; ++i) {
    EXPECT_EQ(les[i], i % 2 == 0 ? l1 : l2) << "arrival " << i;
  }
}

// Each region must equal the complement, within [0, pool_size), of the union of every
// decision live in the group's window — including decisions nested inside another's range and
// decisions reaching past the pool.
TEST(DynamicSpace, RegionsMatchTheComplementOfTheWindowUnion) {
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    SCOPED_TRACE(testing::Message() << "seed " << seed);
    Rng rng(seed);
    Trace t;
    PhaseId p = t.AddPhase({PhaseKind::kForward, 0, 0, 0, 200});
    std::vector<LayerId> layers;
    for (LogicalTime start = 0; start < 200; start += 20) {
      layers.push_back(t.AddLayer({"l", start, start + 20}));
    }
    StaticPlan plan;
    plan.pool_size = kPlanAlign * (16 + rng.NextBelow(16));
    for (int i = 0; i < 60; ++i) {
      PlanDecision d;
      d.event.ts = rng.NextBelow(190);
      d.event.te = d.event.ts + 1 + rng.NextBelow(40);
      d.addr = kPlanAlign * rng.NextBelow(32);
      d.padded_size = kPlanAlign * (1 + rng.NextBelow(6));
      plan.decisions.push_back(d);
    }
    for (int i = 0; i < 12; ++i) {
      const size_t a = rng.NextBelow(layers.size());
      const size_t b = a + rng.NextBelow(layers.size() - a);
      MemoryEvent e;
      e.size = 512;
      e.ts = t.layer(layers[a]).start;
      e.te = t.layer(layers[b]).end;
      e.ps = p;
      e.pe = p;
      e.dyn = true;
      e.ls = layers[a];
      e.le = layers[b];
      t.AddEvent(e);
    }
    t.Validate();
    DynamicReusableSpace space = LocateDynamicSpace(t, plan);
    ASSERT_GT(space.group_count(), 0u);
    for (const auto& [key, region] : space.regions) {
      const LogicalTime win_start = t.layer(key.first).start;
      const LogicalTime win_end = std::max(t.layer(key.second).end, win_start + 1);
      // Reference: mark every kPlanAlign unit of the pool a window-live decision covers, then
      // read the free units back as maximal runs.
      std::vector<bool> busy(plan.pool_size / kPlanAlign, false);
      for (const auto& d : plan.decisions) {
        if (d.event.ts < win_end && d.event.te > win_start) {
          for (uint64_t u = d.addr / kPlanAlign; u < d.end_addr() / kPlanAlign && u < busy.size();
               ++u) {
            busy[u] = true;
          }
        }
      }
      std::vector<Interval> complement;
      for (uint64_t u = 0; u < busy.size(); ++u) {
        if (busy[u]) {
          continue;
        }
        if (!complement.empty() && complement.back().hi == u * kPlanAlign) {
          complement.back().hi += kPlanAlign;
        } else {
          complement.push_back({u * kPlanAlign, (u + 1) * kPlanAlign});
        }
      }
      EXPECT_EQ(region, complement) << "group (" << key.first << ", " << key.second << ")";
    }
  }
}

// Invariant on real MoE workloads: a group's reusable region never intersects any static
// decision whose lifespan overlaps the group's window.
TEST(DynamicSpace, ReusableRegionsNeverConflictWithStatics) {
  TrainConfig c;
  c.parallel.pp = 2;
  c.num_microbatches = 4;
  c.micro_batch_size = 2;
  c.opt.recompute = RecomputeMode::kFull;
  WorkloadBuilder wb(Qwen15_MoE_A27B(), c);
  Trace trace = wb.Build(5);
  SynthesisResult r = SynthesizePlan(trace);
  ASSERT_GT(r.dyn_space.group_count(), 0u);

  for (const auto& [key, region] : r.dyn_space.regions) {
    const LayerInfo& a = trace.layer(key.first);
    const LayerInfo& b = trace.layer(key.second);
    for (const auto& d : r.plan.decisions) {
      const bool time_overlap = d.event.ts < b.end && a.start < d.event.te;
      if (time_overlap) {
        EXPECT_FALSE(OverlapsAny(region, d.addr, d.end_addr()))
            << "group (" << key.first << "," << key.second << ") reuses addresses of live static "
            << "event " << d.event.id;
      }
    }
  }
}

TEST(DynamicSpace, RecomputeYieldsMoreReusableSpaceThanNoRecompute) {
  // §9.4: with recomputation, dynamic requests live within one layer and static activations are
  // short-lived, so idle windows in the static pool are plentiful. Without recomputation the
  // lifespans fully overlap and little can be reused.
  TrainConfig c;
  c.parallel.pp = 2;
  c.num_microbatches = 4;
  c.micro_batch_size = 2;
  WorkloadBuilder plain(Qwen15_MoE_A27B(), c);
  TrainConfig rc = c;
  rc.opt.recompute = RecomputeMode::kFull;
  WorkloadBuilder recompute(Qwen15_MoE_A27B(), rc);

  SynthesisResult r_plain = SynthesizePlan(plain.Build(5));
  SynthesisResult r_rc = SynthesizePlan(recompute.Build(5));
  // Normalize by pool size x group count to compare densities.
  const double density_plain =
      static_cast<double>(r_plain.dyn_space.TotalReusableBytes()) /
      (static_cast<double>(r_plain.plan.pool_size) *
       static_cast<double>(std::max<size_t>(1, r_plain.dyn_space.group_count())));
  const double density_rc =
      static_cast<double>(r_rc.dyn_space.TotalReusableBytes()) /
      (static_cast<double>(r_rc.plan.pool_size) *
       static_cast<double>(std::max<size_t>(1, r_rc.dyn_space.group_count())));
  EXPECT_GT(density_rc, density_plain);
}

TEST(DynamicSpace, MoreHomoLayerGroupsWithoutRecompute) {
  // Table 2 discussion: without recomputation, (ls, le) pairs span forward->backward layers and
  // there are more distinct groups than with recomputation (where ls == le).
  TrainConfig c;
  c.parallel.pp = 2;
  c.num_microbatches = 4;
  c.micro_batch_size = 2;
  WorkloadBuilder plain(Qwen15_MoE_A27B(), c);
  TrainConfig rc = c;
  rc.opt.recompute = RecomputeMode::kFull;
  WorkloadBuilder recompute(Qwen15_MoE_A27B(), rc);
  SynthesisResult r_plain = SynthesizePlan(plain.Build(5));
  SynthesisResult r_rc = SynthesizePlan(recompute.Build(5));
  EXPECT_GT(r_plain.dyn_space.group_count(), 0u);
  EXPECT_GT(r_rc.dyn_space.group_count(), 0u);
  EXPECT_GE(r_plain.dyn_space.group_count(), r_rc.dyn_space.group_count());
}

}  // namespace
}  // namespace stalloc
