#include "src/core/stalloc_allocator.h"

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "src/common/units.h"
#include "src/core/planner.h"
#include "src/core/profiler.h"
#include "src/driver/replay.h"
#include "src/replay/replay_engine.h"
#include "src/trainsim/model_config.h"
#include "src/trainsim/train_config.h"
#include "src/trainsim/workload.h"
#include "tests/support/scoped_verify.h"

namespace stalloc {
namespace {

// Generous capacity: end-to-end tests exercise correctness, not OOM behaviour, and a 7B-class
// model without ZeRO needs >60 GiB of persistent state per rank.
constexpr uint64_t kCapacity = 8 * GiB;
constexpr uint64_t kLargeCapacity = 256 * GiB;

// Builds a tiny hand-made plan: two sequential 1 MiB requests sharing one slot, one 2 MiB
// request above them.
StaticPlan TinyPlan() {
  StaticPlan plan;
  MemoryEvent a;
  a.id = 0;
  a.size = 1 * MiB;
  a.ts = 0;
  a.te = 10;
  MemoryEvent b = a;
  b.id = 1;
  b.ts = 10;
  b.te = 20;
  MemoryEvent c;
  c.id = 2;
  c.size = 2 * MiB;
  c.ts = 0;
  c.te = 20;
  plan.decisions.push_back({a, 0, 1 * MiB});
  plan.decisions.push_back({c, 1 * MiB, 2 * MiB});
  plan.decisions.push_back({b, 0, 1 * MiB});
  std::sort(plan.decisions.begin(), plan.decisions.end(),
            [](const PlanDecision& x, const PlanDecision& y) { return x.event.ts < y.event.ts; });
  plan.pool_size = 3 * MiB;
  plan.lower_bound = 3 * MiB;
  return plan;
}

TEST(STAllocAllocator, ServesPlannedAddressesInOrder) {
  SimDevice dev(kCapacity);
  STAllocAllocator alloc(&dev, TinyPlan(), DynamicReusableSpace{});
  ASSERT_TRUE(alloc.Init());

  auto a = alloc.Malloc(1 * MiB);
  auto c = alloc.Malloc(2 * MiB);
  ASSERT_TRUE(a.has_value() && c.has_value());
  EXPECT_EQ(*c, *a + 1 * MiB);  // planned layout
  alloc.Free(*a);
  auto b = alloc.Malloc(1 * MiB);
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(*b, *a);  // b reuses a's slot per the plan
  EXPECT_EQ(alloc.breakdown().static_hits, 3u);
  EXPECT_EQ(alloc.breakdown().static_mismatches, 0u);
  EXPECT_EQ(alloc.ReservedBytes(), 3 * MiB);  // exactly the pool, no fallback
  alloc.Free(*b);
  alloc.Free(*c);
}

TEST(STAllocAllocator, MatcherToleratesReordering) {
  SimDevice dev(kCapacity);
  STAllocAllocator alloc(&dev, TinyPlan(), DynamicReusableSpace{});
  ASSERT_TRUE(alloc.Init());
  // The 2 MiB request arrives before the first 1 MiB one: window scan still matches both.
  auto c = alloc.Malloc(2 * MiB);
  auto a = alloc.Malloc(1 * MiB);
  ASSERT_TRUE(a.has_value() && c.has_value());
  EXPECT_EQ(alloc.breakdown().static_hits, 2u);
  alloc.Free(*a);
  alloc.Free(*c);
}

TEST(STAllocAllocator, MismatchFallsBackToCaching) {
  SimDevice dev(kCapacity);
  STAllocAllocator alloc(&dev, TinyPlan(), DynamicReusableSpace{});
  ASSERT_TRUE(alloc.Init());
  // 5 MiB was never planned: must be served by the fallback, not crash.
  auto x = alloc.Malloc(5 * MiB);
  ASSERT_TRUE(x.has_value());
  EXPECT_EQ(alloc.breakdown().static_mismatches, 1u);
  EXPECT_GT(alloc.breakdown().fallback_bytes, 0u);
  EXPECT_GT(alloc.ReservedBytes(), 3 * MiB);  // pool + fallback segment
  EXPECT_TRUE(alloc.Free(*x));
}

TEST(STAllocAllocator, InitFailsWhenPoolExceedsCapacity) {
  SimDevice dev(2 * MiB);
  STAllocAllocator alloc(&dev, TinyPlan(), DynamicReusableSpace{});
  EXPECT_FALSE(alloc.Init());
}

TEST(STAllocAllocator, EmptyPlanServesEverythingViaFallback) {
  SimDevice dev(kCapacity);
  STAllocAllocator alloc(&dev, StaticPlan{}, DynamicReusableSpace{});
  ASSERT_TRUE(alloc.Init());
  auto x = alloc.Malloc(1 * MiB);
  ASSERT_TRUE(x.has_value());
  EXPECT_TRUE(alloc.Free(*x));
}

TEST(STAllocAllocator, EndIterationResetsMatcher) {
  SimDevice dev(kCapacity);
  STAllocAllocator alloc(&dev, TinyPlan(), DynamicReusableSpace{});
  ASSERT_TRUE(alloc.Init());
  auto a = alloc.Malloc(1 * MiB);
  auto c = alloc.Malloc(2 * MiB);
  alloc.Free(*a);
  auto b = alloc.Malloc(1 * MiB);
  alloc.Free(*b);
  alloc.Free(*c);
  alloc.EndIteration();
  // Next iteration: same sequence hits the plan again.
  auto a2 = alloc.Malloc(1 * MiB);
  ASSERT_TRUE(a2.has_value());
  EXPECT_EQ(*a2, *a);
  EXPECT_EQ(alloc.breakdown().static_hits, 4u);
  alloc.Free(*a2);
}

// Dynamic-path test with a hand-made reusable region.
TEST(STAllocAllocator, DynamicReuseServesFromPool) {
  StaticPlan plan = TinyPlan();
  DynamicReusableSpace space;
  LayerId ls = 0;
  LayerId le = 1;
  // The whole pool is reusable for this group.
  space.regions.emplace(std::make_pair(ls, le), std::vector<Interval>{{0, 3 * MiB}});
  space.expected_le[ls] = {le};

  SimDevice dev(kCapacity);
  STAllocAllocator alloc(&dev, plan, space);
  ASSERT_TRUE(alloc.Init());

  RequestContext ctx;
  ctx.dyn = true;
  ctx.layer = ls;
  auto x = alloc.Malloc(512 * KiB, ctx);
  ASSERT_TRUE(x.has_value());
  EXPECT_EQ(alloc.breakdown().dynamic_reuse_hits, 1u);
  EXPECT_EQ(alloc.breakdown().dynamic_fallbacks, 0u);
  EXPECT_EQ(alloc.ReservedBytes(), 3 * MiB);  // no fallback reservation
  EXPECT_TRUE(alloc.Free(*x));
}

TEST(STAllocAllocator, DynamicWithoutRegionFallsBack) {
  SimDevice dev(kCapacity);
  STAllocAllocator alloc(&dev, TinyPlan(), DynamicReusableSpace{});
  ASSERT_TRUE(alloc.Init());
  RequestContext ctx;
  ctx.dyn = true;
  ctx.layer = 7;  // unknown layer
  auto x = alloc.Malloc(512 * KiB, ctx);
  ASSERT_TRUE(x.has_value());
  EXPECT_EQ(alloc.breakdown().dynamic_fallbacks, 1u);
  EXPECT_TRUE(alloc.Free(*x));
}

TEST(STAllocAllocator, NoReuseAblationAlwaysFallsBack) {
  StaticPlan plan = TinyPlan();
  DynamicReusableSpace space;
  space.regions.emplace(std::make_pair(0, 1), std::vector<Interval>{{0, 3 * MiB}});
  space.expected_le[0] = {1};

  STAllocConfig config;
  config.enable_dynamic_reuse = false;
  SimDevice dev(kCapacity);
  STAllocAllocator alloc(&dev, plan, space, config);
  ASSERT_TRUE(alloc.Init());
  RequestContext ctx;
  ctx.dyn = true;
  ctx.layer = 0;
  auto x = alloc.Malloc(512 * KiB, ctx);
  ASSERT_TRUE(x.has_value());
  EXPECT_EQ(alloc.breakdown().dynamic_reuse_hits, 0u);
  EXPECT_EQ(alloc.breakdown().dynamic_fallbacks, 1u);
  EXPECT_TRUE(alloc.Free(*x));
}

// End-to-end: profile -> plan -> replay on dense and MoE workloads; static hit rate must be
// near-perfect and memory efficiency above the caching baseline.
class STAllocEndToEndTest : public ::testing::TestWithParam<const char*> {};

TEST_P(STAllocEndToEndTest, ReplayHitsPlan) {
  ModelConfig model = ModelByName(GetParam());
  TrainConfig c;
  c.parallel.pp = 2;
  c.num_microbatches = 4;
  c.micro_batch_size = 2;
  c.opt.recompute = RecomputeMode::kFull;
  WorkloadBuilder wb(model, c);

  ProfileResult profile = ProfileWorkload(wb, kLargeCapacity, /*iteration_seed=*/1);
  ASSERT_TRUE(profile.feasible);
  SynthesisResult synthesis = SynthesizePlan(profile.trace);

  SimDevice dev(kLargeCapacity);
  STAllocAllocator alloc(&dev, synthesis.plan, synthesis.dyn_space);
  ASSERT_TRUE(alloc.Init());
  // Replay a *different* iteration (seed 2): static structure identical, dynamic sizes differ.
  Trace run = wb.Build(2);
  ReplayResult replay = ReplayTrace(run, &alloc);
  ASSERT_FALSE(replay.oom);

  const auto& bd = alloc.breakdown();
  EXPECT_EQ(bd.static_mismatches, 0u) << "static requests must all match the plan";
  EXPECT_GT(bd.static_hits, 0u);
  EXPECT_GT(replay.memory_efficiency, 0.90);
  if (model.moe.enabled()) {
    EXPECT_GT(bd.dynamic_reuse_hits + bd.dynamic_fallbacks, 0u);
    EXPECT_GT(bd.dynamic_reuse_hits, 0u) << "recompute leaves idle space; reuse must trigger";
  }
}

INSTANTIATE_TEST_SUITE_P(Models, STAllocEndToEndTest,
                         ::testing::Values("gpt2", "llama2-7b", "qwen1.5-moe"),
                         [](const ::testing::TestParamInfo<const char*>& info) {
                           std::string name = info.param;
                           for (char& ch : name) {
                             if (!std::isalnum(static_cast<unsigned char>(ch))) {
                               ch = '_';
                             }
                           }
                           return name;
                         });

// Pins STAlloc's runtime on Fig. 8 cells (80 GiB, profiled at seed 1001, replayed at seed 2002):
// the placement digest of every malloc and free, Mr, and the path counters. The last case
// replays the rank-0 plan on rank 1, so static hits, plan mismatches, dynamic reuse and the
// lack-of-space fallback all run. Verify mode adds checks, never decisions: every pin holds with
// it on and off.
TEST(STAllocAllocator, PinnedPlacementDigests) {
  struct Cell {
    const char* model;
    ParallelConfig parallel;
    uint64_t micro_batch;
  };
  const Cell gpt2 = {"gpt2", {/*tp=*/1, /*pp=*/2, /*dp=*/4, /*ep=*/1, /*vpp=*/1}, 64};
  const Cell qwen = {"qwen1.5-moe", {/*tp=*/1, /*pp=*/2, /*dp=*/4, /*ep=*/4, /*vpp=*/1}, 8};
  auto builder = [](const Cell& cell, int rank) {
    TrainConfig train;
    train.parallel = cell.parallel;
    train.num_microbatches = 8;
    train = ApplyConfigTag(train, "N");
    train.micro_batch_size = cell.micro_batch;
    train.rank = rank;
    return WorkloadBuilder(ModelByName(cell.model), train);
  };
  auto plan_of = [](const WorkloadBuilder& workload) {
    const ProfileResult profile = ProfileWorkload(workload, 80 * GiB, /*iteration_seed=*/1001);
    EXPECT_TRUE(profile.feasible);
    return SynthesizePlan(profile.trace);
  };
  const SynthesisResult gpt2_plan = plan_of(builder(gpt2, 0));
  const SynthesisResult qwen_plan = plan_of(builder(qwen, 0));
  const Trace gpt2_run = builder(gpt2, 0).Build(2002);
  const Trace qwen_run = builder(qwen, 0).Build(2002);
  const Trace qwen_rank1_run = builder(qwen, 1).Build(2002);

  struct Pin {
    const char* name;
    const SynthesisResult* plan;
    const Trace* run;
    const char* kind;
    uint64_t digest;
    uint64_t reserved_peak;
    STAllocBreakdown counts;  // the four path counters only
  };
  const Pin pins[] = {
      {"gpt2 rank0", &gpt2_plan, &gpt2_run, "stalloc", 0xaa8cdae5fb189ddeull, 59068484096ull,
       {2501, 0, 0, 0}},
      {"qwen rank0", &qwen_plan, &qwen_run, "stalloc", 0xc2237e22f2d94bb2ull, 64582124032ull,
       {2369, 0, 2670, 7410}},
      {"qwen rank0 noreuse", &qwen_plan, &qwen_run, "stalloc-noreuse", 0x585d95ea056c8eeeull,
       64582124032ull, {2369, 0, 0, 10080}},
      {"qwen rank0 plan on rank1", &qwen_plan, &qwen_rank1_run, "stalloc", 0xcb840ecaed9169caull,
       81210442240ull, {2183, 210, 2640, 7440}},
  };
  for (const bool verify : {true, false}) {
    ScopedVerify mode(verify);
    for (const Pin& pin : pins) {
      SCOPED_TRACE(std::string(pin.name) + (verify ? " verify on" : " verify off"));
      SimDevice dev(80 * GiB);
      STAllocAllocator alloc(&dev, pin.plan->plan, pin.plan->dyn_space,
                             STAllocConfigFor(pin.kind));
      ASSERT_TRUE(alloc.Init());
      PlacementDigestObserver digest;
      const ReplayResult r = ReplayTrace(*pin.run, &alloc, &digest);
      const STAllocBreakdown& bd = alloc.breakdown();
      EXPECT_FALSE(r.oom);
      EXPECT_EQ(digest.digest(), pin.digest);
      EXPECT_EQ(r.reserved_peak, pin.reserved_peak);
      EXPECT_EQ(bd.static_hits, pin.counts.static_hits);
      EXPECT_EQ(bd.static_mismatches, pin.counts.static_mismatches);
      EXPECT_EQ(bd.dynamic_reuse_hits, pin.counts.dynamic_reuse_hits);
      EXPECT_EQ(bd.dynamic_fallbacks, pin.counts.dynamic_fallbacks);
    }
  }
}

}  // namespace
}  // namespace stalloc
