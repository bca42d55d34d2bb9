// MoE dynamic-allocator stress: replay iterations whose expert routing diverges wildly from the
// profiled iteration. The memory-stomping detector in AllocatorBase aborts the test on any
// overlap, so passing means the Dynamic Reusable Space guarantees hold even when sizes blow
// through the profiled values and requests spill to the caching fallback.

#include <gtest/gtest.h>

#include <cstdint>

#include "src/common/units.h"
#include "src/core/planner.h"
#include "src/core/profiler.h"
#include "src/core/stalloc_allocator.h"
#include "src/driver/replay.h"
#include "src/trainsim/model_config.h"
#include "src/trainsim/workload.h"

namespace stalloc {
namespace {

constexpr uint64_t kCapacity = 128 * GiB;

class MoeStressTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MoeStressTest, DivergentRoutingNeverStomps) {
  TrainConfig c;
  c.parallel.pp = 2;
  c.parallel.ep = 4;
  c.parallel.dp = 4;
  c.num_microbatches = 4;
  c.micro_batch_size = 4;
  c.opt.recompute = RecomputeMode::kFull;
  c.opt.zero = ZeroStage::kStage1;
  WorkloadBuilder wb(Qwen15_MoE_A27B(), c);

  ProfileResult profile = ProfileWorkload(wb, kCapacity, /*iteration_seed=*/1);
  ASSERT_TRUE(profile.feasible);
  SynthesisResult synthesis = SynthesizePlan(profile.trace);

  SimDevice dev(kCapacity);
  STAllocAllocator alloc(&dev, synthesis.plan, synthesis.dyn_space);
  ASSERT_TRUE(alloc.Init());

  // Replay several wildly different iterations back to back. Any address overlap between live
  // blocks aborts inside AllocatorBase (stomping detector).
  for (uint64_t i = 0; i < 3; ++i) {
    ReplayResult r = ReplayTrace(wb.Build(GetParam() * 1000 + i), &alloc);
    ASSERT_FALSE(r.oom);
    EXPECT_GT(r.memory_efficiency, 0.9);
  }
  const auto& bd = alloc.breakdown();
  EXPECT_EQ(bd.static_mismatches, 0u);
  EXPECT_GT(bd.dynamic_reuse_hits, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MoeStressTest, ::testing::Values(3, 17, 4242));

TEST(MoeStress, DynamicRegionsShrinkGracefullyUnderTinyPool) {
  // Degenerate case: a plan with a tiny pool leaves no reusable space; every dynamic request
  // must fall back without error.
  TrainConfig c;
  c.parallel.pp = 2;
  c.parallel.ep = 4;
  c.parallel.dp = 4;
  c.num_microbatches = 2;
  c.micro_batch_size = 2;
  c.opt.recompute = RecomputeMode::kFull;
  c.opt.zero = ZeroStage::kStage1;
  WorkloadBuilder wb(Qwen15_MoE_A27B(), c);
  ProfileResult profile = ProfileWorkload(wb, kCapacity, 1);
  SynthesisResult synthesis = SynthesizePlan(profile.trace);

  // Clamp every reusable region to zero: dynamic requests have nowhere to go in the pool.
  for (auto& [key, region] : synthesis.dyn_space.regions) {
    region.clear();
  }
  SimDevice dev(kCapacity);
  STAllocAllocator alloc(&dev, synthesis.plan, synthesis.dyn_space);
  ASSERT_TRUE(alloc.Init());
  ReplayResult r = ReplayTrace(wb.Build(2), &alloc);
  EXPECT_FALSE(r.oom);
  EXPECT_EQ(alloc.breakdown().dynamic_reuse_hits, 0u);
  EXPECT_GT(alloc.breakdown().dynamic_fallbacks, 0u);
}

}  // namespace
}  // namespace stalloc
