// Cross-module integration and fault-injection tests: the profiler pipeline, multi-iteration
// runtime behaviour, plan-mismatch robustness, per-stream pool segregation, and replay OOM
// semantics.

#include <gtest/gtest.h>

#include <cstdint>

#include "src/allocators/caching_allocator.h"
#include "src/common/units.h"
#include "src/core/planner.h"
#include "src/core/profiler.h"
#include "src/trace/trace_stats.h"
#include "src/core/stalloc_allocator.h"
#include "src/driver/replay.h"
#include "src/trainsim/model_config.h"
#include "src/trainsim/workload.h"

namespace stalloc {
namespace {

constexpr uint64_t kCapacity = 64 * GiB;

TrainConfig SmallConfig() {
  TrainConfig c;
  c.parallel.pp = 2;
  c.num_microbatches = 4;
  c.micro_batch_size = 4;
  return c;
}

TEST(Profiler, FeasibleWorkloadProducesTrace) {
  WorkloadBuilder wb(Gpt2_345M(), SmallConfig());
  ProfileResult r = ProfileWorkload(wb, kCapacity, 1);
  EXPECT_TRUE(r.feasible);
  EXPECT_GT(r.trace.size(), 0u);
  EXPECT_EQ(r.peak_allocated, PeakAllocated(r.trace));
  EXPECT_GT(r.native_api_calls, r.trace.size());  // one malloc + one free per event
  EXPECT_GT(r.native_api_cost_us, 0.0);
}

TEST(Profiler, DetectsInfeasibleWorkload) {
  WorkloadBuilder wb(Gpt2_345M(), SmallConfig());
  ProfileResult r = ProfileWorkload(wb, 1 * GiB, 1);
  EXPECT_FALSE(r.feasible);
}

TEST(Replay, OomStopsAtFailingEvent) {
  WorkloadBuilder wb(Gpt2_345M(), SmallConfig());
  Trace trace = wb.Build(1);
  SimDevice dev(1 * GiB);
  CachingAllocator alloc(&dev);
  ReplayResult r = ReplayTrace(trace, &alloc);
  EXPECT_TRUE(r.oom);
  EXPECT_LT(r.failed_event, trace.size());
  // Cleanup path: everything live was freed, allocator reusable.
  EXPECT_EQ(alloc.stats().allocated_current, 0u);
}

TEST(STAllocIntegration, MultipleIterationsStayPlanned) {
  WorkloadBuilder wb(Gpt2_345M(), SmallConfig());
  ProfileResult profile = ProfileWorkload(wb, kCapacity, 1);
  ASSERT_TRUE(profile.feasible);
  SynthesisResult synthesis = SynthesizePlan(profile.trace);
  SimDevice dev(kCapacity);
  STAllocAllocator alloc(&dev, synthesis.plan, synthesis.dyn_space);
  ASSERT_TRUE(alloc.Init());

  const uint64_t reserved_after_init = alloc.ReservedBytes();
  for (uint64_t iter = 0; iter < 4; ++iter) {
    ReplayResult r = ReplayTrace(wb.Build(10 + iter), &alloc);
    ASSERT_FALSE(r.oom) << "iteration " << iter;
    EXPECT_EQ(alloc.breakdown().static_mismatches, 0u) << "iteration " << iter;
  }
  // Reserved memory never grew beyond the pool: no fallback traffic across iterations.
  EXPECT_EQ(alloc.ReservedBytes(), reserved_after_init);
}

TEST(STAllocIntegration, WrongWorkloadFallsBackInsteadOfCrashing) {
  // Plan synthesized for GPT-2 but the job replays a different config (different sizes): every
  // static request should miss the plan and be absorbed by the caching fallback (§6 robustness).
  WorkloadBuilder planned(Gpt2_345M(), SmallConfig());
  ProfileResult profile = ProfileWorkload(planned, kCapacity, 1);
  SynthesisResult synthesis = SynthesizePlan(profile.trace);

  TrainConfig other_config = SmallConfig();
  other_config.micro_batch_size = 2;  // halves most activation sizes
  WorkloadBuilder actual(Gpt2_345M(), other_config);

  SimDevice dev(kCapacity);
  STAllocAllocator alloc(&dev, synthesis.plan, synthesis.dyn_space);
  ASSERT_TRUE(alloc.Init());
  ReplayResult r = ReplayTrace(actual.Build(2), &alloc);
  EXPECT_FALSE(r.oom);
  EXPECT_GT(alloc.breakdown().static_mismatches, 0u);
  EXPECT_GT(alloc.breakdown().fallback_bytes, 0u);
}

TEST(STAllocIntegration, PartialMismatchKeepsRemainingPlanUsable) {
  // Inject a foreign allocation mid-stream: later planned requests must still hit the plan.
  WorkloadBuilder wb(Gpt2_345M(), SmallConfig());
  ProfileResult profile = ProfileWorkload(wb, kCapacity, 1);
  SynthesisResult synthesis = SynthesizePlan(profile.trace);
  SimDevice dev(kCapacity);
  STAllocAllocator alloc(&dev, synthesis.plan, synthesis.dyn_space);
  ASSERT_TRUE(alloc.Init());

  // A request size the plan has never seen.
  auto foreign = alloc.Malloc(123456789);
  ASSERT_TRUE(foreign.has_value());
  EXPECT_EQ(alloc.breakdown().static_mismatches, 1u);

  ReplayResult r = ReplayTrace(wb.Build(2), &alloc);
  EXPECT_FALSE(r.oom);
  EXPECT_GT(alloc.breakdown().static_hits, 0u);
  EXPECT_TRUE(alloc.Free(*foreign));
}

TEST(CachingStreams, FreedBlocksAreStreamPrivate) {
  SimDevice dev(8 * GiB);
  CachingAllocator alloc(&dev);
  RequestContext s0;
  auto a = alloc.Malloc(4 * MiB, s0);
  ASSERT_TRUE(a.has_value());
  alloc.Free(*a);
  // Same request from another stream must NOT reuse the cached block (PyTorch semantics).
  RequestContext s1;
  s1.stream = kDpCommStream;
  auto b = alloc.Malloc(4 * MiB, s1);
  ASSERT_TRUE(b.has_value());
  EXPECT_NE(*a, *b);
  // Back on stream 0, the cached block is reused.
  auto c = alloc.Malloc(4 * MiB, s0);
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ(*a, *c);
  alloc.Free(*b);
  alloc.Free(*c);
}

TEST(CachingStreams, PerStreamPoolsInflateReservation) {
  // The same request pattern alternating over two streams reserves roughly twice the memory of
  // the single-stream case — the fragmentation effect STAlloc's stream-agnostic plan avoids.
  auto run = [](bool two_streams) {
    SimDevice dev(8 * GiB);
    CachingAllocator alloc(&dev);
    for (int i = 0; i < 8; ++i) {
      RequestContext ctx;
      ctx.stream = two_streams && (i % 2 == 1) ? kDpCommStream : kComputeStream;
      auto a = alloc.Malloc(16 * MiB, ctx);
      EXPECT_TRUE(a.has_value());
      alloc.Free(*a);
    }
    return alloc.ReservedBytes();
  };
  EXPECT_GT(run(true), run(false));
}

TEST(WorkloadStreams, CommTrafficIsTagged) {
  TrainConfig c = SmallConfig();
  c.parallel.dp = 2;
  c.opt.offload = true;
  WorkloadBuilder wb(Gpt2_345M(), c);
  Trace trace = wb.Build(1);
  bool saw_p2p = false;
  bool saw_dp = false;
  bool saw_offload = false;
  for (uint64_t id = 0; id < trace.size(); ++id) {
    const MemoryEvent e = trace.Event(id);
    saw_p2p |= e.stream == kP2pStream;
    saw_dp |= e.stream == kDpCommStream;
    saw_offload |= e.stream == kOffloadStream;
  }
  EXPECT_TRUE(saw_p2p);
  EXPECT_TRUE(saw_dp);
  EXPECT_TRUE(saw_offload);
}

TEST(WorkloadStreams, MoeA2aIsTagged) {
  TrainConfig c = SmallConfig();
  c.parallel.ep = 4;
  c.micro_batch_size = 2;
  WorkloadBuilder wb(Qwen15_MoE_A27B(), c);
  Trace trace = wb.Build(1);
  bool saw_a2a = false;
  for (uint64_t id = 0; id < trace.size(); ++id) {
    const MemoryEvent e = trace.Event(id);
    saw_a2a |= e.stream == kA2aStream;
  }
  EXPECT_TRUE(saw_a2a);
}

}  // namespace
}  // namespace stalloc
