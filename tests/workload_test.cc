#include "src/trainsim/workload.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>

#include "src/trace/trace_stats.h"
#include "src/trainsim/model_config.h"

namespace stalloc {
namespace {

TrainConfig SmallConfig() {
  TrainConfig c;
  c.parallel.pp = 2;
  c.num_microbatches = 4;
  c.micro_batch_size = 4;
  return c;
}

TEST(ModelConfigs, ParamCountsAreInExpectedRange) {
  // Sanity-check the sizing math against the models' nominal parameter counts (+-25%).
  EXPECT_NEAR(static_cast<double>(Gpt2_345M().TotalParams()), 345e6, 345e6 * 0.35);
  EXPECT_NEAR(static_cast<double>(Llama2_7B().TotalParams()), 6.7e9, 6.7e9 * 0.25);
  EXPECT_NEAR(static_cast<double>(Qwen25_14B().TotalParams()), 14.7e9, 14.7e9 * 0.25);
  EXPECT_NEAR(static_cast<double>(Qwen25_72B().TotalParams()), 72e9, 72e9 * 0.25);
  EXPECT_NEAR(static_cast<double>(Qwen15_MoE_A27B().TotalParams()), 14.3e9, 14.3e9 * 0.3);
}

TEST(ModelConfigs, LookupByName) {
  EXPECT_EQ(ModelByName("gpt2").name, "gpt2-345m");
  EXPECT_EQ(ModelByName("llama2-7b").name, "llama2-7b");
  EXPECT_TRUE(ModelByName("qwen1.5-moe").moe.enabled());
}

TEST(ModelConfigs, KnownModelNamesRoundTripThroughLookup) {
  // --list-models is the discovery path for the trace tool: every advertised name must resolve,
  // and every preset must be advertised (the lists are maintained by hand).
  const auto names = KnownModelNames();
  std::set<std::string> resolved;
  for (const std::string& name : names) {
    resolved.insert(ModelByName(name).name);  // aborts on unknown
  }
  EXPECT_EQ(resolved.size(), names.size()) << "duplicate or aliased entries";
  for (const ModelConfig& preset :
       {Gpt2_345M(), Llama2_7B(), Qwen25_7B(), Qwen25_14B(), Qwen25_32B(), Qwen25_72B(),
        Qwen15_MoE_A27B()}) {
    EXPECT_TRUE(resolved.count(preset.name)) << preset.name << " missing from KnownModelNames()";
  }
}

TEST(Workload, TraceIsValidAndBalanced) {
  WorkloadBuilder wb(Gpt2_345M(), SmallConfig());
  Trace trace = wb.Build(1);
  trace.Validate();
  EXPECT_GT(trace.size(), 100u);
  // Every phase window is sane.
  for (const auto& p : trace.phases()) {
    EXPECT_LE(p.start, p.end);
  }
}

TEST(Workload, SpatialRegularityFewDistinctSizes) {
  // Fig. 3: despite thousands of allocations there are only a few dozen distinct sizes.
  WorkloadBuilder wb(Llama2_7B(), SmallConfig());
  Trace trace = wb.Build(1);
  TraceStats stats = ComputeStats(trace);
  EXPECT_GT(trace.size(), 1000u);
  EXPECT_LE(stats.distinct_sizes, 64u);
  EXPECT_GE(stats.distinct_sizes, 8u);
}

TEST(Workload, AllThreeLifespanClassesPresent) {
  WorkloadBuilder wb(Gpt2_345M(), SmallConfig());
  Trace trace = wb.Build(1);
  TraceStats stats = ComputeStats(trace);
  EXPECT_GT(stats.persistent_count, 0u);
  EXPECT_GT(stats.scoped_count, 0u);
  EXPECT_GT(stats.transient_count, 0u);
}

TEST(Workload, RecomputationShrinksScopedAndPeak) {
  TrainConfig base = SmallConfig();
  WorkloadBuilder plain(Gpt2_345M(), base);
  TrainConfig rc = base;
  rc.opt.recompute = RecomputeMode::kFull;
  WorkloadBuilder recompute(Gpt2_345M(), rc);

  TraceStats s_plain = ComputeStats(plain.Build(1));
  TraceStats s_rc = ComputeStats(recompute.Build(1));
  EXPECT_LT(s_rc.scoped_bytes, s_plain.scoped_bytes);
  EXPECT_LT(s_rc.peak_allocated, s_plain.peak_allocated);
  // Recomputation *increases* the number of allocation events (§1: ~30% more requests).
  EXPECT_GT(s_rc.num_events, s_plain.num_events);
}

TEST(Workload, VirtualPipelineIncreasesPeak) {
  TrainConfig base = SmallConfig();
  TrainConfig vpp = base;
  vpp.parallel.vpp_chunks = 2;
  const uint64_t peak_plain = PeakAllocated(WorkloadBuilder(Gpt2_345M(), base).Build(1));
  const uint64_t peak_vpp = PeakAllocated(WorkloadBuilder(Gpt2_345M(), vpp).Build(1));
  EXPECT_GT(peak_vpp, peak_plain);  // §2.1: VPP trades memory for fewer bubbles
}

TEST(Workload, ZeroShardsOptimizerStates) {
  TrainConfig base = SmallConfig();
  base.parallel.dp = 4;
  TrainConfig zero = base;
  zero.opt.zero = ZeroStage::kStage1;
  TraceStats s_base = ComputeStats(WorkloadBuilder(Gpt2_345M(), base).Build(1));
  TraceStats s_zero = ComputeStats(WorkloadBuilder(Gpt2_345M(), zero).Build(1));
  EXPECT_LT(s_zero.persistent_bytes, s_base.persistent_bytes);
}

TEST(Workload, OffloadFreesActivationsInForward) {
  TrainConfig base = SmallConfig();
  TrainConfig off = base;
  off.opt.offload = true;
  TraceStats s_base = ComputeStats(WorkloadBuilder(Gpt2_345M(), base).Build(1));
  TraceStats s_off = ComputeStats(WorkloadBuilder(Gpt2_345M(), off).Build(1));
  EXPECT_LT(s_off.scoped_bytes, s_base.scoped_bytes);
  EXPECT_LT(s_off.peak_allocated, s_base.peak_allocated);
}

TEST(Workload, MoeEmitsDynamicEvents) {
  TrainConfig c = SmallConfig();
  c.micro_batch_size = 2;
  WorkloadBuilder wb(Qwen15_MoE_A27B(), c);
  Trace trace = wb.Build(1);
  TraceStats stats = ComputeStats(trace);
  EXPECT_GT(stats.num_dynamic, 0u);
  EXPECT_GT(stats.num_static, 0u);
  for (uint64_t id = 0; id < trace.size(); ++id) {
    const MemoryEvent e = trace.Event(id);
    if (e.dyn) {
      EXPECT_NE(e.ls, kInvalidLayer);
      EXPECT_NE(e.le, kInvalidLayer);
    }
  }
}

TEST(Workload, DenseModelsHaveNoDynamicEvents) {
  WorkloadBuilder wb(Llama2_7B(), SmallConfig());
  Trace trace = wb.Build(1);
  EXPECT_EQ(ComputeStats(trace).num_dynamic, 0u);
}

TEST(Workload, SeedChangesOnlyDynamicSizes) {
  TrainConfig c = SmallConfig();
  c.micro_batch_size = 2;
  WorkloadBuilder wb(Qwen15_MoE_A27B(), c);
  Trace t1 = wb.Build(1);
  Trace t2 = wb.Build(2);
  ASSERT_EQ(t1.size(), t2.size()) << "request structure must be iteration-invariant";
  bool some_dynamic_differs = false;
  for (size_t i = 0; i < t1.size(); ++i) {
    const auto& a = t1.Event(i);
    const auto& b = t2.Event(i);
    EXPECT_EQ(a.ts, b.ts);
    EXPECT_EQ(a.te, b.te);
    EXPECT_EQ(a.dyn, b.dyn);
    if (!a.dyn) {
      EXPECT_EQ(a.size, b.size) << "static sizes must match across iterations";
    } else if (a.size != b.size) {
      some_dynamic_differs = true;
    }
  }
  EXPECT_TRUE(some_dynamic_differs);
}

TEST(Workload, SameSeedIsDeterministic) {
  TrainConfig c = SmallConfig();
  c.micro_batch_size = 2;
  WorkloadBuilder wb(Qwen15_MoE_A27B(), c);
  Trace t1 = wb.Build(7);
  Trace t2 = wb.Build(7);
  ASSERT_EQ(t1.size(), t2.size());
  for (size_t i = 0; i < t1.size(); ++i) {
    EXPECT_EQ(t1.Event(i).size, t2.Event(i).size);
  }
}

TEST(Workload, LayersOfChunkFollowMegatronInterleaving) {
  TrainConfig c = SmallConfig();
  c.parallel.pp = 2;
  c.parallel.vpp_chunks = 2;
  c.rank = 0;
  WorkloadBuilder wb(Gpt2_345M(), c);  // 24 layers / (2*2) = 6 per chunk
  EXPECT_EQ(wb.LayersOfChunk(0).front(), 0);
  EXPECT_EQ(wb.LayersOfChunk(1).front(), 12);  // chunk 1 of rank 0 = model chunk 2
  TrainConfig c1 = c;
  c1.rank = 1;
  WorkloadBuilder wb1(Gpt2_345M(), c1);
  EXPECT_EQ(wb1.LayersOfChunk(0).front(), 6);
  EXPECT_EQ(wb1.LayersOfChunk(1).front(), 18);
  EXPECT_TRUE(wb.HasEmbedding());
  EXPECT_FALSE(wb.HasLmHead());
  EXPECT_TRUE(wb1.HasLmHead());
}

TEST(Workload, EstimateReportsPersistentAndInFlight) {
  WorkloadBuilder wb(Gpt2_345M(), SmallConfig());
  MemoryEstimate est = wb.Estimate();
  EXPECT_GT(est.persistent_bytes, 0u);
  EXPECT_GT(est.activation_bytes_per_mb, 0u);
  EXPECT_EQ(est.peak_in_flight, 2);  // pp=2, rank 0
}

// Parameterized sweep: the workload trace must be valid and balanced under every optimization
// combination the paper evaluates.
class WorkloadConfigSweep : public ::testing::TestWithParam<const char*> {};

TEST_P(WorkloadConfigSweep, TraceValidUnderConfigTag) {
  TrainConfig base = SmallConfig();
  base.parallel.dp = 2;
  TrainConfig c = ApplyConfigTag(base, GetParam());
  WorkloadBuilder wb(Gpt2_345M(), c);
  Trace trace = wb.Build(3);
  trace.Validate();
  TraceStats stats = ComputeStats(trace);
  EXPECT_GT(stats.peak_allocated, 0u);
  // Live bytes return to zero at the end of the iteration (nothing leaks).
  auto curve = LiveBytesCurve(trace);
  EXPECT_EQ(curve.back().second, 0u);
}

INSTANTIATE_TEST_SUITE_P(Tags, WorkloadConfigSweep,
                         ::testing::Values("N", "R", "V", "VR", "ZR", "ZOR"),
                         [](const ::testing::TestParamInfo<const char*>& info) {
                           return std::string(info.param);
                         });

}  // namespace
}  // namespace stalloc
