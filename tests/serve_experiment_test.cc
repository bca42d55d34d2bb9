// ServeExperiment end-to-end: every allocator kind over serving traces, deterministic results,
// and the serving-specific shape — the paged-KV pool at home, STAlloc surviving on its fallback
// path where the static-plan assumption no longer holds.

#include "src/driver/serve_experiment.h"

#include <string>

#include <gtest/gtest.h>

#include "src/common/units.h"
#include "src/trainsim/model_config.h"

namespace stalloc {
namespace {

ServeOptions SmallOptions() {
  ServeOptions opt;
  opt.base.capacity_bytes = 16ull * GiB;
  opt.engine.kv_budget_bytes = 2ull * GiB;
  return opt;
}

ServeScenario SmallScenario(const char* name) {
  ServeScenario s = ScenarioByName(name);
  s.num_requests = s.num_requests / 2;
  return s;
}

TEST(ServeExperiment, AllKindsCompleteOnEveryPreset) {
  const ModelConfig model = ModelByName("gpt2");
  for (const std::string& name : ScenarioNames()) {
    const ServeScenario scenario = SmallScenario(name.c_str());
    for (const std::string& kind : AllocatorRegistry::Global().Names()) {
      ServeExperimentResult r = RunServeExperiment(model, scenario, kind, SmallOptions());
      EXPECT_FALSE(r.replay.oom) << name << "/" << kind;
      EXPECT_FALSE(r.replay.infeasible) << name << "/" << kind;
      EXPECT_GT(r.replay.memory_efficiency, 0.5) << name << "/" << kind;
      EXPECT_GT(r.trace_events, 0u);
      EXPECT_EQ(r.serve.completed + r.serve.rejected, r.serve.num_requests);
    }
  }
}

TEST(ServeExperiment, DeterministicAcrossRuns) {
  const ModelConfig model = ModelByName("gpt2");
  const ServeScenario scenario = SmallScenario("chat");
  for (const char* kind : {"torch-caching", "paged-kv"}) {
    ServeExperimentResult a = RunServeExperiment(model, scenario, kind, SmallOptions());
    ServeExperimentResult b = RunServeExperiment(model, scenario, kind, SmallOptions());
    EXPECT_EQ(a.replay.reserved_peak, b.replay.reserved_peak);
    EXPECT_EQ(a.replay.allocated_peak, b.replay.allocated_peak);
    EXPECT_EQ(a.replay.device_api_calls, b.replay.device_api_calls);
    EXPECT_EQ(a.serve.preemptions, b.serve.preemptions);
    EXPECT_EQ(a.trace_events, b.trace_events);
  }
}

TEST(ServeExperiment, PagedKvBeatsCachingOnKvHeavyServing) {
  // rag-long is KV-cache dominated; the block pool's zero external fragmentation must show.
  const ModelConfig model = ModelByName("gpt2");
  const ServeScenario scenario = SmallScenario("rag-long");
  ServeExperimentResult paged =
      RunServeExperiment(model, scenario, "paged-kv", SmallOptions());
  ServeExperimentResult caching =
      RunServeExperiment(model, scenario, "torch-caching", SmallOptions());
  ASSERT_FALSE(paged.replay.oom || caching.replay.oom);
  EXPECT_GE(paged.replay.memory_efficiency, caching.replay.memory_efficiency);
}

TEST(ServeExperiment, StallocFallsBackGracefullyOnServing) {
  // Serving is not iteration-repeatable: the plan covers the weights, the runtime requests take
  // the dynamic/fallback path — STAlloc must complete, with visible fallback traffic.
  const ModelConfig model = ModelByName("gpt2");
  ServeExperimentResult r =
      RunServeExperiment(model, SmallScenario("chat"), "stalloc", SmallOptions());
  ASSERT_FALSE(r.replay.oom);
  const STAllocBreakdown& b = r.replay.breakdown;
  EXPECT_GT(b.dynamic_reuse_hits + b.dynamic_fallbacks, 0u)
      << "serving requests must route through the dynamic/fallback machinery";
  EXPECT_GT(r.replay.plan_stats.num_dynamic_events, r.replay.plan_stats.num_static_events)
      << "almost everything in a serving trace is dynamic";
}

TEST(ServeExperiment, NativeDefinesServingFeasibility) {
  const ModelConfig model = ModelByName("gpt2");
  ServeOptions tight = SmallOptions();
  tight.base.capacity_bytes = 1 * GiB;  // weights alone are ~700 MiB; KV does not fit
  ServeExperimentResult native =
      RunServeExperiment(model, SmallScenario("chat"), "native", tight);
  EXPECT_TRUE(native.replay.infeasible);
  ServeExperimentResult st =
      RunServeExperiment(model, SmallScenario("chat"), "stalloc", tight);
  EXPECT_TRUE(st.replay.infeasible) << "STAlloc profiling must detect serving infeasibility";
}

TEST(ServeExperiment, PreemptionMetricsSurfaceInSummary) {
  const ModelConfig model = ModelByName("gpt2");
  ServeOptions opt = SmallOptions();
  opt.engine.kv_budget_bytes = 1 * GiB;
  ServeExperimentResult r = RunServeExperiment(model, ScenarioByName("batch-offline"),
                                               "torch-caching", opt);
  ASSERT_FALSE(r.replay.oom);
  EXPECT_GT(r.serve.preemptions, 0u);
  const std::string summary = r.Summary();
  EXPECT_NE(summary.find("preempt="), std::string::npos);
  EXPECT_NE(summary.find("batch="), std::string::npos);
  // The satellite fix: release calls are printed by the base summary too.
  EXPECT_NE(r.replay.Summary().find("releases="), std::string::npos);
}

TEST(ServeExperiment, PagedBlockSizeDefaultsToWorkloadKvBlock) {
  const ModelConfig model = ModelByName("gpt2");
  ServeOptions opt = SmallOptions();
  // Deliberately mis-sized pool pages: a 4x larger page wastes 3/4 of every KV block.
  ServeOptions missized = opt;
  missized.base.allocator_options.paged_block_bytes = 4 * KvBlockBytes(model, opt.engine);
  ServeExperimentResult fit = RunServeExperiment(model, SmallScenario("batch-offline"),
                                                 "paged-kv", opt);
  ServeExperimentResult waste = RunServeExperiment(model, SmallScenario("batch-offline"),
                                                   "paged-kv", missized);
  ASSERT_FALSE(fit.replay.oom || waste.replay.oom);
  EXPECT_GT(fit.replay.memory_efficiency, waste.replay.memory_efficiency)
      << "page-granularity mismatch must cost internal fragmentation";
}

}  // namespace
}  // namespace stalloc
