// ServeExperiment end-to-end: every allocator kind over serving traces, deterministic results,
// and the serving-specific shape — the paged-KV pool at home, STAlloc surviving on its fallback
// path where the static-plan assumption no longer holds.

#include <string>

#include <gtest/gtest.h>

#include "src/api/session.h"
#include "src/common/units.h"
#include "src/trainsim/model_config.h"

namespace stalloc {
namespace {

// A gpt2 serving day of the named preset on a 16 GiB device with a 2 GiB KV budget.
ExperimentSpec FullSpec(const std::string& scenario) {
  ExperimentSpec spec;
  spec.axis = WorkloadAxis::kServing;
  spec.model = "gpt2";
  spec.scenario = scenario;
  spec.options.capacity_bytes = 16ull * GiB;
  spec.engine.kv_budget_bytes = 2ull * GiB;
  return spec;
}

// The same day with half the preset's requests.
ExperimentSpec SmallSpec(const std::string& scenario) {
  ExperimentSpec spec = FullSpec(scenario);
  spec.serve_requests = ScenarioByName(scenario).num_requests / 2;
  return spec;
}

ServeExperimentResult RunServe(const ExperimentSpec& spec, const std::string& kind) {
  return *Session().RunOne(spec, kind).serve;
}

TEST(ServeExperiment, AllKindsCompleteOnEveryPreset) {
  for (const std::string& name : ScenarioNames()) {
    const ExperimentSpec spec = SmallSpec(name);
    for (const std::string& kind : AllocatorRegistry::Global().Names()) {
      ServeExperimentResult r = RunServe(spec, kind);
      EXPECT_FALSE(r.replay.oom) << name << "/" << kind;
      EXPECT_FALSE(r.replay.infeasible) << name << "/" << kind;
      EXPECT_GT(r.replay.memory_efficiency, 0.5) << name << "/" << kind;
      EXPECT_GT(r.trace_events, 0u);
      EXPECT_EQ(r.serve.completed + r.serve.rejected, r.serve.num_requests);
    }
  }
}

TEST(ServeExperiment, DeterministicAcrossRuns) {
  const ExperimentSpec spec = SmallSpec("chat");
  for (const char* kind : {"torch-caching", "paged-kv"}) {
    ServeExperimentResult a = RunServe(spec, kind);
    ServeExperimentResult b = RunServe(spec, kind);
    EXPECT_EQ(a.replay.reserved_peak, b.replay.reserved_peak);
    EXPECT_EQ(a.replay.allocated_peak, b.replay.allocated_peak);
    EXPECT_EQ(a.replay.device_api_calls, b.replay.device_api_calls);
    EXPECT_EQ(a.serve.preemptions, b.serve.preemptions);
    EXPECT_EQ(a.trace_events, b.trace_events);
  }
}

TEST(ServeExperiment, PagedKvBeatsCachingOnKvHeavyServing) {
  // rag-long is KV-cache dominated; the block pool's zero external fragmentation must show.
  const ExperimentSpec spec = SmallSpec("rag-long");
  ServeExperimentResult paged = RunServe(spec, "paged-kv");
  ServeExperimentResult caching = RunServe(spec, "torch-caching");
  ASSERT_FALSE(paged.replay.oom || caching.replay.oom);
  EXPECT_GE(paged.replay.memory_efficiency, caching.replay.memory_efficiency);
}

TEST(ServeExperiment, StallocFallsBackGracefullyOnServing) {
  // Serving is not iteration-repeatable: the plan covers the weights, the runtime requests take
  // the dynamic/fallback path — STAlloc must complete, with visible fallback traffic.
  ServeExperimentResult r = RunServe(SmallSpec("chat"), "stalloc");
  ASSERT_FALSE(r.replay.oom);
  const STAllocBreakdown& b = r.replay.breakdown;
  EXPECT_GT(b.dynamic_reuse_hits + b.dynamic_fallbacks, 0u)
      << "serving requests must route through the dynamic/fallback machinery";
  EXPECT_GT(r.replay.plan_stats.num_dynamic_events, r.replay.plan_stats.num_static_events)
      << "almost everything in a serving trace is dynamic";
}

TEST(ServeExperiment, NativeDefinesServingFeasibility) {
  ExperimentSpec tight = SmallSpec("chat");
  tight.options.capacity_bytes = 1 * GiB;  // weights alone are ~700 MiB; KV does not fit
  ServeExperimentResult native = RunServe(tight, "native");
  EXPECT_TRUE(native.replay.infeasible);
  ServeExperimentResult st = RunServe(tight, "stalloc");
  EXPECT_TRUE(st.replay.infeasible) << "STAlloc profiling must detect serving infeasibility";
}

TEST(ServeExperiment, PreemptionMetricsSurfaceInSummary) {
  ExperimentSpec spec = FullSpec("batch-offline");
  spec.engine.kv_budget_bytes = 1 * GiB;
  ServeExperimentResult r = RunServe(spec, "torch-caching");
  ASSERT_FALSE(r.replay.oom);
  EXPECT_GT(r.serve.preemptions, 0u);
  const std::string summary = r.Summary();
  EXPECT_NE(summary.find("preempt="), std::string::npos);
  EXPECT_NE(summary.find("batch="), std::string::npos);
  // The satellite fix: release calls are printed by the base summary too.
  EXPECT_NE(r.replay.Summary().find("releases="), std::string::npos);
}

TEST(ServeExperiment, PagedBlockSizeDefaultsToWorkloadKvBlock) {
  const ExperimentSpec spec = SmallSpec("batch-offline");
  // Deliberately mis-sized pool pages: a 4x larger page wastes 3/4 of every KV block.
  ExperimentSpec missized = spec;
  missized.options.allocator_options.paged_block_bytes =
      4 * KvBlockBytes(ModelByName("gpt2"), spec.engine);
  ServeExperimentResult fit = RunServe(spec, "paged-kv");
  ServeExperimentResult waste = RunServe(missized, "paged-kv");
  ASSERT_FALSE(fit.replay.oom || waste.replay.oom);
  EXPECT_GT(fit.replay.memory_efficiency, waste.replay.memory_efficiency)
      << "page-granularity mismatch must cost internal fragmentation";
}

}  // namespace
}  // namespace stalloc
