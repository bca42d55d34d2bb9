#include "src/core/planner.h"

#include <cstdint>
#include <set>
#include <string>

#include <gtest/gtest.h>

#include "src/common/units.h"
#include "src/telemetry/metrics.h"
#include "src/telemetry/telemetry.h"

#include "src/trace/trace_stats.h"
#include "src/trainsim/model_config.h"
#include "src/trainsim/workload.h"

namespace stalloc {
namespace {

TrainConfig SmallConfig() {
  TrainConfig c;
  c.parallel.pp = 2;
  c.num_microbatches = 4;
  c.micro_batch_size = 4;
  return c;
}

TEST(Planner, EmptyTraceYieldsEmptyPlan) {
  Trace t;
  t.Validate();
  SynthesisResult r = SynthesizePlan(t);
  EXPECT_TRUE(r.plan.empty());
  EXPECT_EQ(r.plan.pool_size, 0u);
}

TEST(Planner, SingleEventPlan) {
  Trace t;
  PhaseId p = t.AddPhase({PhaseKind::kForward, 0, 0, 0, 2});
  MemoryEvent e;
  e.size = 1000;
  e.ts = 0;
  e.te = 1;
  e.ps = p;
  e.pe = p;
  t.AddEvent(e);
  t.Validate();
  SynthesisResult r = SynthesizePlan(t);
  ASSERT_EQ(r.plan.decisions.size(), 1u);
  EXPECT_EQ(r.plan.decisions[0].addr, 0u);
  EXPECT_EQ(r.plan.pool_size, AlignUp(1000u, kPlanAlign));
}

TEST(Planner, EveryStaticEventGetsExactlyOneDecision) {
  WorkloadBuilder wb(Gpt2_345M(), SmallConfig());
  Trace trace = wb.Build(1);
  SynthesisResult r = SynthesizePlan(trace);
  std::set<uint64_t> planned;
  for (const auto& d : r.plan.decisions) {
    EXPECT_TRUE(planned.insert(d.event.id).second) << "duplicate decision";
  }
  uint64_t static_count = 0;
  for (uint64_t id = 0; id < trace.size(); ++id) {
    const MemoryEvent e = trace.Event(id);
    if (!e.dyn) {
      ++static_count;
      EXPECT_TRUE(planned.count(e.id)) << "static event " << e.id << " unplanned";
    }
  }
  EXPECT_EQ(planned.size(), static_count);
}

TEST(Planner, DecisionsSortedByAllocTime) {
  WorkloadBuilder wb(Gpt2_345M(), SmallConfig());
  SynthesisResult r = SynthesizePlan(wb.Build(1));
  for (size_t i = 1; i < r.plan.decisions.size(); ++i) {
    EXPECT_LE(r.plan.decisions[i - 1].event.ts, r.plan.decisions[i].event.ts);
  }
}

TEST(Planner, PoolNeverBelowLowerBound) {
  WorkloadBuilder wb(Gpt2_345M(), SmallConfig());
  SynthesisResult r = SynthesizePlan(wb.Build(1));
  EXPECT_GE(r.plan.pool_size, r.plan.lower_bound);
  EXPECT_GT(r.stats.PlanEfficiency(), 0.85) << "plan should be near-optimal on regular traces";
}

TEST(Planner, AblationsStillProduceValidPlans) {
  WorkloadBuilder wb(Gpt2_345M(), SmallConfig());
  Trace trace = wb.Build(1);
  for (bool fusion : {false, true}) {
    for (bool gaps : {false, true}) {
      PlanSynthesizerConfig config;
      config.enable_fusion = fusion;
      config.enable_gap_insertion = gaps;
      SynthesisResult r = SynthesizePlan(trace, config);
      std::string error;
      EXPECT_TRUE(r.plan.Check(&error)) << "fusion=" << fusion << " gaps=" << gaps << ": " << error;
    }
  }
}

TEST(Planner, GapInsertionNeverHurts) {
  WorkloadBuilder wb(Gpt2_345M(), SmallConfig());
  Trace trace = wb.Build(1);
  PlanSynthesizerConfig no_gaps;
  no_gaps.enable_gap_insertion = false;
  const uint64_t pool_with = SynthesizePlan(trace).plan.pool_size;
  const uint64_t pool_without = SynthesizePlan(trace, no_gaps).plan.pool_size;
  EXPECT_LE(pool_with, pool_without);
}

#if STALLOC_TELEMETRY
// With telemetry on, each synthesis adds the work its exact bounds skipped to the planner
// counters; with it off, the counters stay put.
TEST(Planner, CountsPrunedWorkWhenTelemetryIsOn) {
  auto& registry = telemetry::MetricsRegistry::Global();
  telemetry::Counter* plans = registry.GetCounter("planner.plans_synthesized");
  telemetry::Counter* pruned = registry.GetCounter("planner.pack_orders_pruned");
  telemetry::Counter* screened = registry.GetCounter("planner.fusions_screened");
  telemetry::Counter* greedy_skipped = registry.GetCounter("planner.greedy_refinements_skipped");
  TrainConfig c = SmallConfig();
  c.opt.recompute = RecomputeMode::kFull;
  const Trace trace = WorkloadBuilder(Gpt2_345M(), c).Build(1);

  const uint64_t plans_before = plans->value();
  const uint64_t pruned_before = pruned->value();
  const uint64_t screened_before = screened->value();
  const uint64_t greedy_skipped_before = greedy_skipped->value();
  const SynthesisResult off = SynthesizePlan(trace);
  EXPECT_EQ(plans->value(), plans_before);
  EXPECT_EQ(pruned->value(), pruned_before);
  EXPECT_EQ(greedy_skipped->value(), greedy_skipped_before);
  // The grouped plan sits on its peak-live floor, so greedy refinement is skipped.
  ASSERT_EQ(off.plan.pool_size, off.plan.lower_bound);
  EXPECT_FALSE(off.stats.used_greedy_refinement);

  telemetry::SetEnabled(true);
  SynthesizePlan(trace);
  telemetry::SetEnabled(false);
  EXPECT_EQ(plans->value(), plans_before + 1);
  EXPECT_GT(pruned->value(), pruned_before);
  EXPECT_GT(screened->value(), screened_before);
  EXPECT_EQ(greedy_skipped->value(), greedy_skipped_before + 1);
}
#endif

TEST(PlanValidator, DetectsStomping) {
  StaticPlan plan;
  MemoryEvent a;
  a.id = 0;
  a.size = 512;
  a.ts = 0;
  a.te = 10;
  MemoryEvent b = a;
  b.id = 1;
  b.ts = 5;  // overlaps a in time
  plan.decisions.push_back({a, 0, 512});
  plan.decisions.push_back({b, 256, 512});  // and in address space
  plan.pool_size = 4096;
  std::string error;
  EXPECT_FALSE(plan.Check(&error));
  EXPECT_NE(error.find("overlaps"), std::string::npos);
}

TEST(PlanValidator, AcceptsTimeDisjointSharing) {
  StaticPlan plan;
  MemoryEvent a;
  a.id = 0;
  a.size = 512;
  a.ts = 0;
  a.te = 5;
  MemoryEvent b = a;
  b.id = 1;
  b.ts = 5;  // half-open: starts exactly when a ends
  b.te = 10;
  plan.decisions.push_back({a, 0, 512});
  plan.decisions.push_back({b, 0, 512});
  plan.pool_size = 512;
  std::string error;
  EXPECT_TRUE(plan.Check(&error)) << error;
}

TEST(PlanValidator, DetectsPoolOverflow) {
  StaticPlan plan;
  MemoryEvent a;
  a.id = 0;
  a.size = 512;
  a.ts = 0;
  a.te = 5;
  plan.decisions.push_back({a, 1024, 512});
  plan.pool_size = 1024;  // decision ends at 1536 > pool
  std::string error;
  EXPECT_FALSE(plan.Check(&error));
  EXPECT_NE(error.find("beyond pool"), std::string::npos);
}

// The central correctness property: for every model x optimization-tag combination, the
// synthesized plan has no memory stomping and the pool is within a reasonable factor of the
// theoretical lower bound.
struct PlannerCase {
  const char* model;
  const char* tag;
  int rank = 0;
  RecomputeMode recompute_override = RecomputeMode::kNone;  // applied after the tag
  PipelineSchedule schedule = PipelineSchedule::k1F1B;
};

class PlannerPropertyTest : public ::testing::TestWithParam<PlannerCase> {};

TEST_P(PlannerPropertyTest, PlanIsValidAndTight) {
  const auto& p = GetParam();
  TrainConfig base = SmallConfig();
  base.parallel.dp = 2;
  ModelConfig model = ModelByName(p.model);
  if (model.moe.enabled()) {
    base.micro_batch_size = 2;
  }
  TrainConfig c = ApplyConfigTag(base, p.tag);
  c.rank = p.rank;
  if (p.recompute_override != RecomputeMode::kNone) {
    c.opt.recompute = p.recompute_override;
  }
  c.opt.schedule = p.schedule;
  WorkloadBuilder wb(model, c);
  Trace trace = wb.Build(11);
  SynthesisResult r = SynthesizePlan(trace);
  std::string error;
  ASSERT_TRUE(r.plan.Check(&error)) << error;
  EXPECT_GE(r.plan.pool_size, r.plan.lower_bound);
  EXPECT_LE(static_cast<double>(r.plan.pool_size),
            static_cast<double>(r.plan.lower_bound) * 1.35)
      << "pool should stay within 35% of the lower bound";
}

INSTANTIATE_TEST_SUITE_P(
    ModelsByTags, PlannerPropertyTest,
    ::testing::Values(
        PlannerCase{"gpt2", "N"}, PlannerCase{"gpt2", "R"}, PlannerCase{"gpt2", "V"},
        PlannerCase{"gpt2", "VR"}, PlannerCase{"gpt2", "ZR"}, PlannerCase{"gpt2", "ZOR"},
        PlannerCase{"gpt2", "N", 1}, PlannerCase{"gpt2", "VR", 1},
        PlannerCase{"gpt2", "N", 0, RecomputeMode::kSelective},
        PlannerCase{"gpt2", "N", 0, RecomputeMode::kNone, PipelineSchedule::kGPipe},
        PlannerCase{"llama2-7b", "N"}, PlannerCase{"llama2-7b", "R"},
        PlannerCase{"llama2-7b", "R", 1}, PlannerCase{"qwen1.5-moe", "N"},
        PlannerCase{"qwen1.5-moe", "R"}, PlannerCase{"qwen1.5-moe", "R", 1}),
    [](const ::testing::TestParamInfo<PlannerCase>& info) {
      std::string name = std::string(info.param.model).substr(0, 4) + "_" + info.param.tag +
                         "_r" + std::to_string(info.param.rank);
      if (info.param.recompute_override == RecomputeMode::kSelective) {
        name += "_sel";
      }
      if (info.param.schedule == PipelineSchedule::kGPipe) {
        name += "_gpipe";
      }
      return name;
    });

}  // namespace
}  // namespace stalloc
