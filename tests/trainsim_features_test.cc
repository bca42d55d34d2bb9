// Tests for the optional trainsim features: selective recomputation, the GPipe schedule, and
// the configuration tag machinery.

#include <gtest/gtest.h>

#include <cstdint>

#include "src/trace/trace_stats.h"
#include "src/trainsim/model_config.h"
#include "src/trainsim/schedule.h"
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

TEST(SelectiveRecompute, PeakBetweenNoneAndFull) {
  TrainConfig none = SmallConfig();
  TrainConfig sel = SmallConfig();
  sel.opt.recompute = RecomputeMode::kSelective;
  TrainConfig full = SmallConfig();
  full.opt.recompute = RecomputeMode::kFull;

  const uint64_t p_none = PeakAllocated(WorkloadBuilder(Gpt2_345M(), none).Build(1));
  const uint64_t p_sel = PeakAllocated(WorkloadBuilder(Gpt2_345M(), sel).Build(1));
  const uint64_t p_full = PeakAllocated(WorkloadBuilder(Gpt2_345M(), full).Build(1));
  EXPECT_LT(p_full, p_sel);
  EXPECT_LT(p_sel, p_none);
}

TEST(SelectiveRecompute, TraceValidAndBalanced) {
  TrainConfig c = SmallConfig();
  c.opt.recompute = RecomputeMode::kSelective;
  Trace t = WorkloadBuilder(Llama2_7B(), c).Build(1);
  t.Validate();
  auto curve = LiveBytesCurve(t);
  EXPECT_EQ(curve.back().second, 0u);
}

TEST(GPipeSchedule, AllForwardsThenAllBackwards) {
  auto steps = BuildGPipeSchedule(4);
  ASSERT_EQ(steps.size(), 8u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(steps[static_cast<size_t>(i)].kind, ScheduleStep::Kind::kForward);
    EXPECT_EQ(steps[static_cast<size_t>(i)].microbatch, i);
  }
  // Backwards in reverse microbatch order (LIFO frees, Fig. 4).
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(steps[static_cast<size_t>(4 + i)].kind, ScheduleStep::Kind::kBackward);
    EXPECT_EQ(steps[static_cast<size_t>(4 + i)].microbatch, 3 - i);
  }
  ValidateSchedule(steps, 4, 1);
  EXPECT_EQ(PeakInFlight(steps), 4);
}

TEST(GPipeSchedule, PeakExceeds1F1B) {
  TrainConfig pipe = SmallConfig();
  TrainConfig gpipe = SmallConfig();
  gpipe.opt.schedule = PipelineSchedule::kGPipe;
  const uint64_t p_1f1b = PeakAllocated(WorkloadBuilder(Gpt2_345M(), pipe).Build(1));
  const uint64_t p_gpipe = PeakAllocated(WorkloadBuilder(Gpt2_345M(), gpipe).Build(1));
  EXPECT_GT(p_gpipe, p_1f1b) << "GPipe holds all microbatches' activations simultaneously";
}

TEST(GPipeSchedule, TraceValid) {
  TrainConfig c = SmallConfig();
  c.opt.schedule = PipelineSchedule::kGPipe;
  Trace t = WorkloadBuilder(Gpt2_345M(), c).Build(1);
  t.Validate();
}

TEST(ConfigTags, ComposeAndReset) {
  TrainConfig base;
  base.parallel.pp = 2;
  TrainConfig zor = ApplyConfigTag(base, "ZOR");
  EXPECT_EQ(zor.opt.zero, ZeroStage::kStage1);
  EXPECT_TRUE(zor.opt.offload);
  EXPECT_EQ(zor.opt.recompute, RecomputeMode::kFull);
  EXPECT_EQ(zor.parallel.vpp_chunks, 1);

  TrainConfig v = ApplyConfigTag(zor, "V");
  EXPECT_EQ(v.opt.zero, ZeroStage::kNone);  // tags fully reset the optimization config
  EXPECT_FALSE(v.opt.offload);
  EXPECT_EQ(v.parallel.vpp_chunks, 2);

  EXPECT_EQ(ApplyConfigTag(v, "N").parallel.vpp_chunks, 1);
}

TEST(ConfigTags, TagRoundtripString) {
  OptimizationConfig opt;
  EXPECT_EQ(opt.Tag(), "N");
  opt.recompute = RecomputeMode::kFull;
  EXPECT_EQ(opt.Tag(), "R");
  opt.zero = ZeroStage::kStage1;
  EXPECT_EQ(opt.Tag(), "ZR");
  opt.offload = true;
  EXPECT_EQ(opt.Tag(), "ZOR");
}

TEST(ZeroStages, ProgressivelyShrinkPersistentMemory) {
  TrainConfig base = SmallConfig();
  base.parallel.dp = 4;
  uint64_t prev = ~uint64_t{0};
  for (ZeroStage stage : {ZeroStage::kNone, ZeroStage::kStage1, ZeroStage::kStage2,
                          ZeroStage::kStage3}) {
    TrainConfig c = base;
    c.opt.zero = stage;
    Trace t = WorkloadBuilder(Gpt2_345M(), c).Build(1);
    uint64_t persistent = 0;
    for (uint64_t id = 0; id < t.size(); ++id) {
      const MemoryEvent e = t.Event(id);
      if (t.Classify(e) == LifespanClass::kPersistent) {
        persistent += e.size;
      }
    }
    EXPECT_LT(persistent, prev) << "stage " << static_cast<int>(stage);
    prev = persistent;
  }
}

}  // namespace
}  // namespace stalloc
