// AllocatorBase's ledger checks and verify mode (src/common/verify.h): which checks run in
// every build (a live address handed out twice, a free of an unknown address) and which only
// in verify mode (the overlap walk, the post-synthesis plan sweep); that an allocator reads the
// flag once, when it is built; and that verify mode changes no result.

#include <cstdint>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/allocators/allocator.h"
#include "src/allocators/registry.h"
#include "src/common/units.h"
#include "src/common/verify.h"
#include "src/core/compaction.h"
#include "src/core/plan_io.h"
#include "src/core/planner.h"
#include "src/driver/replay.h"
#include "src/gpu/sim_device.h"
#include "src/replay/replay_engine.h"
#include "src/trace/synthetic.h"
#include "src/trainsim/model_config.h"
#include "src/trainsim/workload.h"
#include "tests/support/scoped_verify.h"

namespace stalloc {
namespace {

// Hands out a scripted address sequence, whatever the request size: a stand-in for an
// allocator with a placement bug.
class ScriptedAllocator final : public AllocatorBase {
 public:
  explicit ScriptedAllocator(std::vector<uint64_t> addrs) : addrs_(std::move(addrs)) {}
  std::string_view name() const override { return "scripted"; }
  uint64_t ReservedBytes() const override { return 0; }

 protected:
  std::optional<uint64_t> DoMalloc(uint64_t /*size*/, const RequestContext& /*ctx*/) override {
    if (next_ == addrs_.size()) {
      return std::nullopt;
    }
    return addrs_[next_++];
  }
  void DoFree(uint64_t /*addr*/, uint64_t /*size*/) override {}

 private:
  std::vector<uint64_t> addrs_;
  size_t next_ = 0;
};

TEST(VerifyMode, TestBinariesRunInVerifyMode) {
  EXPECT_TRUE(verify::Enabled()) << "tests/support/verify_on.cc is not linked in";
}

TEST(VerifyMode, OverlapWalkKillsAStompingAllocator) {
  ScopedVerify on(true);
  {
    // The second block starts inside the first.
    ScriptedAllocator alloc({4096, 4096 + 512});
    ASSERT_TRUE(alloc.Malloc(1024).has_value());
    EXPECT_DEATH(alloc.Malloc(1024), "stomped by live block");
  }
  {
    // The second block runs into the first from below.
    ScriptedAllocator alloc({8192, 4096});
    ASSERT_TRUE(alloc.Malloc(1024).has_value());
    EXPECT_DEATH(alloc.Malloc(8192), "stomps on live block at 8192");
  }
}

TEST(VerifyMode, FlagIsReadOnceAtConstruction) {
  std::unique_ptr<ScriptedAllocator> checked;
  std::unique_ptr<ScriptedAllocator> unchecked;
  {
    ScopedVerify on(true);
    checked = std::make_unique<ScriptedAllocator>(std::vector<uint64_t>{4096, 4096 + 512});
  }
  {
    ScopedVerify off(false);
    unchecked = std::make_unique<ScriptedAllocator>(std::vector<uint64_t>{4096, 4096 + 512});
  }
  ScopedVerify on(true);  // flipping the flag later changes neither allocator
  ASSERT_TRUE(checked->Malloc(1024).has_value());
  EXPECT_DEATH(checked->Malloc(1024), "stomped by live block");
  // Without verify mode a partial overlap goes unseen: that is the walk the fast path drops.
  ASSERT_TRUE(unchecked->Malloc(1024).has_value());
  EXPECT_TRUE(unchecked->Malloc(1024).has_value());
}

TEST(VerifyMode, DuplicateAddressDiesWithVerifyOff) {
  ScopedVerify off(false);
  ScriptedAllocator alloc({4096, 4096});
  ASSERT_TRUE(alloc.Malloc(512).has_value());
  EXPECT_DEATH(alloc.Malloc(512), "handed out while still live");
}

TEST(VerifyMode, UnknownFreesFailInBothModes) {
  for (const bool verify : {false, true}) {
    ScopedVerify mode(verify);
    ScriptedAllocator alloc({0, 4096});  // address 0 is a real block
    ASSERT_EQ(alloc.Malloc(512), 0u);
    ASSERT_EQ(alloc.Malloc(512), 4096u);
    EXPECT_TRUE(alloc.Free(0));
    EXPECT_FALSE(alloc.Free(0)) << "double free";
    EXPECT_FALSE(alloc.Free(0xdeadbeef));
    EXPECT_FALSE(alloc.Free(~uint64_t{0}));
    EXPECT_EQ(alloc.stats().num_frees, 1u);
    EXPECT_EQ(alloc.stats().live_blocks, 1u);
    EXPECT_EQ(alloc.stats().allocated_current, 512u);
  }
}

// A synthesized plan with two lifetime-overlapping decisions moved onto one address.
StaticPlan CorruptedPlan() {
  TrainConfig config;
  config.parallel.pp = 2;
  config.num_microbatches = 4;
  config.micro_batch_size = 4;
  StaticPlan plan = SynthesizePlan(WorkloadBuilder(Gpt2_345M(), config).Build(1)).plan;
  const std::vector<PlanDecision>& d = plan.decisions;
  for (size_t i = 0; i + 1 < d.size(); ++i) {
    for (size_t j = i + 1; j < d.size(); ++j) {
      if (d[i].event.ts < d[j].event.te && d[j].event.ts < d[i].event.te &&
          d[i].padded_size == d[j].padded_size && d[i].addr != d[j].addr) {
        plan.decisions[j].addr = d[i].addr;
        return plan;
      }
    }
  }
  ADD_FAILURE() << "no two same-size decisions are live together";
  return plan;
}

TEST(VerifyMode, PostSynthesisSweepKillsACorruptedPlan) {
  const StaticPlan corrupt = CorruptedPlan();
  std::string error;
  ASSERT_FALSE(corrupt.Check(&error));
  {
    ScopedVerify on(true);
    // Zero rounds: compaction hands the plan back as is, through the post-synthesis sweep.
    EXPECT_DEATH(CompactPlan(corrupt, /*max_rounds=*/0), "invalid static plan");
  }
  {
    ScopedVerify off(false);
    EXPECT_FALSE(CompactPlan(corrupt, /*max_rounds=*/0).plan.Check(&error));
    // An external plan is checked in every mode.
    std::stringstream csv;
    WritePlanCsv(corrupt, DynamicReusableSpace{}, csv);
    LoadedPlan loaded;
    PlanIoError err;
    EXPECT_FALSE(ReadPlanCsv(csv, &loaded, &err));
  }
}

// The million-op storm's torch-caching placement digest — the one bench_replay_hot and the
// repository benchmark pin — with the overlap walk on and off.
TEST(VerifyMode, StormDigestIsIdenticalInBothModes) {
  SyntheticSpec spec;
  spec.mix = SyntheticMix::kStorm;
  spec.num_ops = 1000000;
  spec.seed = 42;
  const Trace storm = BuildSyntheticTrace(spec);
  for (const bool verify : {true, false}) {
    ScopedVerify mode(verify);
    SimDevice device(64 * GiB);
    std::unique_ptr<Allocator> alloc =
        AllocatorRegistry::Global().Create("torch-caching", &device);
    PlacementDigestObserver digest;
    ASSERT_FALSE(ReplayTrace(storm, alloc.get(), &digest).oom);
    EXPECT_EQ(digest.digest(), 0x14d0361cebe77331ull) << "verify " << verify;
  }
}

}  // namespace
}  // namespace stalloc
