// Replay-parity contract of the mmap'd columnar trace path: replaying a TraceView must produce
// placement decisions bit-identical to replaying the materialized owned Trace, for every
// registered allocator kind — the guarantee that lets stalloc_run / the benches stream
// million-op traces from disk without materializing them.
//
// Also pins a golden placement digest on a seeded synthetic storm: any change to the replay
// engine, the synthetic generator, or the caching allocator's decisions shows up here as a
// digest change and must be deliberate.

#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "src/allocators/registry.h"
#include "src/core/planner.h"
#include "src/core/profiler.h"
#include "src/core/stalloc_allocator.h"
#include "src/driver/replay.h"
#include "src/gpu/sim_device.h"
#include "src/replay/replay_engine.h"
#include "src/trace/synthetic.h"
#include "src/trace/trace.h"
#include "src/trace/trace_v2.h"
#include "src/trainsim/model_config.h"
#include "src/trainsim/workload.h"
#include "tests/support/trace_digest.h"

namespace stalloc {
namespace {

constexpr uint64_t kCapacity = 64ull * GiB;

uint64_t DigestOwned(const Trace& trace, Allocator* alloc) {
  PlacementDigestObserver obs;
  ReplayTrace(trace, alloc, &obs);
  return obs.digest();
}

uint64_t DigestView(const TraceView& view, Allocator* alloc) {
  PlacementDigestObserver obs;
  ReplayTrace(view, alloc, &obs);
  return obs.digest();
}

// A phased training trace (so the plan-pipeline kinds participate), small enough to keep the
// 7-kind sweep fast.
Trace TrainTrace() {
  TrainConfig config;
  config.parallel.pp = 2;
  config.num_microbatches = 4;
  config.micro_batch_size = 2;
  return WorkloadBuilder(ModelByName("gpt2"), config).Build(3);
}

TEST(TraceViewReplayTest, ViewDecisionsMatchOwnedForEveryAllocator) {
  const Trace trace = TrainTrace();
  const std::string path = ::testing::TempDir() + "/trace_view_parity.stlc";
  ASSERT_TRUE(WriteTraceV2File(trace, path));
  TraceView view;
  TraceIoError err;
  ASSERT_TRUE(view.Open(path, &err)) << err.message;
  ASSERT_EQ(view.num_events(), trace.size());

  for (const std::string& name : AllocatorRegistry::Global().Names()) {
    const AllocatorRegistry::Entry& entry = *AllocatorRegistry::Global().Find(name);
    uint64_t owned_digest = 0;
    uint64_t view_digest = 0;
    if (entry.requires_plan) {
      // One plan from the materialized trace; fresh pools per replay mode.
      ProfileResult profile = ProfileTrace(trace, kCapacity);
      ASSERT_TRUE(profile.feasible) << name;
      SynthesisResult synthesis = SynthesizePlan(profile.trace);
      const STAllocConfig config = STAllocConfigFor(name);
      SimDevice owned_device(kCapacity);
      STAllocAllocator owned_alloc(&owned_device, synthesis.plan, synthesis.dyn_space, config);
      ASSERT_TRUE(owned_alloc.Init()) << name;
      owned_digest = DigestOwned(trace, &owned_alloc);
      SimDevice view_device(kCapacity);
      STAllocAllocator view_alloc(&view_device, synthesis.plan, synthesis.dyn_space, config);
      ASSERT_TRUE(view_alloc.Init()) << name;
      view_digest = DigestView(view, &view_alloc);
    } else {
      SimDevice owned_device(kCapacity);
      std::unique_ptr<Allocator> owned_alloc =
          AllocatorRegistry::Global().Create(name, &owned_device);
      owned_digest = DigestOwned(trace, owned_alloc.get());
      SimDevice view_device(kCapacity);
      std::unique_ptr<Allocator> view_alloc =
          AllocatorRegistry::Global().Create(name, &view_device);
      view_digest = DigestView(view, view_alloc.get());
    }
    EXPECT_NE(owned_digest, 0u) << name;  // the trace is non-trivial; something must be mixed in
    EXPECT_EQ(owned_digest, view_digest) << "owned/view placement divergence under " << name;
  }
  view.Close();
  std::remove(path.c_str());
}

std::string FileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

// The two generator paths — materialize in memory then bulk-write, vs stream events straight
// to disk — must produce byte-identical v2 files for every mix. This is what lets tests and
// docs treat "the 1M-op storm at seed 42" as one artifact regardless of how it was produced.
TEST(TraceViewReplayTest, StreamedGeneratorMatchesMaterializedBytes) {
  for (SyntheticMix mix : {SyntheticMix::kStorm, SyntheticMix::kTraining, SyntheticMix::kServing}) {
    SyntheticSpec spec;
    spec.mix = mix;
    spec.num_ops = 10000;
    spec.seed = 11;
    const std::string streamed = ::testing::TempDir() + "/trace_view_gen_stream.stlc";
    const std::string bulk = ::testing::TempDir() + "/trace_view_gen_bulk.stlc";
    ASSERT_TRUE(GenerateSyntheticV2File(spec, streamed)) << SyntheticMixName(mix);
    ASSERT_TRUE(WriteTraceV2File(BuildSyntheticTrace(spec), bulk)) << SyntheticMixName(mix);
    EXPECT_EQ(FileBytes(streamed), FileBytes(bulk))
        << "generator paths diverged for mix " << SyntheticMixName(mix);
    std::remove(streamed.c_str());
    std::remove(bulk.c_str());
  }
}

// Every synthetic mix, through both the in-memory builder and the streamed v2 writer: the two
// generator paths must describe the same logical trace, and both replay paths must agree on it.
TEST(TraceViewReplayTest, SyntheticMixesReplayIdenticallyFromView) {
  for (SyntheticMix mix : {SyntheticMix::kStorm, SyntheticMix::kTraining, SyntheticMix::kServing}) {
    SyntheticSpec spec;
    spec.mix = mix;
    spec.num_ops = 20000;
    spec.seed = 7;
    const std::string path = ::testing::TempDir() + "/trace_view_mix_" +
                             std::string(SyntheticMixName(mix)) + ".stlc";
    ASSERT_TRUE(GenerateSyntheticV2File(spec, path)) << SyntheticMixName(mix);
    TraceView view;
    TraceIoError err;
    ASSERT_TRUE(view.Open(path, &err)) << SyntheticMixName(mix) << ": " << err.message;
    const Trace trace = BuildSyntheticTrace(spec);
    ASSERT_EQ(view.num_events(), trace.size()) << SyntheticMixName(mix);

    SimDevice owned_device(kCapacity);
    std::unique_ptr<Allocator> owned_alloc =
        AllocatorRegistry::Global().Create("torch-caching", &owned_device);
    const uint64_t owned_digest = DigestOwned(trace, owned_alloc.get());
    SimDevice view_device(kCapacity);
    std::unique_ptr<Allocator> view_alloc =
        AllocatorRegistry::Global().Create("torch-caching", &view_device);
    const uint64_t view_digest = DigestView(view, view_alloc.get());
    EXPECT_EQ(owned_digest, view_digest) << SyntheticMixName(mix);
    view.Close();
    std::remove(path.c_str());
  }
}

// Pinned builder output: every column plus the phase and layer tables of BuildStormTrace and of
// each synthetic mix. These move if a builder renumbers, re-times or re-labels any event.
TEST(TraceViewReplayTest, PinnedBuilderColumnDigests) {
  const Trace storm = BuildStormTrace(10000, 42);
  EXPECT_EQ(TraceColumnsDigest(storm), 0x3251d92f09ca6cabull)
      << "BuildStormTrace(10000, 42): 0x" << std::hex << TraceColumnsDigest(storm);
  const std::pair<SyntheticMix, uint64_t> mixes[] = {
      {SyntheticMix::kStorm, 0x75031c28ffcf614aull},
      {SyntheticMix::kTraining, 0xc1fdcf2808df945aull},
      {SyntheticMix::kServing, 0x24dea3b847fdd2ecull},
  };
  for (const auto& [mix, digest] : mixes) {
    SyntheticSpec spec;
    spec.mix = mix;
    spec.num_ops = 20000;
    spec.seed = 7;
    const Trace trace = BuildSyntheticTrace(spec);
    EXPECT_EQ(TraceColumnsDigest(trace), digest)
        << SyntheticMixName(mix) << ": 0x" << std::hex << TraceColumnsDigest(trace);
  }
}

// Golden digest, pinned: the 100k-op storm at seed 42 through torch-caching. The generator, the
// v2 format, the replay engine, and the caching allocator are all deterministic — if this value
// moves, a behavioral change slipped into one of them. Recompute deliberately (see comment) and
// update the constant only when the change is intended.
TEST(TraceViewReplayTest, PinnedStormPlacementDigest) {
  SyntheticSpec spec;
  spec.mix = SyntheticMix::kStorm;
  spec.num_ops = 100000;
  spec.seed = 42;
  const Trace trace = BuildSyntheticTrace(spec);
  SimDevice device(kCapacity);
  std::unique_ptr<Allocator> alloc = AllocatorRegistry::Global().Create("torch-caching", &device);
  const uint64_t digest = DigestOwned(trace, alloc.get());
  // Recompute: stalloc_trace_gen --ops 100000 --mix storm --seed 42, replay through
  // torch-caching at 64 GiB with PlacementDigestObserver (or just run this test and read the
  // failure message).
  EXPECT_EQ(digest, 0x65ab12902ef7398dull) << "pinned storm digest moved";
}

}  // namespace
}  // namespace stalloc
