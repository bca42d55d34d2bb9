// Differential test of the profiler's one-pass first-fit sweep against a replay of the same trace
// through NativeAllocator on a SimDevice, the path the profiler used to take. Every
// ProfileResult field except the host wall time must match bit for bit: the feasibility verdict,
// the peak, the native API call count and the modelled API cost.

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "src/allocators/native_allocator.h"
#include "src/common/units.h"
#include "src/core/profiler.h"
#include "src/gpu/sim_device.h"
#include "src/servesim/engine.h"
#include "src/servesim/request_gen.h"
#include "src/trace/trace_stats.h"
#include "src/trainsim/model_config.h"
#include "src/trainsim/train_config.h"
#include "src/trainsim/workload.h"

namespace stalloc {
namespace {

// ---- The reference: replay under the native allocator ------------------------------------

ProfileResult RefProfileTrace(const Trace& trace, uint64_t capacity_bytes) {
  ProfileResult result;
  SimDevice device(capacity_bytes);
  NativeAllocator native(&device);
  std::unordered_map<uint64_t, uint64_t> addr_of;  // event id -> address
  result.feasible = true;
  const TraceCursor c = trace.Cursor();
  for (uint64_t i = 0; i < c.num_ops(); ++i) {
    const uint64_t id = c.OpEventId(i);
    if (!c.OpIsFree(i)) {
      RequestContext ctx;
      ctx.dyn = c.EventDyn(id);
      ctx.layer = c.EventLs(id);
      ctx.phase = c.EventPs(id);
      ctx.stream = c.EventStream(id);
      auto addr = native.Malloc(c.EventSize(id), ctx);
      if (!addr.has_value()) {
        result.feasible = false;
        break;
      }
      addr_of.emplace(id, *addr);
    } else {
      auto it = addr_of.find(id);
      if (it != addr_of.end()) {
        native.Free(it->second);
        addr_of.erase(it);
      }
    }
  }
  result.peak_allocated = PeakAllocated(trace);
  result.native_api_calls = device.counters().cuda_malloc + device.counters().cuda_free;
  result.native_api_cost_us = device.counters().total_cost_us;
  return result;
}

uint64_t Bits(double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

// Profiles `trace` both ways and expects every field to agree; returns the sweep's result.
ProfileResult ExpectSameProfile(const Trace& trace, uint64_t capacity_bytes) {
  const ProfileResult want = RefProfileTrace(trace, capacity_bytes);
  ProfileResult got = ProfileTrace(Trace(trace), capacity_bytes);
  EXPECT_EQ(got.feasible, want.feasible);
  EXPECT_EQ(got.peak_allocated, want.peak_allocated);
  EXPECT_EQ(got.native_api_calls, want.native_api_calls);
  EXPECT_EQ(Bits(got.native_api_cost_us), Bits(want.native_api_cost_us));
  EXPECT_EQ(got.trace.size(), trace.size());
  return got;
}

// ---- Fig. 8 and serving traces ------------------------------------------------------------

// The 36 Fig. 8 profile traces: {gpt2, llama2-7b, qwen1.5-moe} x {N, R, V, VR, ZR, ZOR} x ranks
// {0, pp-1}, 8 microbatches, profile seed 1001.
std::vector<Trace> Fig8ProfileTraces() {
  struct ModelSetup {
    const char* model;
    ParallelConfig parallel;
    uint64_t micro_batch;
  };
  const ModelSetup setups[] = {
      {"gpt2", {/*tp=*/1, /*pp=*/2, /*dp=*/4, /*ep=*/1, /*vpp=*/1}, 64},
      {"llama2-7b", {/*tp=*/2, /*pp=*/2, /*dp=*/2, /*ep=*/1, /*vpp=*/1}, 4},
      {"qwen1.5-moe", {/*tp=*/1, /*pp=*/2, /*dp=*/4, /*ep=*/4, /*vpp=*/1}, 8},
  };
  std::vector<Trace> traces;
  for (const ModelSetup& setup : setups) {
    TrainConfig base;
    base.parallel = setup.parallel;
    base.num_microbatches = 8;
    for (const char* tag : {"N", "R", "V", "VR", "ZR", "ZOR"}) {
      for (int rank : {0, setup.parallel.pp - 1}) {
        TrainConfig train = ApplyConfigTag(base, tag);
        train.micro_batch_size = setup.micro_batch;
        train.rank = rank;
        traces.push_back(WorkloadBuilder(ModelByName(setup.model), train).Build(1001));
      }
    }
  }
  return traces;
}

TEST(ProfilerDiff, Fig8TracesMatchTheNativeReplay) {
  const std::vector<Trace> traces = Fig8ProfileTraces();
  ASSERT_EQ(traces.size(), 36u);
  int feasible_80g = 0;
  int infeasible_20g = 0;
  for (size_t i = 0; i < traces.size(); ++i) {
    SCOPED_TRACE(testing::Message() << "cell " << i);
    feasible_80g += ExpectSameProfile(traces[i], 80 * GiB).feasible ? 1 : 0;
    infeasible_20g += ExpectSameProfile(traces[i], 20 * GiB).feasible ? 0 : 1;
  }
  EXPECT_EQ(feasible_80g, 36);
  EXPECT_EQ(infeasible_20g, 28);
}

TEST(ProfilerDiff, ServeTraceMatchesTheNativeReplay) {
  ServeScenario scenario = ScenarioByName(ScenarioNames().front());
  scenario.num_requests = std::min<uint32_t>(scenario.num_requests, 32);
  const Trace trace = BuildServeTrace(ModelByName("gpt2"), scenario, EngineConfig{}, 7).trace;
  ASSERT_GT(trace.size(), 0u);
  EXPECT_TRUE(ExpectSameProfile(trace, 80 * GiB).feasible);
  // Half the peak cannot hold it: the sweep must stop at the same request.
  EXPECT_FALSE(ExpectSameProfile(trace, PeakAllocated(trace) / 2).feasible);
}

// ---- Hand-made traces ---------------------------------------------------------------------

// Events as (size, ts, te).
Trace HandTrace(const std::vector<std::vector<uint64_t>>& rows) {
  Trace t;
  for (const auto& r : rows) {
    MemoryEvent e;
    e.size = r[0];
    e.ts = r[1];
    e.te = r[2];
    t.AddEvent(e);
  }
  t.Validate();
  return t;
}

TEST(ProfilerDiff, RequestLargerThanCapacity) {
  // The second request exceeds the device: one failing cudaMalloc ends the sweep, and the free
  // of the first request is never reached.
  const Trace t = HandTrace({{1 * MiB, 0, 4}, {32 * MiB, 1, 3}, {1 * MiB, 2, 5}});
  const ProfileResult r = ExpectSameProfile(t, 16 * MiB);
  EXPECT_FALSE(r.feasible);
  EXPECT_EQ(r.native_api_calls, 2u);
  EXPECT_EQ(r.native_api_cost_us, 2 * DeviceCostModel{}.cuda_malloc_us);
}

TEST(ProfilerDiff, RequestAboveTheAllocatorLimitNeverReachesTheDevice) {
  const Trace t = HandTrace({{1 * MiB, 0, 2}, {kMaxRequestSize + 1, 1, 3}});
  const ProfileResult r = ExpectSameProfile(t, 16 * MiB);
  EXPECT_FALSE(r.feasible);
  EXPECT_EQ(r.native_api_calls, 1u);
}

TEST(ProfilerDiff, FragmentationAloneCausesTheOom) {
  // Four 1 MiB blocks fill a 4 MiB device; the first and third are freed, leaving 2 MiB free in
  // two separate holes. A 2 MiB request then fails with live bytes (2 MiB) below capacity, so
  // the iteration's peak fits the device and only the placement refuses it.
  const Trace t = HandTrace({{1 * MiB, 0, 4},
                             {1 * MiB, 1, 10},
                             {1 * MiB, 2, 5},
                             {1 * MiB, 3, 10},
                             {2 * MiB, 6, 8}});
  const ProfileResult r = ExpectSameProfile(t, 4 * MiB);
  EXPECT_FALSE(r.feasible);
  EXPECT_EQ(r.peak_allocated, 4 * MiB);
  // Five cudaMallocs (the failing one included) and two cudaFrees.
  EXPECT_EQ(r.native_api_calls, 7u);
  const DeviceCostModel cost;
  EXPECT_EQ(r.native_api_cost_us, 5 * cost.cuda_malloc_us + 2 * cost.cuda_free_us);
}

TEST(ProfilerDiff, UnalignedSizesRoundToTheMallocAlignment) {
  // 1000-byte requests take 1024 bytes each: three fit in 3 KiB, a fourth does not.
  const Trace fits = HandTrace({{1000, 0, 5}, {1000, 1, 5}, {1000, 2, 5}});
  EXPECT_TRUE(ExpectSameProfile(fits, 3 * KiB).feasible);
  const Trace over = HandTrace({{1000, 0, 5}, {1000, 1, 5}, {1000, 2, 5}, {1000, 3, 5}});
  EXPECT_FALSE(ExpectSameProfile(over, 3 * KiB).feasible);
}

}  // namespace
}  // namespace stalloc
