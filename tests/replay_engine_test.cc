// Coverage for src/replay/replay_engine.*: the streaming replay core behind ReplayTrace
// (every Session rank, serve and trace-replay run) and the sharded cluster fleet. Exercises
// global (time, source) op ordering, the two OOM reactions (abort the run / park the source),
// tenant-gang unwinding via AbortTenant, bounded stepping and precomputable end times. Requeue
// and rejection live in the fleet and are covered by cluster_test.

#include <cstdint>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/allocators/caching_allocator.h"
#include "src/allocators/native_allocator.h"
#include "src/common/units.h"
#include "src/driver/replay.h"
#include "src/gpu/sim_device.h"
#include "src/replay/replay_engine.h"
#include "src/trace/trace.h"
#include "src/trainsim/model_config.h"
#include "src/trainsim/workload.h"

namespace stalloc {
namespace {

// Builds a trace from (size, ts, te) triples.
Trace MakeTrace(const std::vector<std::tuple<uint64_t, LogicalTime, LogicalTime>>& events) {
  Trace trace;
  for (const auto& [size, ts, te] : events) {
    MemoryEvent e;
    e.size = size;
    e.ts = ts;
    e.te = te;
    trace.AddEvent(e);
  }
  trace.Validate();
  return trace;
}

// Records every op the engine hands to observers, in order.
class OpRecorder : public ReplayObserver {
 public:
  struct Seen {
    size_t source;
    uint64_t time;
    TraceOp::Kind kind;
    uint64_t event_id;
  };
  void BeforeOp(ReplayEngine&, const ReplayOpView& op) override {
    seen.push_back({op.source, op.time, op.kind, op.event_id});
  }
  std::vector<Seen> seen;
};

TEST(ReplayEngine, SingleSourceReplaysOpsInTraceOrder) {
  const Trace trace = MakeTrace({{1 * MiB, 0, 4}, {2 * MiB, 1, 3}, {3 * MiB, 2, 6}});
  SimDevice dev(1 * GiB);
  NativeAllocator alloc(&dev);
  OpRecorder recorder;
  ReplayEngine engine(&recorder);
  ReplaySource src;
  src.trace = trace.Cursor();
  src.alloc = &alloc;
  engine.AddSource(src);
  const ReplayEngineResult& r = engine.Run();

  EXPECT_FALSE(r.oom);
  EXPECT_EQ(r.num_mallocs, 3u);
  EXPECT_EQ(r.num_frees, 3u);
  EXPECT_EQ(r.ops_replayed, 6u);
  EXPECT_EQ(r.end_time, trace.end_time());  // the last free lands at the largest te
  EXPECT_TRUE(engine.progress(0).done);
  EXPECT_EQ(engine.active_sources(), 0u);
  EXPECT_EQ(alloc.stats().allocated_current, 0u);

  // The observed stream is exactly Trace::Ops() — times nondecreasing, frees before mallocs at
  // equal ticks.
  ASSERT_EQ(recorder.seen.size(), trace.Ops().size());
  for (size_t i = 0; i < recorder.seen.size(); ++i) {
    EXPECT_EQ(recorder.seen[i].time, trace.Ops()[i].time) << i;
    EXPECT_EQ(recorder.seen[i].event_id, trace.Ops()[i].event_id) << i;
    EXPECT_EQ(recorder.seen[i].kind == TraceOp::Kind::kMalloc,
              trace.Ops()[i].kind == TraceOp::Kind::kMalloc)
        << i;
  }
}

TEST(ReplayEngine, FreesApplyBeforeMallocsAtTheSameTick) {
  // 6 GiB handed over at tick 5 on an 8 GiB device: only possible if the free lands first.
  const Trace trace = MakeTrace({{6 * GiB, 0, 5}, {6 * GiB, 5, 10}});
  SimDevice dev(8 * GiB);
  NativeAllocator alloc(&dev);
  ReplayEngine engine;
  ReplaySource src;
  src.trace = trace.Cursor();
  src.alloc = &alloc;
  engine.AddSource(src);
  EXPECT_FALSE(engine.Run().oom);
}

TEST(ReplayEngine, MultiSourceOpsInterleaveInGlobalTimeOrder) {
  const Trace a = MakeTrace({{1 * MiB, 0, 8}, {1 * MiB, 4, 6}});
  const Trace b = MakeTrace({{1 * MiB, 1, 3}, {1 * MiB, 5, 7}});
  SimDevice dev(1 * GiB);
  NativeAllocator alloc(&dev);
  OpRecorder recorder;
  ReplayEngine engine(&recorder);
  ReplaySource src;
  src.alloc = &alloc;
  src.trace = a.Cursor();
  src.tenant = 0;
  engine.AddSource(src);
  src.trace = b.Cursor();
  src.tenant = 1;
  src.start = 2;  // b's local ticks shift by +2: ops at 3, 5, 7, 9
  engine.AddSource(src);
  const ReplayEngineResult& r = engine.Run();

  EXPECT_FALSE(r.oom);
  EXPECT_EQ(r.ops_replayed, 8u);
  ASSERT_EQ(recorder.seen.size(), 8u);
  for (size_t i = 1; i < recorder.seen.size(); ++i) {
    const auto& prev = recorder.seen[i - 1];
    const auto& cur = recorder.seen[i];
    // Global (time, source) order: ties broken by source id.
    EXPECT_TRUE(prev.time < cur.time || (prev.time == cur.time && prev.source <= cur.source))
        << "op " << i;
  }
  // Both streams really interleave (source 1 appears between source-0 ops).
  EXPECT_EQ(recorder.seen[0].source, 0u);  // t=0
  EXPECT_EQ(recorder.seen[1].source, 1u);  // t=3
}

TEST(ReplayEngine, IterationsReplayBackToBack) {
  const Trace trace = MakeTrace({{1 * MiB, 0, 2}, {2 * MiB, 1, 3}});
  SimDevice dev(1 * GiB);
  NativeAllocator alloc(&dev);
  ReplayEngine engine;
  ReplaySource src;
  src.trace = trace.Cursor();
  src.alloc = &alloc;
  src.iterations = 3;
  engine.AddSource(src);
  const ReplayEngineResult& r = engine.Run();
  EXPECT_FALSE(r.oom);
  EXPECT_EQ(r.num_mallocs, 6u);
  EXPECT_EQ(r.num_frees, 6u);
  EXPECT_EQ(engine.progress(0).ops_replayed, 12u);
  // Iterations are offset by the trace's end_time: the last free lands at 2*3 + 3.
  EXPECT_EQ(r.end_time, 2 * trace.end_time() + trace.end_time());
}

// The op columns exist only once a trace is sealed, so replaying an unsealed one is a
// programming error, not an empty replay.
TEST(ReplayEngineDeathTest, AddSourceOnUnsealedTraceDies) {
  Trace unsealed;
  MemoryEvent e;
  e.size = 1 * MiB;
  e.ts = 0;
  e.te = 1;
  unsealed.AddEvent(e);
  SimDevice dev(1 * GiB);
  NativeAllocator alloc(&dev);
  EXPECT_DEATH(
      {
        ReplayEngine engine;
        ReplaySource src;
        src.trace = unsealed.Cursor();
        src.alloc = &alloc;
        engine.AddSource(src);
      },
      "not sealed");
}

TEST(ReplayEngine, ZeroOpSourceIsImmediatelyDone) {
  const Trace empty = MakeTrace({});
  SimDevice dev(1 * GiB);
  NativeAllocator alloc(&dev);
  ReplayEngine engine;
  ReplaySource src;
  src.trace = empty.Cursor();
  src.alloc = &alloc;
  const size_t id = engine.AddSource(src);
  EXPECT_TRUE(engine.progress(id).done);
  EXPECT_EQ(engine.active_sources(), 0u);
  EXPECT_FALSE(engine.HasPending());
}

TEST(ReplayEngine, DefaultPolicyAbortsRunOnFirstOomAndUnwinds) {
  const Trace trace = MakeTrace({{6 * GiB, 0, 10}, {6 * GiB, 1, 10}, {1 * MiB, 2, 10}});
  SimDevice dev(8 * GiB);
  NativeAllocator alloc(&dev);
  ReplayEngine engine;
  ReplaySource src;
  src.trace = trace.Cursor();
  src.alloc = &alloc;
  engine.AddSource(src);
  const ReplayEngineResult& r = engine.Run();
  EXPECT_TRUE(r.oom);
  EXPECT_TRUE(r.aborted);
  EXPECT_EQ(r.first_failed_event, 1u);
  EXPECT_EQ(r.oom_events, 1u);
  EXPECT_EQ(r.ops_replayed, 1u);  // the successful first malloc; the failed op does not count
  EXPECT_TRUE(engine.progress(0).aborted);
  // The run's live blocks were released on exit.
  EXPECT_EQ(alloc.stats().allocated_current, 0u);
}

TEST(ReplayEngine, TenantGangUnwindsTogetherOnOneSourceOom) {
  // Two sources form one tenant gang (pipeline ranks). The second parks on its OOM; aborting
  // the tenant then unwinds the first too, which has live memory and no failure of its own.
  // OnSourceAborted must see each source's live bytes before its frees land.
  class ParkAndRecordUnwinds : public ReplayObserver {
   public:
    OomAction OnOom(ReplayEngine&, const ReplayOpView&) override {
      return OomAction::kParkSource;
    }
    void OnSourceAborted(ReplayEngine& engine, size_t source, uint64_t) override {
      unwound.push_back({source, engine.progress(source).live_bytes});
    }
    std::vector<std::pair<size_t, uint64_t>> unwound;  // (source, live bytes at abort)
  };
  const Trace rank0 = MakeTrace({{3 * GiB, 1, 20}});
  const Trace rank1 = MakeTrace({{3 * GiB, 1, 20}, {3 * GiB, 2, 20}, {3 * GiB, 3, 20}});
  SimDevice dev(8 * GiB);
  NativeAllocator alloc(&dev);
  ParkAndRecordUnwinds obs;
  ReplayEngine engine(&obs);
  ReplaySource src;
  src.alloc = &alloc;
  src.tenant = 7;
  src.trace = rank0.Cursor();
  engine.AddSource(src);
  src.trace = rank1.Cursor();
  engine.AddSource(src);
  ASSERT_EQ(engine.tenant_sources(7).size(), 2u);

  engine.StepUntil(10);  // past the OOM at t=2, before rank 0's free at t=20
  const ReplayEngineResult& r = engine.result();
  EXPECT_TRUE(r.oom);
  EXPECT_FALSE(r.aborted);
  EXPECT_EQ(r.first_failed_event, 1u);  // rank 1's second block: 3 + 3 + 3 GiB > 8 GiB
  EXPECT_TRUE(engine.progress(1).parked);
  EXPECT_TRUE(engine.progress(0).active);
  EXPECT_EQ(alloc.stats().allocated_current, 6 * GiB);  // the park unwound nothing

  engine.AbortTenant(7);
  ASSERT_EQ(obs.unwound.size(), 2u);
  EXPECT_EQ(obs.unwound[0], std::make_pair(size_t{0}, uint64_t{3 * GiB}));
  EXPECT_EQ(obs.unwound[1], std::make_pair(size_t{1}, uint64_t{3 * GiB}));
  for (size_t sid : engine.tenant_sources(7)) {
    EXPECT_TRUE(engine.progress(sid).aborted) << sid;
    EXPECT_FALSE(engine.progress(sid).parked) << sid;
    EXPECT_EQ(engine.progress(sid).live_bytes, 0u) << sid;
  }
  EXPECT_EQ(engine.active_sources(), 0u);
  EXPECT_FALSE(engine.HasPending());
  EXPECT_EQ(alloc.stats().allocated_current, 0u);  // every rank's blocks were freed
  EXPECT_EQ(r.num_frees, 0u);                     // unwind frees are not replayed ops
}

TEST(ReplayEngine, ExternallySteppedReplayMatchesRun) {
  const Trace trace = MakeTrace({{1 * MiB, 0, 4}, {2 * MiB, 1, 3}, {3 * MiB, 2, 6}});
  SimDevice dev(1 * GiB);
  NativeAllocator alloc(&dev);
  ReplayEngine engine;
  ReplaySource src;
  src.trace = trace.Cursor();
  src.alloc = &alloc;
  engine.AddSource(src);

  // Drive the engine one op at a time, checking the announced next-op clock.
  uint64_t steps = 0;
  while (engine.HasPending()) {
    const uint64_t next = engine.NextOpTime();
    ASSERT_NE(next, ReplayEngine::kNoPendingOp);
    ASSERT_TRUE(engine.Step());
    EXPECT_EQ(engine.now(), next);
    ++steps;
  }
  EXPECT_EQ(steps, 6u);
  EXPECT_FALSE(engine.Step());
  EXPECT_TRUE(engine.progress(0).done);
  // Run() on a drained engine just finalizes the result.
  EXPECT_EQ(engine.Run().ops_replayed, 6u);
}

// The legacy ReplayTrace wrapper and a hand-driven single-source engine must agree op for op —
// the engine's single-source fast path replays exactly the historical loop.
TEST(ReplayEngine, ReplayTraceWrapperMatchesDirectEngineUse) {
  TrainConfig config;
  config.num_microbatches = 2;
  config.micro_batch_size = 2;
  WorkloadBuilder wb(Gpt2_345M(), config);
  const Trace trace = wb.Build(3);

  SimDevice dev_a(32 * GiB);
  CachingAllocator alloc_a(&dev_a);
  const ReplayResult via_wrapper = ReplayTrace(trace, &alloc_a);

  SimDevice dev_b(32 * GiB);
  CachingAllocator alloc_b(&dev_b);
  ReplayEngine engine;
  ReplaySource src;
  src.trace = trace.Cursor();
  src.alloc = &alloc_b;
  engine.AddSource(src);
  const ReplayEngineResult& direct = engine.Run();

  EXPECT_FALSE(via_wrapper.oom);
  EXPECT_FALSE(direct.oom);
  EXPECT_EQ(via_wrapper.num_mallocs, direct.num_mallocs);
  EXPECT_EQ(via_wrapper.num_frees, direct.num_frees);
  EXPECT_EQ(alloc_a.stats().allocated_peak, alloc_b.stats().allocated_peak);
  EXPECT_EQ(alloc_a.stats().reserved_peak, alloc_b.stats().reserved_peak);
}

// --- the sharded-fleet primitives: park-on-OOM, bounded stepping, precomputable end times ---

TEST(ReplayEngine, ParkSourceHoldsLiveBlocksUntilAbortTenant) {
  class ParkOnOom : public ReplayObserver {
   public:
    OomAction OnOom(ReplayEngine&, const ReplayOpView&) override {
      ++ooms;
      return OomAction::kParkSource;
    }
    int ooms = 0;
  };
  // Source 0 fills the device and then OOMs on a second huge block; source 1 keeps running.
  const Trace big = MakeTrace({{700 * MiB, 0, 20}, {700 * MiB, 5, 20}});
  const Trace small = MakeTrace({{1 * MiB, 0, 2}, {1 * MiB, 4, 8}});
  SimDevice dev(1 * GiB);
  NativeAllocator alloc(&dev);
  SimDevice dev2(1 * GiB);
  NativeAllocator alloc2(&dev2);
  ParkOnOom obs;
  ReplayEngine engine(&obs);
  ReplaySource a;
  a.trace = big.Cursor();
  a.alloc = &alloc;
  engine.AddSource(a);
  ReplaySource b;
  b.trace = small.Cursor();
  b.alloc = &alloc2;
  engine.AddSource(b);

  // Step to the failing malloc at tick 5.
  engine.StepUntil(6);
  EXPECT_EQ(obs.ooms, 1);
  // Parked: descheduled but NOT unwound — the first block is still live, the cursor parked on
  // the failing op, and only source 1 counts as active.
  EXPECT_TRUE(engine.progress(0).parked);
  EXPECT_FALSE(engine.progress(0).active);
  EXPECT_FALSE(engine.progress(0).done);
  EXPECT_EQ(alloc.stats().allocated_current, 700 * MiB);
  EXPECT_EQ(engine.active_sources(), 1u);
  // The parked source contributes no pending op; the engine would drain source 1 and stop.
  engine.StepUntil(ReplayEngine::kNoPendingOp);
  EXPECT_FALSE(engine.HasPending());
  EXPECT_EQ(alloc.stats().allocated_current, 700 * MiB);  // still held across the window

  // The deferred unwind: AbortTenant frees the parked source's live blocks.
  engine.AbortTenant(engine.source(0).tenant);
  EXPECT_FALSE(engine.progress(0).parked);
  EXPECT_EQ(alloc.stats().allocated_current, 0u);
  // Unwind frees hit the allocator but are not replayed ops.
  EXPECT_EQ(alloc.stats().num_frees, 1u);
  EXPECT_EQ(engine.result().num_frees, 2u);  // only source 1's two replayed frees
}

TEST(ReplayEngine, RunCleanupUnwindsForgottenParkedSources) {
  class ParkOnOom : public ReplayObserver {
   public:
    OomAction OnOom(ReplayEngine&, const ReplayOpView&) override {
      return OomAction::kParkSource;
    }
  };
  const Trace big = MakeTrace({{700 * MiB, 0, 20}, {700 * MiB, 5, 20}});
  SimDevice dev(1 * GiB);
  NativeAllocator alloc(&dev);
  ParkOnOom obs;
  ReplayEngine engine(&obs);
  ReplaySource src;
  src.trace = big.Cursor();
  src.alloc = &alloc;
  engine.AddSource(src);
  engine.Run();  // a coordinator that never aborts: final cleanup must not leak the blocks
  EXPECT_EQ(alloc.stats().allocated_current, 0u);
  EXPECT_FALSE(engine.progress(0).parked);
}

TEST(ReplayEngine, StepUntilHonorsTheExclusiveHorizon) {
  const Trace trace = MakeTrace({{1 * MiB, 0, 10}, {1 * MiB, 5, 10}, {1 * MiB, 7, 12}});
  SimDevice dev(1 * GiB);
  NativeAllocator alloc(&dev);
  OpRecorder recorder;
  ReplayEngine engine(&recorder);
  ReplaySource src;
  src.trace = trace.Cursor();
  src.alloc = &alloc;
  engine.AddSource(src);

  engine.StepUntil(5);  // ops at tick 5 are OUTSIDE a horizon of 5
  ASSERT_EQ(recorder.seen.size(), 1u);
  EXPECT_EQ(recorder.seen[0].time, 0u);
  EXPECT_EQ(engine.NextOpTime(), 5u);

  engine.StepUntil(8);  // picks up ticks 5 and 7
  ASSERT_EQ(recorder.seen.size(), 3u);
  EXPECT_EQ(recorder.seen.back().time, 7u);

  engine.StepUntil(ReplayEngine::kNoPendingOp);  // drains the rest
  EXPECT_FALSE(engine.HasPending());
  EXPECT_TRUE(engine.progress(0).done);
  EXPECT_EQ(alloc.stats().allocated_current, 0u);
}

TEST(ReplayEngine, SourceEndTimePredictsTheFinalOpTick) {
  const Trace trace = MakeTrace({{1 * MiB, 2, 9}, {2 * MiB, 4, 6}});
  SimDevice dev(1 * GiB);
  NativeAllocator alloc(&dev);
  ReplayEngine engine(nullptr);
  ReplaySource one;
  one.trace = trace.Cursor();
  one.alloc = &alloc;
  one.start = 100;
  engine.AddSource(one);
  ReplaySource three = one;
  three.start = 0;
  three.iterations = 3;
  three.period = 50;
  engine.AddSource(three);

  // Single iteration: start + last op offset. Three iterations: start of the last iteration
  // plus the same offset.
  EXPECT_EQ(engine.SourceEndTime(0), 100u + trace.end_time());
  EXPECT_EQ(engine.SourceEndTime(1), 2u * 50u + trace.end_time());
  EXPECT_EQ(engine.MinActiveEndTime(), engine.SourceEndTime(0));

  // The prediction is exact: the engine's last replayed op lands on max SourceEndTime.
  const uint64_t predicted_last =
      std::max(engine.SourceEndTime(0), engine.SourceEndTime(1));
  OpRecorder recorder;
  ReplayEngine replay(&recorder);
  replay.AddSource(one);
  replay.AddSource(three);
  replay.Run();
  EXPECT_EQ(recorder.seen.back().time, predicted_last);
  // Nothing active once drained.
  EXPECT_EQ(replay.MinActiveEndTime(), ReplayEngine::kNoPendingOp);
}

}  // namespace
}  // namespace stalloc
