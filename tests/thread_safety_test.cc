// Thread-safety coverage for the fleet's concurrency model. The invariant is device
// confinement, not locking: the worker thread stepping a device owns its allocator, replay
// engine and observer outright between scheduler boundaries, so AllocatorBase's unguarded
// counters and ReplayObserver callbacks are safe exactly because no two threads ever touch the
// same device. These tests drive that model hard — per-shard replay over a WorkerPool, full
// RunCluster calls racing each other — and are the payload of the STALLOC_SANITIZE=thread CI
// job: any cross-thread leak between devices shows up as a TSan report here.

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/allocators/caching_allocator.h"
#include "src/cluster/cluster_workload.h"
#include "src/cluster/fleet.h"
#include "src/common/units.h"
#include "src/common/worker_pool.h"
#include "src/gpu/sim_device.h"
#include "src/replay/replay_engine.h"
#include "src/trace/trace.h"

namespace stalloc {
namespace {

Trace MakeChurnTrace(int blocks, uint64_t size) {
  Trace trace;
  for (int i = 0; i < blocks; ++i) {
    MemoryEvent e;
    e.size = size + static_cast<uint64_t>(i % 7) * KiB;  // mixed sizes churn the cache
    e.ts = static_cast<LogicalTime>(i);
    e.te = static_cast<LogicalTime>(i + 3);
    trace.AddEvent(e);
  }
  trace.Validate();
  return trace;
}

// Counts replay-observer callbacks and cross-checks them against AllocatorStats afterwards.
class CountingObserver final : public ReplayObserver {
 public:
  void AfterMalloc(ReplayEngine&, const ReplayOpView& op, uint64_t) override {
    ++mallocs;
    malloc_bytes += op.size;
  }
  void AfterFree(ReplayEngine&, const ReplayOpView& op, uint64_t) override {
    ++frees;
    free_bytes += op.size;
  }
  OomAction OnOom(ReplayEngine&, const ReplayOpView&) override {
    ++ooms;
    return OomAction::kAbortRun;
  }

  uint64_t mallocs = 0, frees = 0, ooms = 0;
  uint64_t malloc_bytes = 0, free_bytes = 0;
};

// One shard's worth of state, owned by whichever pool thread picks it up.
struct ShardFixture {
  explicit ShardFixture(uint64_t capacity) : device(capacity), alloc(&device) {}
  SimDevice device;
  CachingAllocator alloc;
  CountingObserver observer;
  Trace trace;
  ReplayEngineResult result;

  void Replay() {
    ReplayEngine engine(&observer);
    ReplaySource src;
    src.trace = trace.Cursor();
    src.alloc = &alloc;
    engine.AddSource(src);
    result = engine.Run();
  }
};

// The production access pattern: N shards replayed concurrently over a WorkerPool, each with its
// own replay observer. Everything is shard-local; stats and observer counts must come out exact.
TEST(ThreadSafety, StatsAndObserversUnderConcurrentPerShardReplay) {
  constexpr int kShards = 8;
  constexpr int kBlocks = 400;
  std::vector<std::unique_ptr<ShardFixture>> shards;
  for (int s = 0; s < kShards; ++s) {
    shards.push_back(std::make_unique<ShardFixture>(1 * GiB));
    shards.back()->trace = MakeChurnTrace(kBlocks, (1 + s) * MiB);
  }

  WorkerPool pool(4);
  pool.ParallelFor(shards.size(), [&](size_t s) { shards[s]->Replay(); });

  for (int s = 0; s < kShards; ++s) {
    const ShardFixture& shard = *shards[s];
    const AllocatorStats& stats = shard.alloc.stats();
    EXPECT_FALSE(shard.result.oom) << s;
    EXPECT_EQ(stats.num_mallocs, static_cast<uint64_t>(kBlocks)) << s;
    EXPECT_EQ(stats.num_frees, static_cast<uint64_t>(kBlocks)) << s;
    EXPECT_EQ(stats.allocated_current, 0u) << s;
    // The observer saw exactly what the stats counted — same thread, same shard, no races.
    EXPECT_EQ(shard.observer.mallocs, stats.num_mallocs) << s;
    EXPECT_EQ(shard.observer.frees, stats.num_frees) << s;
    EXPECT_EQ(shard.observer.malloc_bytes, stats.bytes_allocated_total) << s;
    EXPECT_EQ(shard.observer.free_bytes, stats.bytes_freed_total) << s;
  }
}

// OOM callbacks stay shard-confined too: every shard's allocator is driven into failure
// concurrently and each observer must count only its own shard's failed mallocs.
TEST(ThreadSafety, OomCallbacksStayShardConfined) {
  constexpr int kShards = 6;
  std::vector<std::unique_ptr<ShardFixture>> shards;
  for (int s = 0; s < kShards; ++s) {
    shards.push_back(std::make_unique<ShardFixture>(8 * MiB));  // far too small for the trace
    shards.back()->trace = MakeChurnTrace(64, 1 * MiB);
  }
  WorkerPool pool(3);
  pool.ParallelFor(shards.size(), [&](size_t s) { shards[s]->Replay(); });
  for (int s = 0; s < kShards; ++s) {
    EXPECT_TRUE(shards[s]->result.oom) << s;
    EXPECT_EQ(shards[s]->observer.ooms, shards[s]->alloc.stats().num_oom) << s;
    EXPECT_GT(shards[s]->observer.ooms, 0u) << s;
  }
}

// WorkerPool reuse: back-to-back ParallelFor batches from one pool must not leak work between
// generations. Each batch's indices are claimed exactly once.
TEST(ThreadSafety, WorkerPoolBatchesAreExactlyOnce) {
  WorkerPool pool(5);
  for (int batch = 0; batch < 20; ++batch) {
    const size_t n = 1 + static_cast<size_t>(batch * 7 % 41);
    std::vector<std::atomic<int>> hits(n);
    for (auto& h : hits) h.store(0);
    pool.ParallelFor(n, [&](size_t i) { hits[i].fetch_add(1); });
    for (size_t i = 0; i < n; ++i) {
      ASSERT_EQ(hits[i].load(), 1) << "batch " << batch << " index " << i;
    }
  }
}

// Whole sharded-cluster runs racing each other: RunCluster holds no global mutable state, so
// concurrent invocations (each itself multi-threaded) must neither race nor diverge.
TEST(ThreadSafety, ConcurrentRunClusterInvocationsAgree) {
  ClusterWorkloadConfig wl;
  wl.num_jobs = 5;
  wl.train_fraction = 0.5;
  wl.mean_interarrival = 600;
  wl.micro_batches = {1, 2};
  wl.num_microbatches = 2;
  wl.max_pp = 2;
  wl.min_iterations = 1;
  wl.max_iterations = 1;
  wl.serve_requests = 10;
  wl.kv_budget_bytes = 1 * GiB;
  const auto jobs = GenerateClusterWorkload(wl, 31);

  FleetConfig fleet;
  fleet.device_capacities = {16 * GiB, 16 * GiB};
  fleet.policy = SchedulerPolicy::kFirstFit;
  fleet.allocator = "torch-caching";
  fleet.workers = 2;

  constexpr int kRacers = 4;
  std::vector<std::string> digests(kRacers);
  std::vector<std::thread> racers;
  for (int t = 0; t < kRacers; ++t) {
    racers.emplace_back([&, t] { digests[t] = RunCluster(fleet, jobs).Digest(); });
  }
  for (std::thread& t : racers) t.join();
  for (int t = 1; t < kRacers; ++t) {
    EXPECT_EQ(digests[t], digests[0]) << t;
  }
}

}  // namespace
}  // namespace stalloc
