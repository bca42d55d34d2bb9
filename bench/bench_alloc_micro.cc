// Microbenchmarks (google-benchmark): host-side hot-path latency of every allocator's
// malloc/free pair. Supports the paper's "negligible overhead" claim for STAlloc (§9.3): the
// static allocator serves pre-planned addresses with an O(1) lookup and no device API calls,
// while the baselines search block pools or touch VMM state.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "src/allocators/caching_allocator.h"
#include "src/allocators/expandable_segments.h"
#include "src/allocators/gmlake.h"
#include "src/allocators/native_allocator.h"
#include "src/common/rng.h"
#include "src/common/units.h"
#include "src/core/planner.h"
#include "src/core/profiler.h"
#include "src/core/stalloc_allocator.h"
#include "src/driver/replay.h"
#include "src/interval/first_fit_index.h"
#include "src/trainsim/model_config.h"
#include "src/trainsim/train_config.h"
#include "src/trainsim/workload.h"

namespace stalloc {
namespace {

constexpr uint64_t kCapacity = 64 * GiB;

// Alternating-lifetime malloc/free storm (the caching-allocator stress pattern).
template <typename AllocT>
void StormBody(benchmark::State& state, AllocT& alloc) {
  std::vector<uint64_t> live;
  uint64_t i = 0;
  for (auto _ : state) {
    const uint64_t size = (i % 7 + 1) * 512 * KiB;
    auto addr = alloc.Malloc(size);
    if (addr.has_value()) {
      live.push_back(*addr);
    }
    if (live.size() > 64) {
      alloc.Free(live[i % live.size()]);
      live[i % live.size()] = live.back();
      live.pop_back();
    }
    ++i;
  }
  for (auto a : live) {
    alloc.Free(a);
  }
}

void BM_CachingAllocator(benchmark::State& state) {
  SimDevice dev(kCapacity);
  CachingAllocator alloc(&dev);
  StormBody(state, alloc);
}
BENCHMARK(BM_CachingAllocator);

void BM_ExpandableSegments(benchmark::State& state) {
  SimDevice dev(kCapacity);
  ExpandableSegmentsAllocator alloc(&dev);
  StormBody(state, alloc);
}
BENCHMARK(BM_ExpandableSegments);

void BM_GMLake(benchmark::State& state) {
  SimDevice dev(kCapacity);
  GMLakeAllocator alloc(&dev);
  StormBody(state, alloc);
}
BENCHMARK(BM_GMLake);

void BM_Native(benchmark::State& state) {
  SimDevice dev(kCapacity);
  NativeAllocator alloc(&dev);
  StormBody(state, alloc);
}
BENCHMARK(BM_Native);

// SimDevice's first-fit arena index holding range(0) free ranges, 512 B to 32 KiB long with
// 512 B gaps, below one 1 GiB free tail (a fragmented cudaMalloc arena). Each iteration takes a
// request and frees it again, so the index is the same before every take. range(1): 0 = a
// random size up to 32 KiB (the first fit lies among the lowest ranges), 1 = 32.5 KiB, which
// only the tail fits (the search passes every other range).
void BM_FirstFitIndexTake(benchmark::State& state) {
  const auto num_ranges = static_cast<uint64_t>(state.range(0));
  const bool deep = state.range(1) == 1;
  FirstFitIndex index;
  Rng rng(11);
  uint64_t lo = 0;
  for (uint64_t k = 0; k < num_ranges; ++k) {
    const uint64_t length = rng.NextInRange(1, 64) * 512;
    index.Insert(lo, lo + length);
    lo += length + 512;
  }
  index.Insert(lo, lo + GiB);
  std::vector<uint64_t> sizes(4096);
  for (uint64_t& size : sizes) {
    size = deep ? 65 * 512 : rng.NextInRange(1, 64) * 512;
  }
  size_t i = 0;
  for (auto _ : state) {
    const uint64_t size = sizes[i++ & (sizes.size() - 1)];
    const std::optional<uint64_t> addr = index.TakeFirstFit(size);
    benchmark::DoNotOptimize(addr);
    index.Insert(*addr, *addr + size);
  }
}
BENCHMARK(BM_FirstFitIndexTake)
    ->ArgsProduct({{1000, 100000}, {0, 1}})
    ->ArgNames({"ranges", "deep"});

// STAlloc hot path: replay a planned iteration; each benchmark iteration is one malloc+free of
// a planned request served from the static pool.
void BM_STAllocStaticPath(benchmark::State& state) {
  TrainConfig config;
  config.parallel.pp = 2;
  config.num_microbatches = 4;
  config.micro_batch_size = 4;
  WorkloadBuilder wb(Gpt2_345M(), config);
  ProfileResult profile = ProfileWorkload(wb, kCapacity, 1);
  SynthesisResult synthesis = SynthesizePlan(profile.trace);
  SimDevice dev(kCapacity);
  STAllocAllocator alloc(&dev, synthesis.plan, synthesis.dyn_space);
  if (!alloc.Init()) {
    state.SkipWithError("pool init failed");
    return;
  }
  // Serve the first planned decision over and over (alloc, free, reset).
  const uint64_t size = synthesis.plan.decisions.front().event.size;
  for (auto _ : state) {
    auto addr = alloc.Malloc(size);
    benchmark::DoNotOptimize(addr);
    if (addr.has_value()) {
      alloc.Free(*addr);
    }
    alloc.EndIteration();
  }
}
BENCHMARK(BM_STAllocStaticPath);

// STAlloc's dynamic path (§6.2): a Fig. 8 qwen1.5-moe cell (tp1/pp2/dp4/ep4, 8 microbatches of
// 8, config N, 80 GiB), profiled and planned at seed 1001, replays its seed-2002 iteration
// through a fresh STAllocAllocator per benchmark iteration. Four in five of its 12.4k mallocs
// are dynamic: each runs the (ls, le) group lookup and the Eq. 7 best fit over the pool's free
// ranges, and about a quarter of them are served there (reuse_hits); the rest fall back to the
// caching pool. Reported per replayed op (mallocs and frees).
void BM_STAllocDynamicPath(benchmark::State& state) {
  TrainConfig config;
  config.parallel = {/*tp=*/1, /*pp=*/2, /*dp=*/4, /*ep=*/4, /*vpp=*/1};
  config.num_microbatches = 8;
  config = ApplyConfigTag(config, "N");
  config.micro_batch_size = 8;
  const WorkloadBuilder wb(Qwen15_MoE_A27B(), config);
  const ProfileResult profile = ProfileWorkload(wb, 80 * GiB, /*iteration_seed=*/1001);
  const SynthesisResult synthesis = SynthesizePlan(profile.trace);
  const Trace run = wb.Build(2002);
  uint64_t reuse_hits = 0;
  for (auto _ : state) {
    state.PauseTiming();
    SimDevice dev(80 * GiB);
    STAllocAllocator alloc(&dev, synthesis.plan, synthesis.dyn_space);
    if (!alloc.Init()) {
      state.SkipWithError("pool init failed");
      return;
    }
    state.ResumeTiming();
    const ReplayResult r = ReplayTrace(run, &alloc);
    benchmark::DoNotOptimize(r);
    reuse_hits = alloc.breakdown().dynamic_reuse_hits;
  }
  state.counters["reuse_hits"] = static_cast<double>(reuse_hits);
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(run.size() * 2));
}
BENCHMARK(BM_STAllocDynamicPath)->Unit(benchmark::kMicrosecond);

// Full-iteration replay cost per allocator (amortized ns per request).
void BM_IterationReplay(benchmark::State& state) {
  TrainConfig config;
  config.parallel.pp = 2;
  config.num_microbatches = 4;
  config.micro_batch_size = 4;
  WorkloadBuilder wb(Gpt2_345M(), config);
  const Trace trace = wb.Build(2);

  ProfileResult profile = ProfileWorkload(wb, kCapacity, 1);
  SynthesisResult synthesis = SynthesizePlan(profile.trace);

  for (auto _ : state) {
    state.PauseTiming();
    SimDevice dev(kCapacity);
    std::unique_ptr<Allocator> alloc;
    switch (state.range(0)) {
      case 0:
        alloc = std::make_unique<CachingAllocator>(&dev);
        break;
      case 1:
        alloc = std::make_unique<ExpandableSegmentsAllocator>(&dev);
        break;
      case 2: {
        auto st = std::make_unique<STAllocAllocator>(&dev, synthesis.plan, synthesis.dyn_space);
        st->Init();
        alloc = std::move(st);
        break;
      }
    }
    state.ResumeTiming();
    ReplayResult r = ReplayTrace(trace, alloc.get());
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(trace.size() * 2));
}
BENCHMARK(BM_IterationReplay)->Arg(0)->Arg(1)->Arg(2)
    ->ArgName("alloc(0=caching,1=es,2=stalloc)");

}  // namespace
}  // namespace stalloc

BENCHMARK_MAIN();
