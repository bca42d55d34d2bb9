#include "src/core/stalloc_allocator.h"

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/common/units.h"
#include "src/core/planner.h"
#include "src/core/profiler.h"
#include "src/driver/replay.h"
#include "src/replay/replay_engine.h"
#include "src/telemetry/heap_map.h"
#include "src/trainsim/model_config.h"
#include "src/trainsim/train_config.h"
#include "src/trainsim/workload.h"
#include "tests/support/scoped_verify.h"

namespace stalloc {
namespace {

// Generous capacity: end-to-end tests exercise correctness, not OOM behaviour, and a 7B-class
// model without ZeRO needs >60 GiB of persistent state per rank.
constexpr uint64_t kCapacity = 8 * GiB;
constexpr uint64_t kLargeCapacity = 256 * GiB;

// Builds a tiny hand-made plan: two sequential 1 MiB requests sharing one slot, one 2 MiB
// request above them.
StaticPlan TinyPlan() {
  StaticPlan plan;
  MemoryEvent a;
  a.id = 0;
  a.size = 1 * MiB;
  a.ts = 0;
  a.te = 10;
  MemoryEvent b = a;
  b.id = 1;
  b.ts = 10;
  b.te = 20;
  MemoryEvent c;
  c.id = 2;
  c.size = 2 * MiB;
  c.ts = 0;
  c.te = 20;
  plan.decisions.push_back({a, 0, 1 * MiB});
  plan.decisions.push_back({c, 1 * MiB, 2 * MiB});
  plan.decisions.push_back({b, 0, 1 * MiB});
  std::sort(plan.decisions.begin(), plan.decisions.end(),
            [](const PlanDecision& x, const PlanDecision& y) { return x.event.ts < y.event.ts; });
  plan.pool_size = 3 * MiB;
  plan.lower_bound = 3 * MiB;
  return plan;
}

TEST(STAllocAllocator, ServesPlannedAddressesInOrder) {
  SimDevice dev(kCapacity);
  STAllocAllocator alloc(&dev, TinyPlan(), DynamicReusableSpace{});
  ASSERT_TRUE(alloc.Init());

  auto a = alloc.Malloc(1 * MiB);
  auto c = alloc.Malloc(2 * MiB);
  ASSERT_TRUE(a.has_value() && c.has_value());
  EXPECT_EQ(*c, *a + 1 * MiB);  // planned layout
  alloc.Free(*a);
  auto b = alloc.Malloc(1 * MiB);
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(*b, *a);  // b reuses a's slot per the plan
  EXPECT_EQ(alloc.breakdown().static_hits, 3u);
  EXPECT_EQ(alloc.breakdown().static_mismatches, 0u);
  EXPECT_EQ(alloc.ReservedBytes(), 3 * MiB);  // exactly the pool, no fallback
  alloc.Free(*b);
  alloc.Free(*c);
}

TEST(STAllocAllocator, MatcherToleratesReordering) {
  SimDevice dev(kCapacity);
  STAllocAllocator alloc(&dev, TinyPlan(), DynamicReusableSpace{});
  ASSERT_TRUE(alloc.Init());
  // The 2 MiB request arrives before the first 1 MiB one: window scan still matches both.
  auto c = alloc.Malloc(2 * MiB);
  auto a = alloc.Malloc(1 * MiB);
  ASSERT_TRUE(a.has_value() && c.has_value());
  EXPECT_EQ(alloc.breakdown().static_hits, 2u);
  alloc.Free(*a);
  alloc.Free(*c);
}

TEST(STAllocAllocator, MismatchFallsBackToCaching) {
  SimDevice dev(kCapacity);
  STAllocAllocator alloc(&dev, TinyPlan(), DynamicReusableSpace{});
  ASSERT_TRUE(alloc.Init());
  // 5 MiB was never planned: must be served by the fallback, not crash.
  auto x = alloc.Malloc(5 * MiB);
  ASSERT_TRUE(x.has_value());
  EXPECT_EQ(alloc.breakdown().static_mismatches, 1u);
  EXPECT_GT(alloc.breakdown().fallback_bytes, 0u);
  EXPECT_GT(alloc.ReservedBytes(), 3 * MiB);  // pool + fallback segment
  EXPECT_TRUE(alloc.Free(*x));
}

TEST(STAllocAllocator, InitFailsWhenPoolExceedsCapacity) {
  SimDevice dev(2 * MiB);
  STAllocAllocator alloc(&dev, TinyPlan(), DynamicReusableSpace{});
  EXPECT_FALSE(alloc.Init());
}

TEST(STAllocAllocator, EmptyPlanServesEverythingViaFallback) {
  SimDevice dev(kCapacity);
  STAllocAllocator alloc(&dev, StaticPlan{}, DynamicReusableSpace{});
  ASSERT_TRUE(alloc.Init());
  auto x = alloc.Malloc(1 * MiB);
  ASSERT_TRUE(x.has_value());
  EXPECT_TRUE(alloc.Free(*x));
}

TEST(STAllocAllocator, EndIterationResetsMatcher) {
  SimDevice dev(kCapacity);
  STAllocAllocator alloc(&dev, TinyPlan(), DynamicReusableSpace{});
  ASSERT_TRUE(alloc.Init());
  auto a = alloc.Malloc(1 * MiB);
  auto c = alloc.Malloc(2 * MiB);
  alloc.Free(*a);
  auto b = alloc.Malloc(1 * MiB);
  alloc.Free(*b);
  alloc.Free(*c);
  alloc.EndIteration();
  // Next iteration: same sequence hits the plan again.
  auto a2 = alloc.Malloc(1 * MiB);
  ASSERT_TRUE(a2.has_value());
  EXPECT_EQ(*a2, *a);
  EXPECT_EQ(alloc.breakdown().static_hits, 4u);
  alloc.Free(*a2);
}

// Dynamic-path test with a hand-made reusable region.
TEST(STAllocAllocator, DynamicReuseServesFromPool) {
  StaticPlan plan = TinyPlan();
  DynamicReusableSpace space;
  LayerId ls = 0;
  LayerId le = 1;
  // The whole pool is reusable for this group.
  space.regions.emplace(std::make_pair(ls, le), std::vector<Interval>{{0, 3 * MiB}});
  space.expected_le[ls] = {le};

  SimDevice dev(kCapacity);
  STAllocAllocator alloc(&dev, plan, space);
  ASSERT_TRUE(alloc.Init());

  RequestContext ctx;
  ctx.dyn = true;
  ctx.layer = ls;
  auto x = alloc.Malloc(512 * KiB, ctx);
  ASSERT_TRUE(x.has_value());
  EXPECT_EQ(alloc.breakdown().dynamic_reuse_hits, 1u);
  EXPECT_EQ(alloc.breakdown().dynamic_fallbacks, 0u);
  EXPECT_EQ(alloc.ReservedBytes(), 3 * MiB);  // no fallback reservation
  EXPECT_TRUE(alloc.Free(*x));
}

TEST(STAllocAllocator, DynamicWithoutRegionFallsBack) {
  SimDevice dev(kCapacity);
  STAllocAllocator alloc(&dev, TinyPlan(), DynamicReusableSpace{});
  ASSERT_TRUE(alloc.Init());
  RequestContext ctx;
  ctx.dyn = true;
  ctx.layer = 7;  // unknown layer
  auto x = alloc.Malloc(512 * KiB, ctx);
  ASSERT_TRUE(x.has_value());
  EXPECT_EQ(alloc.breakdown().dynamic_fallbacks, 1u);
  EXPECT_TRUE(alloc.Free(*x));
}

TEST(STAllocAllocator, NoReuseAblationAlwaysFallsBack) {
  StaticPlan plan = TinyPlan();
  DynamicReusableSpace space;
  space.regions.emplace(std::make_pair(0, 1), std::vector<Interval>{{0, 3 * MiB}});
  space.expected_le[0] = {1};

  STAllocConfig config;
  config.enable_dynamic_reuse = false;
  SimDevice dev(kCapacity);
  STAllocAllocator alloc(&dev, plan, space, config);
  ASSERT_TRUE(alloc.Init());
  RequestContext ctx;
  ctx.dyn = true;
  ctx.layer = 0;
  auto x = alloc.Malloc(512 * KiB, ctx);
  ASSERT_TRUE(x.has_value());
  EXPECT_EQ(alloc.breakdown().dynamic_reuse_hits, 0u);
  EXPECT_EQ(alloc.breakdown().dynamic_fallbacks, 1u);
  EXPECT_TRUE(alloc.Free(*x));
}

// Layer ids as large as int32 allows, and negative ones, in a hand-built space: the layer table
// holds one row per expected_le row, so such ids cost nothing, and a layer without a row falls
// back.
TEST(STAllocAllocator, HostileLayerIdsCostOneRowEach) {
  constexpr LayerId kHigh = std::numeric_limits<LayerId>::max() - 1;
  constexpr LayerId kLow = std::numeric_limits<LayerId>::min();
  DynamicReusableSpace space;
  space.regions.emplace(std::make_pair(kHigh, kHigh), std::vector<Interval>{{1 * MiB, 3 * MiB}});
  space.regions.emplace(std::make_pair(kLow, 0), std::vector<Interval>{{0, 1 * MiB}});
  space.expected_le[kHigh] = {kHigh};
  space.expected_le[kLow] = {0};

  SimDevice dev(kCapacity);
  STAllocAllocator alloc(&dev, TinyPlan(), space);
  ASSERT_TRUE(alloc.Init());
  RequestContext ctx;
  ctx.dyn = true;
  ctx.layer = kHigh;
  const auto high = alloc.Malloc(512 * KiB, ctx);
  ctx.layer = kLow;
  const auto low = alloc.Malloc(512 * KiB, ctx);
  ASSERT_TRUE(high.has_value() && low.has_value());
  EXPECT_EQ(*high - *low, 1 * MiB);  // the lowest fit of each group's region
  EXPECT_EQ(alloc.breakdown().dynamic_reuse_hits, 2u);
  for (const LayerId layer : {LayerId{5}, kHigh - 1, kInvalidLayer, kHigh}) {
    ctx.layer = layer;  // no row; an invalid layer; a row already used up this iteration
    const auto x = alloc.Malloc(512 * KiB, ctx);
    ASSERT_TRUE(x.has_value()) << layer;
    EXPECT_TRUE(alloc.Free(*x));
  }
  EXPECT_EQ(alloc.breakdown().dynamic_reuse_hits, 2u);
  EXPECT_EQ(alloc.breakdown().dynamic_fallbacks, 4u);
  EXPECT_TRUE(alloc.Free(*high));
  EXPECT_TRUE(alloc.Free(*low));
  alloc.EndIteration();  // the row is served again
  ctx.layer = kHigh;
  const auto again = alloc.Malloc(512 * KiB, ctx);
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(*again, *high);
  EXPECT_TRUE(alloc.Free(*again));
}

// STAlloc's pool logic on an ordered map of live pool blocks, as the runtime kept it before it
// held the pool's free ranges: the static matcher with its conflict guard (the live block below
// must end at or before the planned range, the one above start at or after its end) and the
// Eq. 7 best fit as a walk of the gaps between live blocks. Offsets are pool-relative; nullopt
// sends the request to the fallback.
class LiveMapOracle {
 public:
  LiveMapOracle(const StaticPlan& plan, const DynamicReusableSpace& space)
      : plan_(plan), space_(space), used_(plan.decisions.size(), false) {}

  std::optional<uint64_t> Static(uint64_t size) {
    while (cursor_ < used_.size() && used_[cursor_]) {
      ++cursor_;
    }
    size_t scanned = 0;
    for (size_t i = cursor_; i < plan_.decisions.size() && scanned < 64; ++i) {
      if (used_[i]) {
        continue;
      }
      ++scanned;
      const PlanDecision& d = plan_.decisions[i];
      if (d.event.size != size) {
        continue;
      }
      const uint64_t end = d.addr + d.padded_size;
      const auto next = live_.lower_bound(d.addr);
      const bool below_clear =
          next == live_.begin() || std::prev(next)->first + std::prev(next)->second <= d.addr;
      const bool above_clear = next == live_.end() || next->first >= end;
      if (!(end <= plan_.pool_size && below_clear && above_clear)) {
        continue;
      }
      used_[i] = true;
      live_.emplace_hint(next, d.addr, d.padded_size);
      return d.addr;
    }
    return std::nullopt;
  }

  std::optional<uint64_t> Dynamic(uint64_t size, LayerId layer) {
    if (layer == kInvalidLayer) {
      return std::nullopt;
    }
    const auto table = space_.expected_le.find(layer);
    if (table == space_.expected_le.end()) {
      return std::nullopt;
    }
    const size_t k = counters_[layer]++;
    if (k >= table->second.size()) {
      return std::nullopt;
    }
    const auto region = space_.regions.find({layer, table->second[k]});
    if (region == space_.regions.end()) {
      return std::nullopt;
    }
    const uint64_t padded = PlanPaddedSize(size);
    std::optional<uint64_t> best;
    uint64_t best_len = std::numeric_limits<uint64_t>::max();
    auto consider = [&](uint64_t lo, uint64_t hi) {
      if (hi > lo && hi - lo >= padded && hi - lo < best_len) {
        best = lo;
        best_len = hi - lo;
      }
    };
    for (const Interval& iv : region->second) {
      if (best_len == padded) {
        break;
      }
      const uint64_t region_hi = std::min(iv.hi, plan_.pool_size);
      auto it = live_.lower_bound(iv.lo);
      uint64_t cursor = iv.lo;
      if (it != live_.begin()) {
        cursor = std::max(cursor, std::prev(it)->first + std::prev(it)->second);
      }
      for (; it != live_.end() && it->first < region_hi && best_len != padded; ++it) {
        consider(cursor, it->first);
        cursor = it->first + it->second;
      }
      consider(cursor, region_hi);
    }
    if (best.has_value()) {
      live_.emplace(*best, padded);
    }
    return best;
  }

  void Free(uint64_t offset) { ASSERT_EQ(live_.erase(offset), 1u) << offset; }

  void EndIteration() {
    cursor_ = 0;
    std::fill(used_.begin(), used_.end(), false);
    counters_.clear();
  }

 private:
  const StaticPlan& plan_;
  const DynamicReusableSpace& space_;
  size_t cursor_ = 0;
  std::vector<bool> used_;
  std::map<uint64_t, uint64_t> live_;
  std::map<LayerId, size_t> counters_;
};

struct DifferentialCounts {
  uint64_t static_hits = 0;
  uint64_t static_misses = 0;
  uint64_t dynamic_hits = 0;
  uint64_t dynamic_misses = 0;
};

// One seeded stream against the oracle: a random plan over a 64 MiB pool whose decisions may
// overlap (so the conflict guard rejects some hits), random regions and expected_le rows over
// eight layers (some groups without a region), then static mallocs (mostly the sizes the
// matcher expects next), dynamic mallocs, random frees and iteration ends. Every malloc must land
// where the oracle puts it: at the same pool offset, or outside the pool when the oracle falls
// back.
void RunAgainstOracle(uint64_t seed, DifferentialCounts* counts) {
  Rng rng(seed);
  constexpr uint64_t kPool = 64 * MiB;
  constexpr LayerId kLayers = 8;
  StaticPlan plan;
  plan.pool_size = kPool;
  for (uint64_t id = 0; id < 400; ++id) {
    PlanDecision d;
    d.event.id = id;
    d.event.size = rng.NextInRange(1, 16) * 64 * KiB - rng.NextBelow(2) * 100;
    d.event.ts = id;
    d.event.te = id + 1;
    d.padded_size = PlanPaddedSize(d.event.size) + rng.NextBelow(3) * 512;
    d.addr = rng.NextBelow((kPool - d.padded_size) / 512 + 1) * 512;
    plan.decisions.push_back(d);
  }
  DynamicReusableSpace space;
  for (LayerId ls = 0; ls < kLayers; ++ls) {
    for (LayerId le = ls; le < kLayers; ++le) {
      if (rng.NextBelow(4) == 0) {
        continue;  // no region for this group
      }
      std::vector<Interval> region;
      uint64_t lo = rng.NextBelow(8) * MiB;
      while (lo < kPool) {
        const uint64_t hi = std::min(kPool, lo + rng.NextInRange(1, 32) * 256 * KiB);
        InsertMerged(&region, lo, hi);
        lo = hi + rng.NextBelow(4) * 512 * KiB;  // sometimes touching, merged
      }
      space.regions.emplace(std::make_pair(ls, le), std::move(region));
    }
    std::vector<LayerId>& row = space.expected_le[ls];
    for (uint64_t k = rng.NextBelow(40); k > 0; --k) {
      row.push_back(static_cast<LayerId>(rng.NextInRange(static_cast<uint64_t>(ls), kLayers - 1)));
    }
  }

  SimDevice dev(kCapacity);
  STAllocAllocator alloc(&dev, plan, space);
  ASSERT_TRUE(alloc.Init());
  std::vector<telemetry::HeapSegment> segments;
  alloc.AppendHeapSegments(&segments);
  ASSERT_FALSE(segments.empty());
  const uint64_t base = segments.front().base;
  ASSERT_EQ(segments.front().size, kPool);
  LiveMapOracle oracle(plan, space);
  std::vector<uint64_t> live;
  size_t next_static = 0;  // the decision the plan expects next, roughly

  for (uint64_t step = 0; step < 20000; ++step) {
    const uint64_t dice = rng.NextBelow(100);
    if (dice < 40 || (dice < 90 && live.size() < 8)) {
      const bool dyn = dice % 2 == 0;
      RequestContext ctx;
      ctx.dyn = dyn;
      uint64_t size = 0;
      std::optional<uint64_t> want;
      if (dyn) {
        ctx.layer = static_cast<LayerId>(rng.NextBelow(kLayers + 2)) - 1;  // -1 .. kLayers
        size = rng.NextInRange(1, 4 * MiB);
        want = oracle.Dynamic(size, ctx.layer);
      } else {
        const uint64_t pick = rng.NextBelow(10) < 8 ? next_static++ : rng.NextBelow(400);
        size = plan.decisions[pick % plan.decisions.size()].event.size;
        want = oracle.Static(size);
      }
      const std::optional<uint64_t> got = alloc.Malloc(size, ctx);
      ASSERT_TRUE(got.has_value()) << step;
      if (want.has_value()) {
        ASSERT_EQ(*got, base + *want) << (dyn ? "dynamic" : "static") << " malloc " << step;
      } else {
        ASSERT_TRUE(*got < base || *got >= base + kPool) << step;
      }
      uint64_t& tally = dyn ? (want ? counts->dynamic_hits : counts->dynamic_misses)
                            : (want ? counts->static_hits : counts->static_misses);
      ++tally;
      live.push_back(*got);
    } else if (dice < 98 && !live.empty()) {
      const size_t pick = rng.NextBelow(live.size());
      const uint64_t addr = live[pick];
      live[pick] = live.back();
      live.pop_back();
      ASSERT_TRUE(alloc.Free(addr));
      if (addr >= base && addr < base + kPool) {
        oracle.Free(addr - base);
      }
    } else {
      alloc.EndIteration();
      oracle.EndIteration();
      next_static = 0;
    }
  }
  for (const uint64_t addr : live) {
    ASSERT_TRUE(alloc.Free(addr));
  }
}

TEST(STAllocAllocator, MatchesLiveMapOracleOnRandomStreams) {
  DifferentialCounts counts;
  for (const bool verify : {true, false}) {
    ScopedVerify mode(verify);
    for (const uint64_t seed : {1u, 2u, 3u}) {
      SCOPED_TRACE("seed " + std::to_string(seed) + (verify ? " verify on" : " verify off"));
      RunAgainstOracle(seed, &counts);
      if (HasFatalFailure()) {
        return;
      }
    }
  }
  // Every path ran: hits and fallbacks on both sides.
  EXPECT_GT(counts.static_hits, 0u);
  EXPECT_GT(counts.static_misses, 0u);
  EXPECT_GT(counts.dynamic_hits, 0u);
  EXPECT_GT(counts.dynamic_misses, 0u);
}

// End-to-end: profile -> plan -> replay on dense and MoE workloads; static hit rate must be
// near-perfect and memory efficiency above the caching baseline.
class STAllocEndToEndTest : public ::testing::TestWithParam<const char*> {};

TEST_P(STAllocEndToEndTest, ReplayHitsPlan) {
  ModelConfig model = ModelByName(GetParam());
  TrainConfig c;
  c.parallel.pp = 2;
  c.num_microbatches = 4;
  c.micro_batch_size = 2;
  c.opt.recompute = RecomputeMode::kFull;
  WorkloadBuilder wb(model, c);

  ProfileResult profile = ProfileWorkload(wb, kLargeCapacity, /*iteration_seed=*/1);
  ASSERT_TRUE(profile.feasible);
  SynthesisResult synthesis = SynthesizePlan(profile.trace);

  SimDevice dev(kLargeCapacity);
  STAllocAllocator alloc(&dev, synthesis.plan, synthesis.dyn_space);
  ASSERT_TRUE(alloc.Init());
  // Replay a *different* iteration (seed 2): static structure identical, dynamic sizes differ.
  Trace run = wb.Build(2);
  ReplayResult replay = ReplayTrace(run, &alloc);
  ASSERT_FALSE(replay.oom);

  const auto& bd = alloc.breakdown();
  EXPECT_EQ(bd.static_mismatches, 0u) << "static requests must all match the plan";
  EXPECT_GT(bd.static_hits, 0u);
  EXPECT_GT(replay.memory_efficiency, 0.90);
  if (model.moe.enabled()) {
    EXPECT_GT(bd.dynamic_reuse_hits + bd.dynamic_fallbacks, 0u);
    EXPECT_GT(bd.dynamic_reuse_hits, 0u) << "recompute leaves idle space; reuse must trigger";
  }
}

INSTANTIATE_TEST_SUITE_P(Models, STAllocEndToEndTest,
                         ::testing::Values("gpt2", "llama2-7b", "qwen1.5-moe"),
                         [](const ::testing::TestParamInfo<const char*>& info) {
                           std::string name = info.param;
                           for (char& ch : name) {
                             if (!std::isalnum(static_cast<unsigned char>(ch))) {
                               ch = '_';
                             }
                           }
                           return name;
                         });

// Pins STAlloc's runtime on Fig. 8 cells (80 GiB, profiled at seed 1001, replayed at seed 2002):
// the placement digest of every malloc and free, Mr, and the path counters. The last case
// replays the rank-0 plan on rank 1, so static hits, plan mismatches, dynamic reuse and the
// lack-of-space fallback all run. Verify mode adds checks, never decisions: every pin holds with
// it on and off.
TEST(STAllocAllocator, PinnedPlacementDigests) {
  struct Cell {
    const char* model;
    ParallelConfig parallel;
    uint64_t micro_batch;
  };
  const Cell gpt2 = {"gpt2", {/*tp=*/1, /*pp=*/2, /*dp=*/4, /*ep=*/1, /*vpp=*/1}, 64};
  const Cell qwen = {"qwen1.5-moe", {/*tp=*/1, /*pp=*/2, /*dp=*/4, /*ep=*/4, /*vpp=*/1}, 8};
  auto builder = [](const Cell& cell, int rank) {
    TrainConfig train;
    train.parallel = cell.parallel;
    train.num_microbatches = 8;
    train = ApplyConfigTag(train, "N");
    train.micro_batch_size = cell.micro_batch;
    train.rank = rank;
    return WorkloadBuilder(ModelByName(cell.model), train);
  };
  auto plan_of = [](const WorkloadBuilder& workload) {
    const ProfileResult profile = ProfileWorkload(workload, 80 * GiB, /*iteration_seed=*/1001);
    EXPECT_TRUE(profile.feasible);
    return SynthesizePlan(profile.trace);
  };
  const SynthesisResult gpt2_plan = plan_of(builder(gpt2, 0));
  const SynthesisResult qwen_plan = plan_of(builder(qwen, 0));
  const Trace gpt2_run = builder(gpt2, 0).Build(2002);
  const Trace qwen_run = builder(qwen, 0).Build(2002);
  const Trace qwen_rank1_run = builder(qwen, 1).Build(2002);

  struct Pin {
    const char* name;
    const SynthesisResult* plan;
    const Trace* run;
    const char* kind;
    uint64_t digest;
    uint64_t reserved_peak;
    STAllocBreakdown counts;  // the four path counters only
  };
  const Pin pins[] = {
      {"gpt2 rank0", &gpt2_plan, &gpt2_run, "stalloc", 0xaa8cdae5fb189ddeull, 59068484096ull,
       {2501, 0, 0, 0}},
      {"qwen rank0", &qwen_plan, &qwen_run, "stalloc", 0xc2237e22f2d94bb2ull, 64582124032ull,
       {2369, 0, 2670, 7410}},
      {"qwen rank0 noreuse", &qwen_plan, &qwen_run, "stalloc-noreuse", 0x585d95ea056c8eeeull,
       64582124032ull, {2369, 0, 0, 10080}},
      {"qwen rank0 plan on rank1", &qwen_plan, &qwen_rank1_run, "stalloc", 0xcb840ecaed9169caull,
       81210442240ull, {2183, 210, 2640, 7440}},
  };
  for (const bool verify : {true, false}) {
    ScopedVerify mode(verify);
    for (const Pin& pin : pins) {
      SCOPED_TRACE(std::string(pin.name) + (verify ? " verify on" : " verify off"));
      SimDevice dev(80 * GiB);
      STAllocAllocator alloc(&dev, pin.plan->plan, pin.plan->dyn_space,
                             STAllocConfigFor(pin.kind));
      ASSERT_TRUE(alloc.Init());
      PlacementDigestObserver digest;
      const ReplayResult r = ReplayTrace(*pin.run, &alloc, &digest);
      const STAllocBreakdown& bd = alloc.breakdown();
      EXPECT_FALSE(r.oom);
      EXPECT_EQ(digest.digest(), pin.digest);
      EXPECT_EQ(r.reserved_peak, pin.reserved_peak);
      EXPECT_EQ(bd.static_hits, pin.counts.static_hits);
      EXPECT_EQ(bd.static_mismatches, pin.counts.static_mismatches);
      EXPECT_EQ(bd.dynamic_reuse_hits, pin.counts.dynamic_reuse_hits);
      EXPECT_EQ(bd.dynamic_fallbacks, pin.counts.dynamic_fallbacks);
    }
  }
}

}  // namespace
}  // namespace stalloc
