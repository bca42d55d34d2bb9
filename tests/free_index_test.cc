// Coverage for src/allocators/free_index.{h,cc} and the allocators that moved onto it.
//
// The BestFitIndex replaced the flat ordered (size, addr) sets the caching-style allocators
// searched linearly through node-based trees; its contract is that every selection is
// bit-identical to what lower_bound on the flat set would have picked. Two layers of evidence:
//   * a reference model — the seed's std::set<(size, addr)> — driven with the same adversarial
//     insert/erase/pop interleavings, asserting identical decisions op by op;
//   * pinned placement: Ma/Mr of the refactored caching/expandable/GMLake allocators over a
//     recorded storm trace and a training trace must equal values recorded from the pre-refactor
//     (seed) allocators, the address-level placement digests of `native` and `paged-kv` must
//     equal those recorded before SimDevice's arena was indexed, and those of torch-caching,
//     torch-expandable, gmlake and vmm — on the storm, training and multi-stream serve traces,
//     and once each at a capacity tight enough to run the kind's pressure path — must equal
//     those recorded while each allocator still kept its own block map.
// A last table pins Mr and E of every registry kind, STAlloc included, over two longer streams:
// a 50k-event storm, and a training iteration replayed back-to-back into one allocator.

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/allocators/caching_allocator.h"
#include "src/allocators/expandable_segments.h"
#include "src/allocators/free_index.h"
#include "src/allocators/gmlake.h"
#include "src/allocators/registry.h"
#include "src/common/table.h"
#include "src/common/units.h"
#include "src/core/planner.h"
#include "src/core/profiler.h"
#include "src/core/stalloc_allocator.h"
#include "src/driver/replay.h"
#include "src/gpu/sim_device.h"
#include "src/replay/replay_engine.h"
#include "src/trace/synthetic.h"
#include "src/trainsim/model_config.h"
#include "src/trainsim/workload.h"
#include "src/vmm/vmm_allocator.h"
#include "tests/support/scoped_verify.h"

namespace stalloc {
namespace {

// The seed's free-list representation: one flat ordered set of (size, addr), best fit via
// lower_bound. The index under test must reproduce its decisions exactly.
class FlatReference {
 public:
  void Insert(uint64_t size, uint64_t addr) {
    set_.emplace(size, addr);
    ++per_size_[size];
  }
  void Erase(uint64_t size, uint64_t addr) {
    ASSERT_EQ(set_.erase({size, addr}), 1u) << "reference erase of unknown block";
    Forget(size);
  }
  std::optional<std::pair<uint64_t, uint64_t>> PopBestFit(uint64_t min_size) {
    auto it = set_.lower_bound({min_size, 0});
    if (it == set_.end()) {
      return std::nullopt;
    }
    auto best = *it;
    set_.erase(it);
    Forget(best.first);
    return best;
  }
  std::optional<std::pair<uint64_t, uint64_t>> BestFit(uint64_t min_size) const {
    auto it = set_.lower_bound({min_size, 0});
    return it == set_.end() ? std::nullopt : std::optional<std::pair<uint64_t, uint64_t>>(*it);
  }
  size_t size() const { return set_.size(); }
  size_t distinct_sizes() const { return per_size_.size(); }
  uint64_t largest_size() const { return set_.empty() ? 0 : set_.rbegin()->first; }

 private:
  void Forget(uint64_t size) {
    if (--per_size_[size] == 0) {
      per_size_.erase(size);
    }
  }

  std::set<std::pair<uint64_t, uint64_t>> set_;
  std::map<uint64_t, size_t> per_size_;  // live blocks per distinct size
};

TEST(BestFitIndex, EmptyIndexFindsNothing) {
  BestFitIndex index;
  EXPECT_TRUE(index.empty());
  EXPECT_EQ(index.size(), 0u);
  EXPECT_EQ(index.largest_size(), 0u);
  EXPECT_FALSE(index.BestFit(1).has_value());
  EXPECT_FALSE(index.PopBestFit(1).has_value());
}

TEST(BestFitIndex, PopPicksSmallestSufficientSizeThenLowestAddress) {
  BestFitIndex index;
  index.Insert(4096, 300);
  index.Insert(4096, 100);
  index.Insert(4096, 200);
  index.Insert(8192, 50);
  // Smallest size >= 4096 is the 4096 bucket; lowest address wins within it.
  auto best = index.PopBestFit(4000);
  ASSERT_TRUE(best.has_value());
  EXPECT_EQ(*best, (std::pair<uint64_t, uint64_t>{4096, 100}));
  // A request above 4096 skips the bucket entirely.
  best = index.PopBestFit(5000);
  ASSERT_TRUE(best.has_value());
  EXPECT_EQ(*best, (std::pair<uint64_t, uint64_t>{8192, 50}));
  // Nothing fits above the largest size.
  EXPECT_FALSE(index.PopBestFit(10000).has_value());
  EXPECT_EQ(index.size(), 2u);
}

TEST(BestFitIndex, KeptAliveEmptyBucketsAreSkipped) {
  BestFitIndex index;
  index.Insert(512, 10);
  index.Insert(1024, 20);
  ASSERT_TRUE(index.PopBestFit(512).has_value());  // empties the 512 bucket, keeps it alive
  EXPECT_EQ(index.num_size_buckets(), 2u);
  auto best = index.PopBestFit(1);  // must walk past the empty 512 bucket
  ASSERT_TRUE(best.has_value());
  EXPECT_EQ(best->first, 1024u);
  EXPECT_TRUE(index.empty());
  EXPECT_EQ(index.largest_size(), 0u);
  // The bucket revives on the next insert of that size without growing the size array.
  index.Insert(512, 11);
  EXPECT_EQ(index.num_size_buckets(), 2u);
  EXPECT_EQ(index.largest_size(), 512u);
}

TEST(BestFitIndex, EraseRemovesSpecificBlocks) {
  BestFitIndex index;
  index.Insert(4096, 100);
  index.Insert(4096, 200);
  index.Insert(4096, 300);
  index.Erase(4096, 200);  // a middle neighbour being coalesced away
  auto best = index.PopBestFit(1);
  ASSERT_TRUE(best.has_value());
  EXPECT_EQ(best->second, 100u);
  best = index.PopBestFit(1);
  ASSERT_TRUE(best.has_value());
  EXPECT_EQ(best->second, 300u);
  EXPECT_TRUE(index.empty());
}

// A deep single-size bucket freed in adversarial (descending, then shuffled) order: the seed's
// tree walked O(log n) nodes per op here, and a naive bucket insert would shift O(n). Every pop
// must still be the lowest live address.
TEST(BestFitIndex, DeepSameSizeBucketPopsInAddressOrder) {
  BestFitIndex index;
  FlatReference ref;
  uint64_t rng = 7;
  auto rnd = [&rng]() {
    rng ^= rng << 13;
    rng ^= rng >> 7;
    rng ^= rng << 17;
    return rng;
  };
  std::vector<uint64_t> addrs;
  for (uint64_t i = 0; i < 2000; ++i) {
    addrs.push_back((i + 1) * 4096);
  }
  for (size_t i = addrs.size(); i > 1; --i) {  // Fisher-Yates with the deterministic rng
    std::swap(addrs[i - 1], addrs[rnd() % i]);
  }
  for (uint64_t a : addrs) {
    index.Insert(1 * MiB, a);
    ref.Insert(1 * MiB, a);
  }
  for (size_t i = 0; i < addrs.size(); ++i) {
    auto got = index.PopBestFit(1 * MiB);
    auto want = ref.PopBestFit(1 * MiB);
    ASSERT_TRUE(got.has_value());
    ASSERT_EQ(*got, *want) << "pop " << i;
  }
  EXPECT_TRUE(index.empty());
}

// Randomized adversarial interleavings of insert / erase / pop / peek against the reference
// flat set: every decision must match, op by op. The palette mirrors the caching allocator's
// rounded request sizes (a few dozen recurring values, deep buckets).
TEST(BestFitIndex, FuzzMatchesFlatSetReference) {
  BestFitIndex index;
  FlatReference ref;
  uint64_t rng = 12345;
  auto rnd = [&rng]() {
    rng ^= rng << 13;
    rng ^= rng >> 7;
    rng ^= rng << 17;
    return rng;
  };
  std::vector<uint64_t> palette;
  for (uint64_t k = 1; k <= 16; ++k) {
    palette.push_back(k * 512);
  }
  for (uint64_t k = 1; k <= 16; ++k) {
    palette.push_back(k * 2 * MiB);
  }
  std::vector<std::pair<uint64_t, uint64_t>> live;
  uint64_t next_addr = 1;
  for (int op = 0; op < 50000; ++op) {
    const uint64_t dice = rnd() % 100;
    if (dice < 45 || live.empty()) {
      const uint64_t size = palette[rnd() % palette.size()];
      const uint64_t addr = (next_addr++) * 512;
      index.Insert(size, addr);
      ref.Insert(size, addr);
      live.emplace_back(size, addr);
    } else if (dice < 60) {
      // Erase a random live block (the coalesce path removes arbitrary members).
      const size_t pick = rnd() % live.size();
      const auto [size, addr] = live[pick];
      live[pick] = live.back();
      live.pop_back();
      index.Erase(size, addr);
      ref.Erase(size, addr);
    } else if (dice < 90) {
      // Pop best fit for a request that may fall between buckets.
      const uint64_t want = palette[rnd() % palette.size()] - (rnd() % 512);
      auto got = index.PopBestFit(want);
      auto expect = ref.PopBestFit(want);
      ASSERT_EQ(got, expect) << "op " << op << " want " << want;
      if (got.has_value()) {
        for (size_t i = 0; i < live.size(); ++i) {
          if (live[i] == *got) {
            live[i] = live.back();
            live.pop_back();
            break;
          }
        }
      }
    } else {
      const uint64_t want = 1 + rnd() % (64 * MiB);
      ASSERT_EQ(index.BestFit(want), ref.BestFit(want)) << "op " << op;
    }
    ASSERT_EQ(index.size(), ref.size());
    ASSERT_EQ(index.largest_size(), ref.largest_size());
  }
}

// Free-block sizes, unlike request sizes, do not recur: every best-fit split leaves a remainder
// of a fresh size. Thousands of distinct 512-multiple sizes with split-remainder churn make
// buckets empty far faster than the 32-size palette above, so the empty-bucket compaction runs
// over and over; every decision must still match the flat set, and the size array must stay
// within the compaction bound (2 x non-empty + 64 buckets) after every op.
TEST(BestFitIndex, ManyDistinctSizesCompactWithinBoundAndMatchReference) {
  BestFitIndex index;
  FlatReference ref;
  uint64_t rng = 2002;
  auto rnd = [&rng]() {
    rng ^= rng << 13;
    rng ^= rng >> 7;
    rng ^= rng << 17;
    return rng;
  };
  constexpr uint64_t kMaxUnits = 8192;  // sizes up to 4 MiB in 512-byte units
  constexpr uint64_t kStride = 8 * MiB;  // fresh blocks never overlap, so addresses are unique
  std::vector<std::pair<uint64_t, uint64_t>> live;
  uint64_t next_base = 1;
  size_t compactions = 0;
  for (int op = 0; op < 40000; ++op) {
    const size_t buckets_before = index.num_size_buckets();
    const uint64_t dice = rnd() % 100;
    // Steer toward a few hundred live blocks so empties regularly outnumber live buckets.
    const bool grow = live.size() < 300;
    if (live.empty() || dice < (grow ? 55u : 35u)) {
      const uint64_t size = 512 * (1 + rnd() % kMaxUnits);
      const uint64_t addr = (next_base++) * kStride;
      index.Insert(size, addr);
      ref.Insert(size, addr);
      live.emplace_back(size, addr);
    } else if (dice < 50) {
      const size_t pick = rnd() % live.size();
      const auto [size, addr] = live[pick];
      live[pick] = live.back();
      live.pop_back();
      index.Erase(size, addr);
      ref.Erase(size, addr);
    } else if (dice < 90) {
      // Pop a best fit and free the split remainder back, as the caching allocator does.
      const uint64_t want = 512 * (1 + rnd() % kMaxUnits);
      auto got = index.PopBestFit(want);
      auto expect = ref.PopBestFit(want);
      ASSERT_EQ(got, expect) << "op " << op << " want " << want;
      if (got.has_value()) {
        for (size_t i = 0; i < live.size(); ++i) {
          if (live[i] == *got) {
            live[i] = live.back();
            live.pop_back();
            break;
          }
        }
        if (got->first > want) {
          const uint64_t rest = got->first - want;
          index.Insert(rest, got->second + want);
          ref.Insert(rest, got->second + want);
          live.emplace_back(rest, got->second + want);
        }
      }
    } else {
      const uint64_t want = 1 + rnd() % (kMaxUnits * 512);
      ASSERT_EQ(index.BestFit(want), ref.BestFit(want)) << "op " << op;
    }
    if (index.num_size_buckets() + 1 < buckets_before) {
      ++compactions;
    }
    ASSERT_EQ(index.size(), ref.size());
    ASSERT_EQ(index.largest_size(), ref.largest_size());
    ASSERT_LE(index.num_size_buckets(), 2 * ref.distinct_sizes() + 64) << "op " << op;
  }
  EXPECT_GE(compactions, 10u);
}

// --- BlockArena ---

// Coalescing stops at segment boundaries: two segments the device placed back to back stay two
// free blocks, even though their free ranges touch.
TEST(BlockArena, AdjacentSegmentsDoNotMerge) {
  SimDevice dev(64 * MiB);
  const auto a = dev.DevMalloc(2 * MiB);
  const auto b = dev.DevMalloc(2 * MiB);
  ASSERT_TRUE(a.has_value() && b.has_value());
  ASSERT_EQ(*a + 2 * MiB, *b);
  BlockArena arena;
  const BlockArena::SegmentId sa = arena.AddSegment(*a, 2 * MiB, 0, 1 * MiB, 512);
  const BlockArena::SegmentId sb = arena.AddSegment(*b, 2 * MiB, 0, 1 * MiB, 512);
  // The tail of `a` and the head of `b` are taken; release them and the free ranges meet.
  const BlockArena::Released ra = arena.Release(*a);
  EXPECT_EQ(ra.size, 1 * MiB);
  EXPECT_EQ(ra.segment, sa);
  EXPECT_EQ(arena.Release(*b).segment, sb);
  EXPECT_TRUE(arena.FullyFree(sa));
  EXPECT_TRUE(arena.FullyFree(sb));
  EXPECT_FALSE(arena.Take(0, 3 * MiB, 512).has_value());
  EXPECT_EQ(arena.Take(0, 2 * MiB, 512), *a);
  EXPECT_EQ(arena.Take(0, 2 * MiB, 512), *b);
  EXPECT_FALSE(arena.Take(0, 512, 512).has_value());
  arena.Release(*a);
  arena.RemoveSegment(sa);
  EXPECT_FALSE(arena.segment(sa).live);
  EXPECT_FALSE(arena.Take(0, 512, 512).has_value());
  arena.Release(*b);
  EXPECT_EQ(arena.Take(0, 512, 512), *b);
}

// The split rule is the caller's: a remainder below min_split stays inside the taken block.
TEST(BlockArena, MinSplitKeepsSmallRemainders) {
  BlockArena arena;
  const uint64_t base = 1 * GiB;
  arena.AddSegment(base, 4 * MiB, 3, 0, 1 * MiB + 1);
  EXPECT_EQ(arena.Take(3, 3 * MiB, 1 * MiB + 1), base);  // 1 MiB remainder: not split
  EXPECT_FALSE(arena.Take(3, 512, 512).has_value());
  EXPECT_EQ(arena.Release(base).size, 4 * MiB);
  EXPECT_EQ(arena.Take(3, 2 * MiB, 512), base);  // 2 MiB remainder: split
  EXPECT_EQ(arena.Take(3, 2 * MiB, 512), base + 2 * MiB);
}

// Tail growth merges into a free tail block; trimming cuts it back.
TEST(BlockArena, TailGrowsAndTrims) {
  BlockArena arena;
  const uint64_t base = 1 * GiB;
  const BlockArena::SegmentId id = arena.AddSegment(base, 0, 0, 0, 512);
  EXPECT_EQ(arena.TailFree(id), 0u);
  arena.GrowTail(id, 2 * MiB);
  EXPECT_EQ(arena.Take(0, 1 * MiB, 512), base);
  EXPECT_EQ(arena.TailFree(id), 1 * MiB);
  arena.GrowTail(id, 2 * MiB);
  EXPECT_EQ(arena.TailFree(id), 3 * MiB);
  EXPECT_EQ(arena.segment(id).size, 4 * MiB);
  arena.TrimTail(id, 2 * MiB);
  EXPECT_EQ(arena.TailFree(id), 1 * MiB);
  EXPECT_EQ(arena.segment(id).free_bytes, 1 * MiB);
  arena.TrimTail(id, 1 * MiB);  // the cut removes the tail block
  EXPECT_EQ(arena.TailFree(id), 0u);
  arena.Release(base);
  EXPECT_TRUE(arena.FullyFree(id));
  EXPECT_EQ(arena.TailFree(id), 1 * MiB);
}

// --- pinned placement: the refactored allocators vs. the seed allocators ---

struct GoldenRun {
  uint64_t allocated_peak = 0;  // Ma — trace property, sanity-checks the replay
  uint64_t reserved_peak = 0;   // Mr — the placement-policy pin
};

void ExpectPinnedPlacement(const Trace& trace, Allocator* alloc, const GoldenRun& golden) {
  ReplayResult r = ReplayTrace(trace, alloc);
  ASSERT_FALSE(r.oom);
  EXPECT_EQ(alloc->stats().allocated_peak, golden.allocated_peak);
  EXPECT_EQ(alloc->stats().reserved_peak, golden.reserved_peak);
  EXPECT_EQ(alloc->ReservedBytes(), golden.reserved_peak);  // nothing released mid-run
}

// Golden Ma/Mr recorded from the pre-refactor (flat std::set / std::map) allocators at commit
// fd08432 on these exact traces. The indexed free lists must not move a single placement.
TEST(PinnedPlacement, StormTraceMatchesSeedAllocators) {
  const Trace storm = BuildStormTrace(10000, 42);
  {
    SimDevice dev(64ull * GiB);
    CachingAllocator alloc(&dev);
    ExpectPinnedPlacement(storm, &alloc, {11976507392ull, 12509511680ull});
  }
  {
    SimDevice dev(64ull * GiB);
    ExpandableSegmentsAllocator alloc(&dev);
    ExpectPinnedPlacement(storm, &alloc, {11976507392ull, 12427722752ull});
  }
  {
    SimDevice dev(64ull * GiB);
    GMLakeAllocator alloc(&dev);
    ExpectPinnedPlacement(storm, &alloc, {11976507392ull, 12509511680ull});
  }
}

TEST(PinnedPlacement, TrainingTraceMatchesSeedAllocators) {
  TrainConfig config;
  config.parallel.pp = 2;
  config.num_microbatches = 4;
  config.micro_batch_size = 4;
  WorkloadBuilder wb(Gpt2_345M(), config);
  const Trace train = wb.Build(2);
  {
    SimDevice dev(64ull * GiB);
    CachingAllocator alloc(&dev);
    ExpectPinnedPlacement(train, &alloc, {7108921600ull, 7992246272ull});
  }
  {
    SimDevice dev(64ull * GiB);
    ExpandableSegmentsAllocator alloc(&dev);
    ExpectPinnedPlacement(train, &alloc, {7108921600ull, 7117733888ull});
  }
  {
    SimDevice dev(64ull * GiB);
    GMLakeAllocator alloc(&dev);
    ExpectPinnedPlacement(train, &alloc, {7108921600ull, 7992246272ull});
  }
}

// Ma/Mr cannot pin the kinds that hand device addresses straight through: `native` returns
// SimDevice::DevMalloc's first-fit address for every request and `paged-kv` carves its slabs out
// of the same arena, so their Mr is address-blind. Pin their full placement sequence instead —
// every (event, address, size) folded into a PlacementDigestObserver digest — recorded from the
// linear first-fit arena that the indexed first-fit arena replaced. The caching-style
// kinds (torch-caching, torch-expandable, gmlake, vmm) are pinned the same way, recorded from
// the allocators that each kept their own block map, before they moved onto one BlockArena.
uint64_t PlacementDigest(const Trace& trace, const std::string& kind) {
  SimDevice dev(64ull * GiB);
  std::unique_ptr<Allocator> alloc = AllocatorRegistry::Global().Create(kind, &dev);
  PlacementDigestObserver digest;
  EXPECT_FALSE(ReplayTrace(trace, alloc.get(), &digest).oom) << kind;
  return digest.digest();
}

TEST(PinnedPlacement, NativeAndPagedKvAddressDigests) {
  const Trace storm = BuildStormTrace(10000, 42);
  TrainConfig config;
  config.parallel.pp = 2;
  config.num_microbatches = 4;
  config.micro_batch_size = 4;
  const Trace train = WorkloadBuilder(Gpt2_345M(), config).Build(2);
  // Multi-stream: every request's KV blocks land on one of four streams, so the per-stream
  // pools of the caching-style kinds all fill.
  const Trace serve = BuildSyntheticTrace({SyntheticMix::kServing, 20000, 5});
  struct Pin {
    const Trace* trace;
    const char* kind;
    uint64_t digest;
  };
  const Pin pins[] = {
      {&storm, "native", 0xac7310b4caf2ca95ull},         {&storm, "paged-kv", 0xdb98a3cd0da53261ull},
      {&train, "native", 0xce4dfc4b016e7e92ull},         {&train, "paged-kv", 0xe520557d0358578aull},
      {&storm, "torch-caching", 0xa75a2d449ce887e5ull},  {&storm, "torch-expandable", 0x8806a9b2187eba5dull},
      {&storm, "gmlake", 0x712bfe7c9b475315ull},         {&storm, "vmm", 0x3ce33436db50d89dull},
      {&train, "torch-caching", 0x03ab7391d7391d36ull},  {&train, "torch-expandable", 0x4ebb3e7a5fa9d1c6ull},
      {&train, "gmlake", 0xff6ba7dc69f1e7baull},         {&train, "vmm", 0xc355f86e079a7b02ull},
      {&serve, "torch-caching", 0x5b652db81f9ecb15ull},  {&serve, "torch-expandable", 0xb50e05010d0649e1ull},
      {&serve, "gmlake", 0x09815bfbe5b842edull},         {&serve, "vmm", 0x51e21913d6adb735ull},
  };
  // Verify mode adds checks, never decisions: every digest holds with it on and off.
  for (const bool verify : {true, false}) {
    ScopedVerify mode(verify);
    for (const Pin& pin : pins) {
      const uint64_t got = PlacementDigest(*pin.trace, pin.kind);
      EXPECT_EQ(got, pin.digest) << pin.kind << " verify " << verify;
    }
  }
}

// The pressure paths only run on a nearly full device, so each kind also gets one replay at a
// capacity just under its unconstrained footprint. Each replay asserts that its pressure path
// ran, then pins the placement digest and the event (if any) whose malloc failed.
struct TightRun {
  uint64_t digest = 0;
  bool oom = false;
  uint64_t failed_event = 0;
};

TightRun ReplayTight(const Trace& trace, Allocator* alloc) {
  PlacementDigestObserver digest;
  const ReplayResult r = ReplayTrace(trace, alloc, &digest);
  return {digest.digest(), r.oom, r.oom ? r.failed_event : 0};
}

TEST(PinnedPlacement, TightCapacityAddressDigests) {
  const Trace storm = BuildStormTrace(10000, 42);
  const Trace serve = BuildSyntheticTrace({SyntheticMix::kServing, 20000, 5});
  constexpr uint64_t kStormCapacity = 11800 * MiB;
  // Verify mode adds checks, never decisions: the pressure paths place identically with it
  // on and off.
  for (const bool verify : {true, false}) {
    ScopedVerify mode(verify);
    SCOPED_TRACE(verify ? "verify on" : "verify off");
    {
      SimDevice dev(kStormCapacity);
      CachingAllocator alloc(&dev);
      const TightRun run = ReplayTight(storm, &alloc);
      // The replay never empties the cache, so every cudaFree is a release-and-retry after a
      // failed segment malloc.
      EXPECT_EQ(dev.counters().cuda_free, 15u);
      EXPECT_EQ(run.digest, 0x09d4be44fe4e3f4eull);
      EXPECT_TRUE(run.oom);
      EXPECT_EQ(run.failed_event, 9684u);
    }
    {
      SimDevice dev(kStormCapacity);
      GMLakeConfig config;
      config.frag_limit = 16 * MiB;  // the storm's largest requests are 32 MiB
      GMLakeAllocator alloc(&dev, config);
      const TightRun run = ReplayTight(storm, &alloc);
      EXPECT_EQ(alloc.num_stitches(), 6u);
      EXPECT_EQ(run.digest, 0x35121b311c7b7225ull);
      EXPECT_TRUE(run.oom);
      EXPECT_EQ(run.failed_event, 9978u);
    }
    {
      SimDevice dev(kStormCapacity);
      VmmAllocator alloc(&dev);
      const TightRun run = ReplayTight(storm, &alloc);
      // Remapping moves physical handles, never addresses: the digest is the unconstrained one.
      EXPECT_EQ(alloc.vmm_stats().remap_events, 15u);
      EXPECT_EQ(alloc.vmm_stats().pages_remapped, 111u);
      EXPECT_EQ(run.digest, 0x3ce33436db50d89dull);
      EXPECT_FALSE(run.oom);
    }
    {
      SimDevice dev(850 * MiB);
      ExpandableSegmentsAllocator alloc(&dev);
      const TightRun run = ReplayTight(serve, &alloc);
      // The default trim threshold never trims on free, and a completed replay never rolled a
      // failed growth back: every unmap is a cross-stream trim under growth pressure.
      ASSERT_FALSE(run.oom);
      EXPECT_EQ(dev.counters().mem_unmap, 23u);
      EXPECT_EQ(run.digest, 0x7ca084eb4394a01dull);
    }
  }
}

// A fresh allocator of registry kind `kind`; the plan kinds plan `trace` as their own profile.
std::unique_ptr<Allocator> CreateKind(const Trace& trace, const std::string& kind,
                                      SimDevice* dev) {
  if (!AllocatorRegistry::Global().Find(kind)->requires_plan) {
    return AllocatorRegistry::Global().Create(kind, dev);
  }
  const ProfileResult profile = ProfileTrace(trace, dev->capacity());
  EXPECT_TRUE(profile.feasible) << kind;
  SynthesisResult synthesis = SynthesizePlan(profile.trace);
  auto alloc = std::make_unique<STAllocAllocator>(dev, std::move(synthesis.plan),
                                                  std::move(synthesis.dyn_space),
                                                  STAllocConfigFor(kind));
  EXPECT_TRUE(alloc->Init()) << kind;
  return alloc;
}

// Mr and E per registry kind, recorded at commit 65a463e: the 50k-event storm through the six
// unplanned kinds, and the gpt2 pp2 iteration (16 microbatches of 4) replayed 10 times
// back-to-back into one allocator, caches kept across iterations as in training, through all
// eight. E is compared at the 12 significant digits it was recorded with.
TEST(PinnedPlacement, BackToBackStreamPeaks) {
  const Trace storm = BuildStormTrace(50000, 42);
  TrainConfig config;
  config.parallel.pp = 2;
  config.num_microbatches = 16;
  config.micro_batch_size = 4;
  const Trace train = WorkloadBuilder(Gpt2_345M(), config).Build(2);
  ASSERT_EQ(train.size(), 4917u);
  struct Pin {
    const Trace* trace;
    const char* kind;
    int iterations;
    uint64_t reserved_peak;
    const char* efficiency;
  };
  const Pin pins[] = {
      {&storm, "native", 1, 12524716032ull, "1"},
      {&storm, "torch-caching", 1, 13205766144ull, "0.948427822773"},
      {&storm, "torch-expandable", 1, 13216251904ull, "0.947675341162"},
      {&storm, "gmlake", 1, 13205766144ull, "0.948427822773"},
      {&storm, "paged-kv", 1, 13891534848ull, "0.901607789855"},
      {&storm, "vmm", 1, 13157531648ull, "0.951904686006"},
      {&train, "native", 10, 7108921856ull, "0.999999963989"},
      {&train, "torch-caching", 10, 7992246272ull, "0.889477295627"},
      {&train, "torch-expandable", 10, 7117733888ull, "0.998761925054"},
      {&train, "gmlake", 10, 7992246272ull, "0.889477295627"},
      {&train, "stalloc", 10, 7108921856ull, "0.999999963989"},
      {&train, "stalloc-noreuse", 10, 7108921856ull, "0.999999963989"},
      {&train, "paged-kv", 10, 7344015360ull, "0.967988389392"},
      {&train, "vmm", 10, 7109345280ull, "0.999940405201"},
  };
  for (const Pin& pin : pins) {
    SCOPED_TRACE(StrFormat("%s x%d", pin.kind, pin.iterations));
    SimDevice dev(64ull * GiB);
    const std::unique_ptr<Allocator> alloc = CreateKind(*pin.trace, pin.kind, &dev);
    uint64_t ops = 0;
    for (int i = 0; i < pin.iterations; ++i) {
      const ReplayResult r = ReplayTrace(*pin.trace, alloc.get());
      ASSERT_FALSE(r.oom);
      ops += r.num_mallocs + r.num_frees;
    }
    EXPECT_EQ(ops, 2 * pin.trace->size() * static_cast<uint64_t>(pin.iterations));
    EXPECT_EQ(alloc->stats().reserved_peak, pin.reserved_peak);
    EXPECT_EQ(StrFormat("%.12g", alloc->stats().MemoryEfficiency()), pin.efficiency);
  }
}

// Placement must also be run-to-run deterministic: two fresh replays of the same storm hand out
// byte-identical address sequences.
TEST(PinnedPlacement, StormReplayIsDeterministic) {
  const Trace storm = BuildStormTrace(5000, 9);
  class AddrRecorder : public ReplayObserver {
   public:
    void AfterMalloc(ReplayEngine&, const ReplayOpView&, uint64_t addr) override {
      addrs.push_back(addr);
    }
    std::vector<uint64_t> addrs;
  };
  AddrRecorder first, second;
  {
    SimDevice dev(64ull * GiB);
    CachingAllocator alloc(&dev);
    ASSERT_FALSE(ReplayTrace(storm, &alloc, &first).oom);
  }
  {
    SimDevice dev(64ull * GiB);
    CachingAllocator alloc(&dev);
    ASSERT_FALSE(ReplayTrace(storm, &alloc, &second).oom);
  }
  ASSERT_EQ(first.addrs.size(), second.addrs.size());
  EXPECT_EQ(first.addrs, second.addrs);
}

}  // namespace
}  // namespace stalloc
