// Coverage for src/allocators/free_index.h and the allocators that moved onto it.
//
// The BestFitIndex replaced the flat ordered (size, addr) sets the caching-style allocators
// searched linearly through node-based trees; its contract is that every selection is
// bit-identical to what lower_bound on the flat set would have picked. Two layers of evidence:
//   * a reference model — the seed's std::set<(size, addr)> — driven with the same adversarial
//     insert/erase/pop interleavings, asserting identical decisions op by op;
//   * pinned placement: Ma/Mr of the refactored caching/expandable/GMLake allocators over a
//     recorded storm trace and a training trace must equal values recorded from the pre-refactor
//     (seed) allocators, and the address-level placement digests of `native` and `paged-kv`
//     must equal those recorded before SimDevice's arena was indexed.

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
#include "src/common/units.h"
#include "src/driver/replay.h"
#include "src/gpu/sim_device.h"
#include "src/replay/replay_engine.h"
#include "src/trace/synthetic.h"
#include "src/trainsim/model_config.h"
#include "src/trainsim/workload.h"

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
// linear IntervalSet::FirstFit arena that the indexed first-fit arena replaced.
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
  EXPECT_EQ(PlacementDigest(storm, "native"), 0xac7310b4caf2ca95ull);
  EXPECT_EQ(PlacementDigest(storm, "paged-kv"), 0xdb98a3cd0da53261ull);
  EXPECT_EQ(PlacementDigest(train, "native"), 0xce4dfc4b016e7e92ull);
  EXPECT_EQ(PlacementDigest(train, "paged-kv"), 0xe520557d0358578aull);
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
