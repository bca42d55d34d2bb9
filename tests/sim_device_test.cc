#include "src/gpu/sim_device.h"

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <map>
#include <optional>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/common/units.h"

namespace stalloc {
namespace {

TEST(SimDevice, MallocFreeRoundtrip) {
  SimDevice dev(1 * GiB);
  auto a = dev.DevMalloc(100 * MiB);
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(dev.physical_used(), AlignUp(100 * MiB, SimDevice::kMallocAlign));
  EXPECT_EQ(dev.DevFree(*a), DeviceStatus::kOk);
  EXPECT_EQ(dev.physical_used(), 0u);
  EXPECT_EQ(dev.live_classic_allocs(), 0u);
}

TEST(SimDevice, MallocAlignsTo512) {
  SimDevice dev(1 * GiB);
  auto a = dev.DevMalloc(1);
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(*a % SimDevice::kMallocAlign, 0u);
  EXPECT_EQ(dev.physical_used(), 512u);
  dev.DevFree(*a);
}

TEST(SimDevice, MallocZeroFails) {
  SimDevice dev(1 * GiB);
  EXPECT_FALSE(dev.DevMalloc(0).has_value());
}

TEST(SimDevice, OomWhenCapacityExceeded) {
  SimDevice dev(100 * MiB);
  auto a = dev.DevMalloc(60 * MiB);
  ASSERT_TRUE(a.has_value());
  EXPECT_FALSE(dev.DevMalloc(60 * MiB).has_value());
  dev.DevFree(*a);
  EXPECT_TRUE(dev.DevMalloc(60 * MiB).has_value());
}

TEST(SimDevice, DistinctAllocationsDoNotOverlap) {
  SimDevice dev(1 * GiB);
  auto a = dev.DevMalloc(10 * MiB);
  auto b = dev.DevMalloc(10 * MiB);
  ASSERT_TRUE(a.has_value() && b.has_value());
  EXPECT_NE(*a, *b);
  const uint64_t alo = *a;
  const uint64_t ahi = alo + 10 * MiB;
  const uint64_t blo = *b;
  EXPECT_TRUE(blo >= ahi || blo + 10 * MiB <= alo);
}

TEST(SimDevice, FreeUnknownPointerFails) {
  SimDevice dev(1 * GiB);
  EXPECT_EQ(dev.DevFree(0xdead), DeviceStatus::kInvalidArgument);
}

TEST(SimDevice, PeakTracksHighWaterMark) {
  SimDevice dev(1 * GiB);
  auto a = dev.DevMalloc(100 * MiB);
  auto b = dev.DevMalloc(200 * MiB);
  dev.DevFree(*a);
  dev.DevFree(*b);
  EXPECT_EQ(dev.physical_peak(), 300 * MiB);
  EXPECT_EQ(dev.physical_used(), 0u);
}

TEST(SimDevice, ReserveVaRequiresGranularity) {
  SimDevice dev(1 * GiB);
  EXPECT_FALSE(dev.ReserveVa(SimDevice::kGranularity + 1).has_value());
  EXPECT_TRUE(dev.ReserveVa(SimDevice::kGranularity).has_value());
}

TEST(SimDevice, VaReservationConsumesNoPhysical) {
  SimDevice dev(64 * MiB);
  // Reserve far more virtual space than physical capacity: must succeed.
  auto va = dev.ReserveVa(16 * GiB);
  ASSERT_TRUE(va.has_value());
  EXPECT_EQ(dev.physical_used(), 0u);
  EXPECT_EQ(dev.FreeVa(*va), DeviceStatus::kOk);
}

TEST(SimDevice, MemCreateCountsAgainstCapacity) {
  SimDevice dev(10 * MiB);
  auto h = dev.MemCreate(8 * MiB);
  ASSERT_TRUE(h.has_value());
  EXPECT_EQ(dev.physical_used(), 8 * MiB);
  EXPECT_FALSE(dev.MemCreate(4 * MiB).has_value());  // over capacity
  EXPECT_EQ(dev.MemRelease(*h), DeviceStatus::kOk);
  EXPECT_EQ(dev.physical_used(), 0u);
}

// Sizes near 2^64 fail instead of wrapping in the size arithmetic, and leave the device usable.
TEST(SimDevice, HugeSizesFailWithoutWrapping) {
  SimDevice dev(1 * GiB);
  const uint64_t top_granule = AlignDown(~uint64_t{0}, SimDevice::kMinGranularity);
  auto h = dev.MemCreate(SimDevice::kGranularity);
  ASSERT_TRUE(h.has_value());
  EXPECT_FALSE(dev.DevMalloc(~uint64_t{0}).has_value());
  EXPECT_FALSE(dev.DevMalloc(~uint64_t{0} - 511).has_value());
  EXPECT_FALSE(dev.MemCreate(top_granule).has_value());
  EXPECT_FALSE(dev.ReserveVa(top_granule).has_value());
  EXPECT_EQ(dev.physical_used(), SimDevice::kGranularity);
  EXPECT_EQ(dev.live_handles(), 1u);
  EXPECT_EQ(dev.live_reservations(), 0u);
  auto a = dev.DevMalloc(4 * KiB);
  auto va = dev.ReserveVa(SimDevice::kGranularity);
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(va.has_value());
  EXPECT_EQ(dev.MemMap(*va, 0, *h), DeviceStatus::kOk);
  EXPECT_EQ(dev.MemUnmap(*va, 0, SimDevice::kGranularity), DeviceStatus::kOk);
  EXPECT_EQ(dev.MemRelease(*h), DeviceStatus::kOk);
  EXPECT_EQ(dev.FreeVa(*va), DeviceStatus::kOk);
  EXPECT_EQ(dev.DevFree(*a), DeviceStatus::kOk);
}

TEST(SimDevice, MapUnmapLifecycle) {
  SimDevice dev(1 * GiB);
  auto va = dev.ReserveVa(8 * MiB);
  auto h = dev.MemCreate(2 * MiB);
  ASSERT_TRUE(va.has_value() && h.has_value());
  EXPECT_EQ(dev.MemMap(*va, 0, *h), DeviceStatus::kOk);
  // Cannot map the same handle twice.
  EXPECT_EQ(dev.MemMap(*va, 4 * MiB, *h), DeviceStatus::kInvalidArgument);
  // Cannot release while mapped.
  EXPECT_EQ(dev.MemRelease(*h), DeviceStatus::kInvalidArgument);
  // Cannot free the reservation while mapped.
  EXPECT_EQ(dev.FreeVa(*va), DeviceStatus::kInvalidArgument);
  EXPECT_EQ(dev.MemUnmap(*va, 0, 2 * MiB), DeviceStatus::kOk);
  EXPECT_EQ(dev.MemRelease(*h), DeviceStatus::kOk);
  EXPECT_EQ(dev.FreeVa(*va), DeviceStatus::kOk);
}

TEST(SimDevice, MapRejectsOverlap) {
  SimDevice dev(1 * GiB);
  auto va = dev.ReserveVa(8 * MiB);
  auto h1 = dev.MemCreate(4 * MiB);
  auto h2 = dev.MemCreate(4 * MiB);
  EXPECT_EQ(dev.MemMap(*va, 0, *h1), DeviceStatus::kOk);
  EXPECT_EQ(dev.MemMap(*va, 2 * MiB, *h2), DeviceStatus::kInvalidArgument);  // overlaps h1
  EXPECT_EQ(dev.MemMap(*va, 4 * MiB, *h2), DeviceStatus::kOk);
}

TEST(SimDevice, MapRejectsOutOfReservation) {
  SimDevice dev(1 * GiB);
  auto va = dev.ReserveVa(4 * MiB);
  auto h = dev.MemCreate(4 * MiB);
  EXPECT_EQ(dev.MemMap(*va, 2 * MiB, *h), DeviceStatus::kInvalidArgument);
}

TEST(SimDevice, UnmapMustCoverWholeMappings) {
  SimDevice dev(1 * GiB);
  auto va = dev.ReserveVa(8 * MiB);
  auto h = dev.MemCreate(4 * MiB);
  EXPECT_EQ(dev.MemMap(*va, 0, *h), DeviceStatus::kOk);
  EXPECT_EQ(dev.MemUnmap(*va, 0, 2 * MiB), DeviceStatus::kInvalidArgument);  // partial
  EXPECT_EQ(dev.MemUnmap(*va, 0, 4 * MiB), DeviceStatus::kOk);
}

TEST(SimDevice, CostLedgerAccumulates) {
  DeviceCostModel cost;
  cost.cuda_malloc_us = 100;
  cost.cuda_free_us = 50;
  SimDevice dev(1 * GiB, cost);
  auto a = dev.DevMalloc(1 * MiB);
  dev.DevFree(*a);
  EXPECT_EQ(dev.counters().cuda_malloc, 1u);
  EXPECT_EQ(dev.counters().cuda_free, 1u);
  EXPECT_DOUBLE_EQ(dev.counters().total_cost_us, 150.0);
}

TEST(SimDevice, ClassicAndVmmShareCapacity) {
  SimDevice dev(10 * MiB);
  auto a = dev.DevMalloc(6 * MiB);
  ASSERT_TRUE(a.has_value());
  EXPECT_FALSE(dev.MemCreate(6 * MiB).has_value());
  dev.DevFree(*a);
  EXPECT_TRUE(dev.MemCreate(6 * MiB).has_value());
}

// The classic arena as it was before it was indexed: an address-ordered map of free ranges
// searched linearly for the first fit, the shared physical budget check, and the address -> size
// ledger. The indexed arena must reproduce every decision of this reference.
class LinearArenaReference {
 public:
  LinearArenaReference(uint64_t base, uint64_t capacity) : capacity_(capacity) {
    free_.emplace(base, base + capacity);
  }

  std::optional<uint64_t> Malloc(uint64_t size) {
    if (size == 0) {
      return std::nullopt;
    }
    const uint64_t aligned = AlignUp(size, SimDevice::kMallocAlign);
    if (used_ + aligned > capacity_) {
      return std::nullopt;
    }
    auto fit = std::find_if(free_.begin(), free_.end(),
                            [&](const auto& range) { return range.second - range.first >= aligned; });
    if (fit == free_.end()) {
      return std::nullopt;
    }
    const uint64_t addr = fit->first;
    const uint64_t end = fit->second;
    free_.erase(fit);
    if (addr + aligned < end) {
      free_.emplace(addr + aligned, end);
    }
    allocs_.emplace(addr, aligned);
    used_ += aligned;
    return addr;
  }

  DeviceStatus Free(uint64_t ptr) {
    auto it = allocs_.find(ptr);
    if (it == allocs_.end()) {
      return DeviceStatus::kInvalidArgument;
    }
    uint64_t lo = ptr;
    uint64_t hi = ptr + it->second;
    used_ -= it->second;
    allocs_.erase(it);
    auto next = free_.lower_bound(lo);
    if (next != free_.end() && next->first == hi) {
      hi = next->second;
      next = free_.erase(next);
    }
    if (next != free_.begin() && std::prev(next)->second == lo) {
      lo = std::prev(next)->first;
      free_.erase(std::prev(next));
    }
    free_.emplace(lo, hi);
    return DeviceStatus::kOk;
  }

  uint64_t used() const { return used_; }
  // Free ranges, start -> end: disjoint and non-adjacent.
  const std::map<uint64_t, uint64_t>& free_ranges() const { return free_; }
  uint64_t free_total() const {
    uint64_t total = 0;
    for (const auto& [lo, hi] : free_) {
      total += hi - lo;
    }
    return total;
  }
  uint64_t largest_free() const {
    uint64_t largest = 0;
    for (const auto& [lo, hi] : free_) {
      largest = std::max(largest, hi - lo);
    }
    return largest;
  }

 private:
  uint64_t capacity_;
  uint64_t used_ = 0;
  std::map<uint64_t, uint64_t> free_;
  std::map<uint64_t, uint64_t> allocs_;
};

// Random DevMalloc/DevFree against the linear reference: sizes straddling power-of-two class
// boundaries, exact fits of existing holes, frees that coalesce on both sides, invalid frees,
// and fill phases that fragment the arena all the way to OOM. After every op the returned
// address or status, the free total and the largest free region must match.
TEST(SimDevice, IndexedArenaMatchesLinearFirstFitReference) {
  constexpr uint64_t kCapacity = 64 * MiB;
  const uint64_t base = *SimDevice(kCapacity).DevMalloc(1);  // first fit of an empty arena
  SimDevice dev(kCapacity);
  LinearArenaReference ref(base, kCapacity);
  Rng rng(77);
  std::vector<uint64_t> live;
  bool filling = true;
  int physical_ooms = 0, fragmented_ooms = 0, exact_fits = 0, two_sided_merges = 0;

  for (int op = 0; op < 30000; ++op) {
    const uint64_t dice = rng.NextBelow(100);
    if (filling ? dice < 80 : dice < 15) {
      uint64_t size = 0;
      const std::map<uint64_t, uint64_t>& holes = ref.free_ranges();
      if (dice < 40) {
        // Around a class boundary 2^k: one size class below, on, or above it.
        const uint64_t pow = uint64_t{1} << rng.NextInRange(9, 24);
        const uint64_t deltas[] = {0, 1, 511, 512, pow - 512, pow - 1};
        const uint64_t d = deltas[rng.NextBelow(6)];
        size = rng.NextBelow(2) == 0 ? pow + d : pow - std::min(d, pow - 1);
      } else if (dice < 60 && !holes.empty()) {
        const auto hole = std::next(holes.begin(), rng.NextBelow(holes.size()));
        size = hole->second - hole->first;  // an exact fit
        ++exact_fits;
      } else {
        size = rng.NextInRange(1, 2 * MiB);
      }
      const std::optional<uint64_t> want = ref.Malloc(size);
      const std::optional<DevPtr> got = dev.DevMalloc(size);
      ASSERT_EQ(got, want) << "op " << op << " size " << size;
      if (want.has_value()) {
        live.push_back(*want);
      } else {
        const uint64_t aligned = AlignUp(size, SimDevice::kMallocAlign);
        (ref.used() + aligned > kCapacity ? physical_ooms : fragmented_ooms)++;
        filling = false;  // drain, then fill again
      }
    } else if (dice < 97 && !live.empty()) {
      const size_t pick = rng.NextBelow(live.size());
      const uint64_t ptr = live[pick];
      live[pick] = live.back();
      live.pop_back();
      const size_t ranges_before = ref.free_ranges().size();
      ASSERT_EQ(dev.DevFree(ptr), ref.Free(ptr)) << "op " << op;
      if (ref.free_ranges().size() + 1 == ranges_before) {
        ++two_sided_merges;
      }
      if (ref.used() < kCapacity / 3) {
        filling = true;
      }
    } else {
      // Never a live allocation: a misaligned interior pointer, or the end of the arena.
      uint64_t ptr = base + kCapacity;
      if (!live.empty()) {
        ptr = live[rng.NextBelow(live.size())] + rng.NextInRange(1, 511);
      }
      ASSERT_EQ(dev.DevFree(ptr), ref.Free(ptr)) << "op " << op;
    }
    ASSERT_EQ(dev.classic_free_total(), ref.free_total()) << "op " << op;
    ASSERT_EQ(dev.classic_largest_free(), ref.largest_free()) << "op " << op;
    ASSERT_EQ(dev.classic_used(), ref.used()) << "op " << op;
  }
  // The walk must actually have reached every path it claims to cover.
  EXPECT_GT(physical_ooms, 0);
  EXPECT_GT(fragmented_ooms, 0);
  EXPECT_GT(exact_fits, 0);
  EXPECT_GT(two_sided_merges, 0);
}

}  // namespace
}  // namespace stalloc
