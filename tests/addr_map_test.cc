// AddrMap (src/common/addr_map.h): a seeded differential test against std::map over 512-aligned
// and clustered address streams, plus the edges — key 0, the ~0 sentinel, duplicate inserts,
// growth, and backward-shift deletion across the end of the slot array.

#include "src/common/addr_map.h"

#include <algorithm>
#include <cstdint>
#include <map>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/rng.h"

namespace stalloc {
namespace {

// Every key of `ref` is in `map` with the same value, and the sizes agree.
void ExpectSame(const AddrMap<uint64_t>& map, const std::map<uint64_t, uint64_t>& ref) {
  ASSERT_EQ(map.size(), ref.size());
  for (const auto& [key, value] : ref) {
    const uint64_t* got = map.Find(key);
    ASSERT_NE(got, nullptr) << key;
    EXPECT_EQ(*got, value) << key;
  }
  size_t visited = 0;
  map.ForEach([&](uint64_t key, uint64_t value) {
    auto it = ref.find(key);
    ASSERT_NE(it, ref.end()) << key;
    EXPECT_EQ(it->second, value);
    ++visited;
  });
  EXPECT_EQ(visited, ref.size());
}

// Random inserts, erases and lookups on the same key stream applied to both maps. `next_key`
// draws a key; erases pick a live key (or a dead one, which both must reject).
template <typename KeyFn>
void RunDifferential(uint64_t seed, int ops, KeyFn next_key) {
  Rng rng(seed);
  AddrMap<uint64_t> map;
  std::map<uint64_t, uint64_t> ref;
  std::vector<uint64_t> keys;  // every key ever inserted, live or not
  size_t max_capacity = 0;
  for (int op = 0; op < ops; ++op) {
    const uint64_t roll = rng.NextBelow(100);
    // Insert-heavy phases grow the table, erase-heavy phases drain it through backward shifts.
    const bool growing = (op / 20000) % 2 == 0;
    if (roll < (growing ? 60u : 30u) || keys.empty()) {
      const uint64_t key = next_key(rng);
      const uint64_t value = rng.Next();
      const bool inserted = map.Insert(key, value);
      const bool ref_inserted = ref.emplace(key, value).second;
      ASSERT_EQ(inserted, ref_inserted) << "op " << op << " key " << key;
      keys.push_back(key);
    } else if (roll < 90) {
      const uint64_t key = keys[rng.NextBelow(keys.size())];
      auto it = ref.find(key);
      uint64_t removed = 0;
      ASSERT_EQ(map.Erase(key, &removed), it != ref.end()) << "op " << op << " key " << key;
      if (it != ref.end()) {
        ASSERT_EQ(removed, it->second) << "op " << op << " key " << key;
        ref.erase(it);
      }
    } else {
      const uint64_t key = rng.NextBelow(2) == 0 ? keys[rng.NextBelow(keys.size())] : next_key(rng);
      const uint64_t* got = map.Find(key);
      auto it = ref.find(key);
      ASSERT_EQ(got != nullptr, it != ref.end()) << "op " << op << " key " << key;
      if (got != nullptr) {
        ASSERT_EQ(*got, it->second);
      }
    }
    // The load stays in (0, 3/4]: the table doubles before it would pass three quarters.
    ASSERT_LE(map.size() * 4, map.capacity() * 3);
    max_capacity = std::max(max_capacity, map.capacity());
    if (op % 10000 == 0) {
      ExpectSame(map, ref);
    }
  }
  ExpectSame(map, ref);
  EXPECT_GE(max_capacity, 1024u) << "the stream must force several doublings";
}

TEST(AddrMap, DifferentialAlignedKeys) {
  // cudaMalloc-style addresses: 512-aligned offsets over a 1 GiB window.
  RunDifferential(0xA11CE, 120000, [](Rng& rng) {
    return (uint64_t{0x7000} << 32) + rng.NextBelow(uint64_t{1} << 21) * 512;
  });
}

TEST(AddrMap, DifferentialClusteredKeys) {
  // A few dense runs of adjacent 512-byte blocks, the shape a bump allocator or a split
  // segment leaves behind: consecutive keys probe neighbouring homes.
  RunDifferential(0xC1A55, 120000, [](Rng& rng) {
    const uint64_t cluster = rng.NextBelow(8);
    return (cluster << 40) + rng.NextBelow(4096) * 512;
  });
}

TEST(AddrMap, KeyZeroIsARealKey) {
  AddrMap<uint64_t> map;
  EXPECT_EQ(map.Find(0), nullptr);
  ASSERT_TRUE(map.Insert(0, 42));
  ASSERT_NE(map.Find(0), nullptr);
  EXPECT_EQ(*map.Find(0), 42u);
  EXPECT_TRUE(map.Erase(0));
  EXPECT_EQ(map.Find(0), nullptr);
  EXPECT_FALSE(map.Erase(0));
}

TEST(AddrMap, SentinelKeyIsAlwaysAMiss) {
  AddrMap<uint64_t> map;
  EXPECT_EQ(map.Find(AddrMap<uint64_t>::kEmptyKey), nullptr);  // empty table
  ASSERT_TRUE(map.Insert(512, 1));
  // With empty slots present, a naive probe would "find" ~0 in the first one.
  EXPECT_EQ(map.Find(AddrMap<uint64_t>::kEmptyKey), nullptr);
  EXPECT_FALSE(map.Erase(AddrMap<uint64_t>::kEmptyKey));
  EXPECT_EQ(map.size(), 1u);
  EXPECT_DEATH(map.Insert(AddrMap<uint64_t>::kEmptyKey, 1), "empty-slot sentinel");
}

TEST(AddrMap, DuplicateInsertIsRejected) {
  AddrMap<uint64_t> map;
  ASSERT_TRUE(map.Insert(4096, 7));
  EXPECT_FALSE(map.Insert(4096, 8));
  EXPECT_EQ(*map.Find(4096), 7u);
  EXPECT_EQ(map.size(), 1u);
}

TEST(AddrMap, GrowsByDoublingAndKeepsEveryKey) {
  AddrMap<uint32_t> map;
  EXPECT_EQ(map.capacity(), 0u);
  for (uint32_t i = 0; i < 5000; ++i) {
    ASSERT_TRUE(map.Insert(uint64_t{i} * 512, i));
    const size_t cap = map.capacity();
    ASSERT_EQ(cap & (cap - 1), 0u) << "capacity must stay a power of two";
  }
  EXPECT_EQ(map.capacity(), 8192u);  // 5000 > 3/4 of 4096
  for (uint32_t i = 0; i < 5000; ++i) {
    const uint32_t* slot = map.Find(uint64_t{i} * 512);
    ASSERT_NE(slot, nullptr);
    EXPECT_EQ(*slot, i);
  }
}

// Three keys homed in the last slot occupy it and wrap to slots 0 and 1. Erasing the first must
// shift both back across the end of the array, or the probe for them stops at the hole.
TEST(AddrMap, BackwardShiftWrapsPastTheEnd) {
  AddrMap<uint64_t> map;
  ASSERT_TRUE(map.Insert(1, 1));  // allocates the minimum table
  ASSERT_TRUE(map.Erase(1));
  const size_t last = map.capacity() - 1;
  std::vector<uint64_t> tail_keys;
  for (uint64_t key = 512; tail_keys.size() < 3; key += 512) {
    if (map.HomeSlot(key) == last) {
      tail_keys.push_back(key);
    }
  }
  // And one key homed in slot 1: it sits behind the wrapped run and may not move before home.
  uint64_t slot1_key = 0;
  for (uint64_t key = 512; slot1_key == 0; key += 512) {
    if (map.HomeSlot(key) == 1) {
      slot1_key = key;
    }
  }
  for (uint64_t key : tail_keys) {
    ASSERT_TRUE(map.Insert(key, key + 1));
  }
  ASSERT_TRUE(map.Insert(slot1_key, 99));
  ASSERT_EQ(map.capacity(), last + 1) << "no growth: the run must wrap in this table";

  ASSERT_TRUE(map.Erase(tail_keys[0]));
  EXPECT_EQ(map.Find(tail_keys[0]), nullptr);
  for (size_t i = 1; i < tail_keys.size(); ++i) {
    const uint64_t* got = map.Find(tail_keys[i]);
    ASSERT_NE(got, nullptr) << "key " << i << " lost by a shift across the end";
    EXPECT_EQ(*got, tail_keys[i] + 1);
  }
  ASSERT_NE(map.Find(slot1_key), nullptr);
  EXPECT_EQ(*map.Find(slot1_key), 99u);

  // Erase the middle of the wrapped run too, then refill the freed slots.
  ASSERT_TRUE(map.Erase(tail_keys[1]));
  ASSERT_NE(map.Find(tail_keys[2]), nullptr);
  ASSERT_NE(map.Find(slot1_key), nullptr);
  ASSERT_TRUE(map.Insert(tail_keys[0], 5));
  ASSERT_TRUE(map.Insert(tail_keys[1], 6));
  EXPECT_EQ(map.size(), 4u);
  EXPECT_EQ(*map.Find(tail_keys[0]), 5u);
  EXPECT_EQ(*map.Find(tail_keys[1]), 6u);
  EXPECT_EQ(*map.Find(tail_keys[2]), tail_keys[2] + 1);
}

}  // namespace
}  // namespace stalloc
