// PagedKVAllocator invariants: block-pool hits, deterministic block reuse, slab growth and
// release, native passthrough for oversized requests, and accounting (no-stomp is enforced
// globally by AllocatorBase, which aborts on any overlap of live blocks).

#include "src/allocators/paged_kv.h"

#include <optional>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "src/api/session.h"
#include "src/common/units.h"
#include "src/trainsim/model_config.h"

namespace stalloc {
namespace {

PagedKVConfig SmallPool() {
  PagedKVConfig config;
  config.block_bytes = 1 * MiB;
  config.slab_blocks = 4;
  return config;
}

TEST(PagedKV, BlockRequestsComeFromThePool) {
  SimDevice device(1 * GiB);
  PagedKVAllocator alloc(&device, SmallPool());
  auto a = alloc.Malloc(1 * MiB);
  auto b = alloc.Malloc(512 * KiB);  // any request <= block_bytes consumes one block
  ASSERT_TRUE(a.has_value() && b.has_value());
  EXPECT_EQ(alloc.num_slabs(), 1u);
  EXPECT_EQ(*b - *a, 1 * MiB) << "consecutive blocks of one slab";
  // One slab = one device allocation, regardless of block count.
  EXPECT_EQ(device.counters().cuda_malloc, 1u);
  EXPECT_EQ(alloc.ReservedBytes(), 4 * MiB);
  alloc.Free(*a);
  alloc.Free(*b);
}

TEST(PagedKV, FreedBlocksAreReusedLowestAddressFirst) {
  SimDevice device(1 * GiB);
  PagedKVAllocator alloc(&device, SmallPool());
  std::vector<uint64_t> addrs;
  for (int i = 0; i < 4; ++i) {
    addrs.push_back(*alloc.Malloc(1 * MiB));
  }
  alloc.Free(addrs[2]);
  alloc.Free(addrs[0]);
  // Lowest freed address wins, deterministically.
  EXPECT_EQ(*alloc.Malloc(1 * MiB), addrs[0]);
  EXPECT_EQ(*alloc.Malloc(1 * MiB), addrs[2]);
  EXPECT_EQ(alloc.num_slabs(), 1u) << "reuse must not grow the pool";
  for (uint64_t a : addrs) {
    alloc.Free(a);
  }
}

TEST(PagedKV, PoolGrowsBySlabsAndShrinksUnderDevicePressure) {
  // 3 MiB device, 4-block slabs of 1 MiB: the first grow must halve down to 2 blocks.
  SimDevice device(3 * MiB);
  PagedKVAllocator alloc(&device, SmallPool());
  auto a = alloc.Malloc(1 * MiB);
  auto b = alloc.Malloc(1 * MiB);
  auto c = alloc.Malloc(1 * MiB);
  ASSERT_TRUE(a.has_value() && b.has_value() && c.has_value());
  EXPECT_EQ(alloc.num_slabs(), 2u);
  EXPECT_FALSE(alloc.Malloc(1 * MiB).has_value()) << "device exhausted";
  alloc.Free(*a);
  alloc.Free(*b);
  alloc.Free(*c);
}

TEST(PagedKV, OversizedRequestsPassThroughNatively) {
  SimDevice device(1 * GiB);
  PagedKVAllocator alloc(&device, SmallPool());
  auto big = alloc.Malloc(64 * MiB);
  ASSERT_TRUE(big.has_value());
  EXPECT_EQ(alloc.num_slabs(), 0u) << "no pool involvement";
  EXPECT_EQ(alloc.ReservedBytes(), 64 * MiB);
  alloc.Free(*big);
  EXPECT_EQ(alloc.ReservedBytes(), 0u);
  EXPECT_EQ(device.physical_used(), 0u);
}

TEST(PagedKV, EmptyCacheReleasesOnlyFullyFreeSlabs) {
  SimDevice device(1 * GiB);
  PagedKVAllocator alloc(&device, SmallPool());
  std::vector<uint64_t> addrs;
  for (int i = 0; i < 8; ++i) {  // two slabs
    addrs.push_back(*alloc.Malloc(1 * MiB));
  }
  ASSERT_EQ(alloc.num_slabs(), 2u);
  // Free all of the second slab, half of the first.
  for (int i = 2; i < 8; ++i) {
    alloc.Free(addrs[i]);
  }
  alloc.EmptyCache();
  EXPECT_EQ(alloc.num_slabs(), 1u) << "the half-used slab must stay";
  EXPECT_EQ(alloc.ReservedBytes(), 4 * MiB);
  alloc.Free(addrs[0]);
  alloc.Free(addrs[1]);
  alloc.EmptyCache();
  EXPECT_EQ(alloc.num_slabs(), 0u);
  EXPECT_EQ(alloc.ReservedBytes(), 0u);
  EXPECT_EQ(device.physical_used(), 0u);
}

TEST(PagedKV, OomOnPoolPathRetriesAfterReleasingSlabs) {
  // Device fits exactly one 4-block slab. A passthrough request then needs the whole device:
  // the allocator must release the (fully free) slab and succeed.
  SimDevice device(4 * MiB);
  PagedKVAllocator alloc(&device, SmallPool());
  auto block = alloc.Malloc(1 * MiB);
  ASSERT_TRUE(block.has_value());
  alloc.Free(*block);
  auto big = alloc.Malloc(4 * MiB - 512);
  ASSERT_TRUE(big.has_value()) << "EmptyCache retry must reclaim the free slab";
  alloc.Free(*big);
}

TEST(PagedKV, StatsTrackInternalFragmentation) {
  SimDevice device(1 * GiB);
  PagedKVConfig config = SmallPool();
  config.slab_blocks = 1;  // reserved tracks blocks exactly
  PagedKVAllocator alloc(&device, config);
  auto a = alloc.Malloc(256 * KiB);  // quarter-block request
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(alloc.stats().allocated_current, 256 * KiB);
  EXPECT_EQ(alloc.ReservedBytes(), 1 * MiB);
  // E = Ma / Mr = 0.25: the tail of the block is internal waste.
  EXPECT_NEAR(alloc.stats().MemoryEfficiency(), 0.25, 1e-9);
  alloc.Free(*a);
}

TEST(PagedKV, RunsTheTrainingHarnessToo) {
  // paged-kv is a first-class registry kind: the training experiment path must complete (large
  // tensors all take the passthrough).
  ExperimentSpec spec;
  spec.model = "gpt2";
  spec.train.parallel.pp = 2;
  spec.train.num_microbatches = 2;
  spec.train.micro_batch_size = 2;
  const ExperimentResult r = *Session().RunOne(spec, "paged-kv").train_rank;
  EXPECT_FALSE(r.oom);
  EXPECT_GT(r.memory_efficiency, 0.5);
}

}  // namespace
}  // namespace stalloc
