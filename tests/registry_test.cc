// AllocatorRegistry: name round trips, unknown-name errors, per-kind override plumbing, and the
// pinned built-in registration order.

#include "src/allocators/registry.h"

#include <memory>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/units.h"
#include "src/gpu/sim_device.h"

namespace stalloc {
namespace {

TEST(RegistryTest, UnknownNameIsAnError) {
  SimDevice device(1 * GiB);
  EXPECT_EQ(AllocatorRegistry::Global().Find("no-such-allocator"), nullptr);
  EXPECT_EQ(AllocatorRegistry::Global().Create("no-such-allocator", &device), nullptr);
}

TEST(RegistryTest, BuiltinOrderIsPinned) {
  // ClusterResult::Digest() mixes in a kind's registry position, so reordering the built-ins
  // would silently change every pinned cluster digest.
  const std::vector<std::string> expected = {
      "native", "torch-caching", "torch-expandable", "gmlake",
      "stalloc", "stalloc-noreuse", "paged-kv", "vmm"};
  AllocatorRegistry fresh;
  EXPECT_EQ(fresh.Names(), expected);
  EXPECT_EQ(fresh.size(), expected.size());
}

TEST(RegistryTest, NameRoundTrip) {
  const std::vector<std::string> names = AllocatorRegistry::Global().Names();
  EXPECT_EQ(names.size(), AllocatorRegistry::Global().size());
  for (const std::string& name : names) {
    const AllocatorRegistry::Entry* entry = AllocatorRegistry::Global().Find(name);
    ASSERT_NE(entry, nullptr) << name;
    EXPECT_EQ(entry->name, name);
  }
  // Names are unique.
  const std::set<std::string> unique(names.begin(), names.end());
  EXPECT_EQ(unique.size(), names.size());
}

TEST(RegistryTest, PlanKindsHaveNoFactory) {
  SimDevice device(1 * GiB);
  for (const char* name : {"stalloc", "stalloc-noreuse"}) {
    const AllocatorRegistry::Entry* entry = AllocatorRegistry::Global().Find(name);
    ASSERT_NE(entry, nullptr) << name;
    EXPECT_TRUE(entry->requires_plan) << name;
    EXPECT_EQ(AllocatorRegistry::Global().Create(name, &device), nullptr) << name;
  }
  // The plan kinds disappear from the shared-device listing.
  for (const std::string& name :
       AllocatorRegistry::Global().Names(/*include_plan_kinds=*/false)) {
    EXPECT_FALSE(AllocatorRegistry::Global().Find(name)->requires_plan) << name;
  }
  EXPECT_EQ(AllocatorRegistry::Global().Names(false).size(),
            AllocatorRegistry::Global().Names(true).size() - 2);
}

TEST(RegistryTest, CreatedAllocatorsReportTheirOwnStats) {
  for (const std::string& name :
       AllocatorRegistry::Global().Names(/*include_plan_kinds=*/false)) {
    SimDevice device(1 * GiB);
    auto alloc = AllocatorRegistry::Global().Create(name, &device);
    ASSERT_NE(alloc, nullptr) << name;
    auto addr = alloc->Malloc(4096);
    ASSERT_TRUE(addr.has_value()) << name;
    EXPECT_EQ(alloc->stats().num_mallocs, 1u) << name;
    EXPECT_TRUE(alloc->Free(*addr)) << name;
  }
}

TEST(RegistryTest, PagedBlockOverridePlumbsThrough) {
  // A 1-byte allocation makes the pool acquire one 64-block slab, so the page-size override is
  // directly observable through ReservedBytes granularity (64 x block_bytes).
  SimDevice device_default(4 * GiB);
  auto pool_default = AllocatorRegistry::Global().Create("paged-kv", &device_default);
  ASSERT_NE(pool_default, nullptr);
  ASSERT_TRUE(pool_default->Malloc(1).has_value());
  const uint64_t default_slab = pool_default->stats().reserved_peak;
  EXPECT_EQ(default_slab, 64 * 2 * MiB);  // PagedKVConfig defaults

  AllocatorOptions options;
  options.paged_block_bytes = 4 * MiB;
  SimDevice device_big(4 * GiB);
  auto pool_big = AllocatorRegistry::Global().Create("paged-kv", &device_big, options);
  ASSERT_NE(pool_big, nullptr);
  ASSERT_TRUE(pool_big->Malloc(1).has_value());
  EXPECT_EQ(pool_big->stats().reserved_peak, 64 * 4 * MiB);
  EXPECT_NE(pool_big->stats().reserved_peak, default_slab);
}

TEST(RegistryTest, GmlakeFragLimitOverridePlumbsThrough) {
  // The override only changes stitching behaviour under fragmentation pressure; constructing
  // with it must at least succeed and behave as a functioning allocator.
  AllocatorOptions options;
  options.gmlake_frag_limit = 64 * MiB;
  SimDevice device(1 * GiB);
  auto alloc = AllocatorRegistry::Global().Create("gmlake", &device, options);
  ASSERT_NE(alloc, nullptr);
  auto addr = alloc->Malloc(1 * MiB);
  ASSERT_TRUE(addr.has_value());
  EXPECT_TRUE(alloc->Free(*addr));
}

// The key is checked before its value, so a misspelled key is reported as such whatever follows
// the '='.
TEST(RegistryTest, ParseAllocatorOptionReportsTheFirstFault) {
  AllocatorOptions options;
  std::string error;
  EXPECT_FALSE(ParseAllocatorOption("vmm.small_size=0", &options, &error));
  EXPECT_EQ(error, "unknown allocator option 'vmm.small_size'");
  EXPECT_FALSE(ParseAllocatorOption("gmlake.frag_limit=lots", &options, &error));
  EXPECT_NE(error.find("allocator option 'gmlake.frag_limit': malformed byte size 'lots'"),
            std::string::npos)
      << error;
  EXPECT_FALSE(ParseAllocatorOption("paged.block_bytes", &options, &error));
  EXPECT_EQ(error, "allocator option must be key=value, got 'paged.block_bytes'");
  EXPECT_FALSE(ParseAllocatorOption("vmm.granularity=96K", &options, &error));
  EXPECT_EQ(error, "vmm.granularity must be a power of two >= 65536, got 96K");
  EXPECT_FALSE(ParseAllocatorOption("vmm.granularity=32K", &options, &error));
  EXPECT_EQ(options.gmlake_frag_limit, 0u);  // no failed parse wrote a field
  EXPECT_EQ(options.paged_block_bytes, 0u);
  EXPECT_EQ(options.vmm_granularity, 0u);
  EXPECT_TRUE(ParseAllocatorOption("vmm.granularity=128K", &options, &error));
  EXPECT_EQ(options.vmm_granularity, 128 * KiB);
}

// Mutating registration runs on a locally constructed registry so the Global() singleton the
// other tests pin stays untouched.
TEST(RegistryTest, NewKindsRegisterInOnePlace) {
  AllocatorRegistry registry;
  const size_t builtins = registry.size();
  registry.Register({"paged-kv-2m", /*requires_plan=*/false,
                     [](SimDevice* device, const AllocatorOptions&) -> std::unique_ptr<Allocator> {
                       SimDevice* d = device;
                       AllocatorOptions opts;
                       opts.paged_block_bytes = 2 * MiB;
                       return AllocatorRegistry::Global().Create("paged-kv", d, opts);
                     },
                     /*options_help=*/""});
  EXPECT_EQ(registry.size(), builtins + 1);
  SimDevice device(1 * GiB);
  auto alloc = registry.Create("paged-kv-2m", &device);
  ASSERT_NE(alloc, nullptr);
  ASSERT_TRUE(alloc->Malloc(1).has_value());
  EXPECT_EQ(alloc->stats().reserved_peak, 64 * 2 * MiB);
  // Registered external kinds are listed after the built-ins.
  EXPECT_EQ(registry.Names().back(), "paged-kv-2m");
}

}  // namespace
}  // namespace stalloc
