// Coverage for the instrumented Allocator interface (src/allocators/allocator.h): the built-in
// AllocatorStats counters (bytes moved, live blocks, peaks) every driver reads instead of
// keeping its own. Per-op latency is telemetry's job (tests/telemetry_test.cc).

#include <cstdint>

#include <gtest/gtest.h>

#include "src/allocators/native_allocator.h"
#include "src/common/units.h"
#include "src/gpu/sim_device.h"

namespace stalloc {
namespace {

TEST(AllocatorStats, BytesMovedAccumulate) {
  SimDevice dev(1 * GiB);
  NativeAllocator alloc(&dev);
  auto a = alloc.Malloc(10 * MiB);
  auto b = alloc.Malloc(6 * MiB);
  ASSERT_TRUE(a.has_value() && b.has_value());
  alloc.Free(*a);

  const AllocatorStats& s = alloc.stats();
  EXPECT_EQ(s.bytes_allocated_total, 16 * MiB);
  EXPECT_EQ(s.bytes_freed_total, 10 * MiB);
  EXPECT_EQ(s.allocated_current, 6 * MiB);
  EXPECT_EQ(s.live_blocks, 1u);
}

TEST(AllocatorStats, EfficiencyAndFragmentationDeriveFromPeaks) {
  AllocatorStats s;
  s.allocated_peak = 3 * GiB;
  s.reserved_peak = 4 * GiB;
  EXPECT_DOUBLE_EQ(s.MemoryEfficiency(), 0.75);
  EXPECT_DOUBLE_EQ(s.FragmentationRatio(), 0.25);
  EXPECT_EQ(s.FragmentationBytes(), 1 * GiB);
  AllocatorStats empty;
  EXPECT_DOUBLE_EQ(empty.MemoryEfficiency(), 1.0);
  EXPECT_EQ(empty.FragmentationBytes(), 0u);
}

}  // namespace
}  // namespace stalloc
