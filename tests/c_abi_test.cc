// The stalloc_c shared-library boundary (src/cabi): every behavior an external (PyTorch
// pluggable-allocator-style) client depends on, exercised through the exported C functions —
// round-trips, error returns instead of aborts, valid stats JSON, and replay digests that are
// bit-identical to the in-process path.

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/allocators/allocator.h"
#include "src/allocators/registry.h"
#include "src/api/report.h"
#include "src/cabi/stalloc_c.h"
#include "src/common/units.h"
#include "src/driver/replay.h"
#include "src/gpu/sim_device.h"
#include "src/replay/replay_engine.h"
#include "src/trace/synthetic.h"
#include "src/trace/trace_io.h"

namespace stalloc {
namespace {

TEST(CAbi, MallocFreeRoundTrip) {
  stalloc_handle* h = stalloc_create("vmm", 1 * GiB, "vmm.granularity=2MiB");
  ASSERT_NE(h, nullptr) << stalloc_last_error();
  const uint64_t a = stalloc_malloc(h, 64 * MiB, 0);
  const uint64_t b = stalloc_malloc(h, 300, 0);
  EXPECT_NE(a, 0u);
  EXPECT_NE(b, 0u);
  EXPECT_NE(a, b);
  EXPECT_EQ(stalloc_free(h, a), 0);
  EXPECT_EQ(stalloc_free(h, b), 0);
  stalloc_destroy(h);
}

TEST(CAbi, CreateRejectsBadArguments) {
  EXPECT_EQ(stalloc_create("no-such-allocator", 1 * GiB, nullptr), nullptr);
  EXPECT_NE(std::string(stalloc_last_error()), "");
  EXPECT_EQ(stalloc_create("vmm", 0, nullptr), nullptr);
  // Plan-requiring kinds cannot run behind the plan-less C boundary.
  EXPECT_EQ(stalloc_create("stalloc", 1 * GiB, nullptr), nullptr);
  // Malformed option strings fail at create, not at first malloc.
  EXPECT_EQ(stalloc_create("vmm", 1 * GiB, "vmm.granularity=512KB"), nullptr);
  EXPECT_EQ(stalloc_create("vmm", 1 * GiB, "vmm.granularity=3MiB"), nullptr);
}

// A capacity above SimDevice::kMaxCapacity (one that would wrap past 2^64 included) is an
// error, not an abort inside the device. At the largest capacity every kind that runs without a
// plan still builds, allocates and frees.
TEST(CAbi, CreateRejectsWrappingCapacity) {
  for (const std::string& name : AllocatorRegistry::Global().Names(/*include_plan_kinds=*/false)) {
    const char* kind = name.c_str();
    for (const uint64_t capacity : {~uint64_t{0}, SimDevice::kMaxCapacity + 1}) {
      EXPECT_EQ(stalloc_create(kind, capacity, nullptr), nullptr) << kind;
      EXPECT_NE(std::string(stalloc_last_error()).find("capacity"), std::string::npos)
          << stalloc_last_error();
    }
    stalloc_handle* h = stalloc_create(kind, SimDevice::kMaxCapacity, nullptr);
    ASSERT_NE(h, nullptr) << kind << ": " << stalloc_last_error();
    const uint64_t a = stalloc_malloc(h, 64 * MiB, 0);
    EXPECT_NE(a, 0u) << kind;
    EXPECT_EQ(stalloc_free(h, a), 0) << kind;
    stalloc_destroy(h);
  }
}

TEST(CAbi, DoubleFreeReturnsErrorNotAbort) {
  stalloc_handle* h = stalloc_create("torch-caching", 1 * GiB, nullptr);
  ASSERT_NE(h, nullptr);
  const uint64_t a = stalloc_malloc(h, 1 * MiB, 0);
  ASSERT_NE(a, 0u);
  EXPECT_EQ(stalloc_free(h, a), 0);
  EXPECT_EQ(stalloc_free(h, a), -1) << "second free of the same address must be an error";
  EXPECT_NE(std::string(stalloc_last_error()), "");
  // Stray pointers, the ledger's empty-slot sentinel ~0 included, are unknown addresses too.
  for (const uint64_t stray : {uint64_t{0}, uint64_t{0xdeadbeef}, ~uint64_t{0}}) {
    EXPECT_EQ(stalloc_free(h, stray), -1) << stray;
  }
  stalloc_destroy(h);
}

TEST(CAbi, OomReturnsZeroAndSetsError) {
  stalloc_handle* h = stalloc_create("native", 64 * MiB, nullptr);
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(stalloc_malloc(h, 1 * GiB, 0), 0u);
  EXPECT_NE(std::string(stalloc_last_error()), "");
  stalloc_destroy(h);
}

uint64_t StatsField(stalloc_handle* h, const char* key) {
  std::vector<char> buf(stalloc_stats_json(h, nullptr, 0) + 1);
  stalloc_stats_json(h, buf.data(), buf.size());
  std::optional<Json> doc = Json::Parse(std::string(buf.data()));
  EXPECT_TRUE(doc.has_value());
  return doc.has_value() ? doc->Find(key)->AsUint() : 0;
}

// Sizes whose rounding wraps near 2^64 must fail as an OOM, not abort, through every kind a C
// client can create — and leave the allocator usable. kMaxRequestSize itself is accepted and
// reaches the policy, which must refuse it as a plain device OOM.
TEST(CAbi, HugeSizesFailAsOomThroughEveryKind) {
  const uint64_t kHuge[] = {~uint64_t{0}, ~uint64_t{0} - 511, uint64_t{1} << 63,
                            kMaxRequestSize + 1, kMaxRequestSize};
  for (const auto& entry : AllocatorRegistry::Global().entries()) {
    if (entry.requires_plan) {
      continue;
    }
    const char* name = entry.name.c_str();
    stalloc_handle* h = stalloc_create(name, 16 * GiB, nullptr);
    ASSERT_NE(h, nullptr) << name << ": " << stalloc_last_error();
    uint64_t ooms = 0;
    for (const uint64_t size : kHuge) {
      ASSERT_EQ(stalloc_free(h, 0xdeadbeef), -1);  // leaves a different error message behind
      EXPECT_EQ(stalloc_malloc(h, size, 0), 0u) << name << " served " << size;
      EXPECT_EQ(std::string(stalloc_last_error()), "stalloc_malloc: out of memory") << name;
      EXPECT_EQ(StatsField(h, "num_oom"), ++ooms) << name << " at " << size;
      const uint64_t a = stalloc_malloc(h, 4 * KiB, 0);
      EXPECT_NE(a, 0u) << name << " unusable after a " << size << " B request";
      EXPECT_EQ(stalloc_free(h, a), 0) << name;
    }
    EXPECT_EQ(StatsField(h, "live_blocks"), 0u) << name;
    stalloc_destroy(h);
  }
}

TEST(CAbi, StatsJsonIsValidAndSizeQueryable) {
  stalloc_handle* h = stalloc_create("vmm", 1 * GiB, nullptr);
  ASSERT_NE(h, nullptr);
  const uint64_t a = stalloc_malloc(h, 32 * MiB, 0);
  ASSERT_NE(a, 0u);

  const size_t needed = stalloc_stats_json(h, nullptr, 0);  // size query
  ASSERT_GT(needed, 0u);
  std::vector<char> buf(needed + 1);
  ASSERT_EQ(stalloc_stats_json(h, buf.data(), buf.size()), needed);

  std::string error;
  std::optional<Json> doc = Json::Parse(std::string(buf.data()), &error);
  ASSERT_TRUE(doc.has_value()) << "stats must be parseable JSON: " << error;
  EXPECT_EQ(doc->Find("allocator")->AsString(), "vmm");
  EXPECT_EQ(doc->Find("capacity_bytes")->AsUint(), 1 * GiB);
  EXPECT_EQ(doc->Find("allocated_current")->AsUint(), 32 * MiB);
  EXPECT_EQ(doc->Find("num_mallocs")->AsUint(), 1u);
  EXPECT_GE(doc->Find("reserved_current")->AsUint(), 32 * MiB);

  // A too-small buffer still reports the needed length and never overruns.
  char tiny[8];
  EXPECT_EQ(stalloc_stats_json(h, tiny, sizeof(tiny)), needed);
  EXPECT_EQ(stalloc_free(h, a), 0);
  stalloc_destroy(h);
}

// The acceptance bar for the C boundary: replaying a trace through the exported digest helper
// is bit-identical to the in-process replay path, for a VMM and a caching allocator.
TEST(CAbi, ReplayDigestMatchesInProcess) {
  const Trace trace = BuildStormTrace(3000, 11);
  const std::string path = ::testing::TempDir() + "/c_abi_digest.csv";
  ASSERT_TRUE(WriteTraceCsvFile(trace, path));
  const uint64_t capacity = 64 * GiB;

  for (const char* name : {"vmm", "torch-caching"}) {
    SimDevice device(capacity);
    std::unique_ptr<Allocator> alloc = AllocatorRegistry::Global().Create(name, &device);
    PlacementDigestObserver in_process;
    ReplayTrace(trace, alloc.get(), &in_process);

    uint64_t c_digest = 0;
    ASSERT_EQ(stalloc_replay_digest(path.c_str(), name, capacity, nullptr, &c_digest), 0)
        << name << ": " << stalloc_last_error();
    EXPECT_EQ(c_digest, in_process.digest()) << name << " diverged across the C boundary";
  }
  std::remove(path.c_str());
}

// Options strings must change behavior, not just parse: a 64 KiB granularity tracks the same
// workload with a tighter reserved footprint than 2 MiB pages.
TEST(CAbi, GranularityOptionChangesFootprint) {
  auto reserved_peak = [](const char* options) {
    stalloc_handle* h = stalloc_create("vmm", 1 * GiB, options);
    EXPECT_NE(h, nullptr) << stalloc_last_error();
    const uint64_t a = stalloc_malloc(h, 3 * MiB + 512 * KiB, 0);
    EXPECT_NE(a, 0u);
    const size_t needed = stalloc_stats_json(h, nullptr, 0);
    std::vector<char> buf(needed + 1);
    stalloc_stats_json(h, buf.data(), buf.size());
    std::optional<Json> doc = Json::Parse(std::string(buf.data()));
    EXPECT_TRUE(doc.has_value());
    const uint64_t peak = doc->Find("reserved_peak")->AsUint();
    stalloc_destroy(h);
    return peak;
  };
  EXPECT_LT(reserved_peak("vmm.granularity=64KiB"), reserved_peak("vmm.granularity=2MiB"));
}

}  // namespace
}  // namespace stalloc
