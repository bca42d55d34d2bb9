// Stub allocators that split replay host time from the outside:
//   * RawNullAllocator implements Allocator directly — bump placement, no ledger — so a replay
//     through it costs the replay engine alone;
//   * BaseNullAllocator derives from AllocatorBase with the same bump placement, so it adds
//     exactly the base class's address ledger and overlap check.
// base-null minus raw-null is the ledger's cost per op; a real kind minus base-null is its
// placement policy (and device) cost. Neither is registered in AllocatorRegistry.

#ifndef PERFBENCH_SRC_NULL_ALLOCATORS_H_
#define PERFBENCH_SRC_NULL_ALLOCATORS_H_

#include <cstdint>
#include <optional>
#include <string_view>

#include "src/allocators/allocator.h"

namespace perfbench {

// 512-byte aligned, like cudaMalloc, so the ledger sees realistic address gaps.
inline uint64_t BumpSize(uint64_t size) { return (size + 511) & ~uint64_t{511}; }

class RawNullAllocator final : public stalloc::Allocator {
 public:
  std::optional<uint64_t> Malloc(uint64_t size, const stalloc::RequestContext&) override {
    const uint64_t addr = next_;
    next_ += BumpSize(size);
    return addr;
  }
  bool Free(uint64_t) override { return true; }
  std::string_view name() const override { return "raw-null"; }
  uint64_t ReservedBytes() const override { return next_; }
  const stalloc::AllocatorStats& stats() const override { return stats_; }

 private:
  uint64_t next_ = 0;
  stalloc::AllocatorStats stats_;
};

class BaseNullAllocator final : public stalloc::AllocatorBase {
 public:
  std::string_view name() const override { return "base-null"; }
  uint64_t ReservedBytes() const override { return next_; }

 protected:
  std::optional<uint64_t> DoMalloc(uint64_t size, const stalloc::RequestContext&) override {
    const uint64_t addr = next_;
    next_ += BumpSize(size);
    return addr;
  }
  void DoFree(uint64_t, uint64_t) override {}

 private:
  uint64_t next_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_SRC_NULL_ALLOCATORS_H_
