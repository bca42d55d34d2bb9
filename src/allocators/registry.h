// AllocatorRegistry: the single source of truth for allocator construction and naming.
//
// Every allocator in the tree is selectable by a stable string name ("torch-caching",
// "gmlake", "stalloc", ...). The registry maps name -> factory over a typed AllocatorOptions
// bag, so drivers, benches and tools never hard-code a construction switch: a new allocator
// kind registers here once and is immediately listable (--list-allocs), parseable (--alloc)
// and runnable everywhere. The name is the only allocator identity: drivers, results, fleet
// configs and JSON records all carry it, and an externally registered kind runs through every
// driver exactly like a built-in one.
//
// The STAlloc kinds have registry entries (they must be nameable and listable) but no factory:
// their construction runs through the offline profile + plan-synthesis pipeline (Session's
// per-device run in src/api/session.cc), which no per-device factory can express.
// Entries carry `requires_plan` so callers can route them without special-casing names.

#ifndef SRC_ALLOCATORS_REGISTRY_H_
#define SRC_ALLOCATORS_REGISTRY_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/allocators/allocator.h"

namespace stalloc {

class SimDevice;

// Per-allocator construction overrides, forwarded to every factory. Each allocator reads only
// its own fields; zero means "use the allocator's default".
struct AllocatorOptions {
  // GMLake stitching threshold override (0 = default 512 MiB).
  uint64_t gmlake_frag_limit = 0;
  // Paged-KV pool page size override (0 = PagedKVConfig default). Serving pipelines set this to
  // the workload's KV block size so every cache allocation is a pool hit.
  uint64_t paged_block_bytes = 0;
  // VMM page/handle granularity override (0 = SimDevice::kGranularity, the 2 MiB huge-page
  // recommendation). Must be a power of two >= SimDevice::kMinGranularity.
  uint64_t vmm_granularity = 0;
};

// Applies one "key=value" allocator option (e.g. "vmm.granularity=2MiB",
// "gmlake.frag_limit=64M", "paged.block_bytes=16K") to `options`. The shared parser behind
// every --alloc-opt flag and the C-ABI options string: tools and external clients accept the
// same spellings. Returns false (with a message in *error) on unknown keys, malformed byte
// sizes, or values an allocator would reject (e.g. a non-power-of-two VMM granularity).
bool ParseAllocatorOption(std::string_view option, AllocatorOptions* options,
                          std::string* error);

class AllocatorRegistry {
 public:
  using Factory =
      std::function<std::unique_ptr<Allocator>(SimDevice*, const AllocatorOptions&)>;

  struct Entry {
    std::string name;            // stable CLI / JSON name
    bool requires_plan = false;  // needs the offline profile+plan pipeline
    Factory factory;             // null iff requires_plan
    std::string options_help;    // --alloc-opt keys this kind reads ("" = none)
  };

  // A fresh registry pre-populated with the built-in kinds. Tests construct their own; everyone
  // else shares Global().
  AllocatorRegistry();

  static AllocatorRegistry& Global();

  // Registers a new allocator. Duplicate names abort: two allocators silently shadowing each
  // other under one name is a bug, not an extension point.
  void Register(Entry entry);

  // nullptr when the name is unknown.
  const Entry* Find(std::string_view name) const;

  // Constructs the named allocator over `device`. nullptr when the name is unknown or the
  // entry requires the offline plan pipeline.
  std::unique_ptr<Allocator> Create(std::string_view name, SimDevice* device,
                                    const AllocatorOptions& options = AllocatorOptions{}) const;

  // Every registered name, in registration order. With `include_plan_kinds` false the
  // STAlloc kinds are filtered out (the shapes a shared fleet device can front).
  std::vector<std::string> Names(bool include_plan_kinds = true) const;

  // Every entry, in registration order. The built-in order is stable: a kind's position here
  // is what ClusterResult::Digest() mixes in for it.
  const std::deque<Entry>& entries() const { return entries_; }

  size_t size() const { return entries_.size(); }

 private:
  // deque: Register() must not move existing entries — Find() hands out pointers into them.
  std::deque<Entry> entries_;
};

}  // namespace stalloc

#endif  // SRC_ALLOCATORS_REGISTRY_H_
