#include "src/allocators/registry.h"

#include <string>
#include <utility>

#include "src/allocators/caching_allocator.h"
#include "src/allocators/expandable_segments.h"
#include "src/allocators/gmlake.h"
#include "src/allocators/native_allocator.h"
#include "src/allocators/paged_kv.h"
#include "src/common/check.h"
#include "src/common/units.h"
#include "src/gpu/sim_device.h"
#include "src/vmm/vmm_allocator.h"

namespace stalloc {

AllocatorRegistry::AllocatorRegistry() {
  Register({"native", /*requires_plan=*/false,
            [](SimDevice* device, const AllocatorOptions&) -> std::unique_ptr<Allocator> {
              return std::make_unique<NativeAllocator>(device);
            },
            /*options_help=*/""});
  Register({"torch-caching", /*requires_plan=*/false,
            [](SimDevice* device, const AllocatorOptions&) -> std::unique_ptr<Allocator> {
              return std::make_unique<CachingAllocator>(device);
            },
            /*options_help=*/""});
  Register({"torch-expandable", /*requires_plan=*/false,
            [](SimDevice* device, const AllocatorOptions&) -> std::unique_ptr<Allocator> {
              return std::make_unique<ExpandableSegmentsAllocator>(device);
            },
            /*options_help=*/""});
  Register({"gmlake", /*requires_plan=*/false,
            [](SimDevice* device, const AllocatorOptions& options) -> std::unique_ptr<Allocator> {
              GMLakeConfig config;
              if (options.gmlake_frag_limit != 0) {
                config.frag_limit = options.gmlake_frag_limit;
              }
              return std::make_unique<GMLakeAllocator>(device, config);
            },
            "gmlake.frag_limit=<bytes>"});
  Register({"stalloc", /*requires_plan=*/true, nullptr, /*options_help=*/""});
  Register({"stalloc-noreuse", /*requires_plan=*/true, nullptr, /*options_help=*/""});
  Register({"paged-kv", /*requires_plan=*/false,
            [](SimDevice* device, const AllocatorOptions& options) -> std::unique_ptr<Allocator> {
              PagedKVConfig config;
              if (options.paged_block_bytes != 0) {
                config.block_bytes = options.paged_block_bytes;
              }
              return std::make_unique<PagedKVAllocator>(device, config);
            },
            "paged.block_bytes=<bytes>"});
  Register({"vmm", /*requires_plan=*/false,
            [](SimDevice* device, const AllocatorOptions& options) -> std::unique_ptr<Allocator> {
              VmmConfig config;
              if (options.vmm_granularity != 0) {
                config.granularity = options.vmm_granularity;
              }
              return std::make_unique<VmmAllocator>(device, config);
            },
            "vmm.granularity=<bytes, pow2 >= 64KiB>"});
}

AllocatorRegistry& AllocatorRegistry::Global() {
  static AllocatorRegistry* registry = new AllocatorRegistry();
  return *registry;
}

void AllocatorRegistry::Register(Entry entry) {
  STALLOC_CHECK(!entry.name.empty(), << "allocator registered without a name");
  STALLOC_CHECK(Find(entry.name) == nullptr,
                << "duplicate allocator registration '" << entry.name << "'");
  STALLOC_CHECK(entry.requires_plan == (entry.factory == nullptr),
                << "allocator '" << entry.name
                << "': exactly the plan-pipeline kinds have no factory");
  entries_.push_back(std::move(entry));
}

const AllocatorRegistry::Entry* AllocatorRegistry::Find(std::string_view name) const {
  for (const Entry& entry : entries_) {
    if (entry.name == name) {
      return &entry;
    }
  }
  return nullptr;
}

std::unique_ptr<Allocator> AllocatorRegistry::Create(std::string_view name, SimDevice* device,
                                                     const AllocatorOptions& options) const {
  const Entry* entry = Find(name);
  if (entry == nullptr || entry->factory == nullptr) {
    return nullptr;
  }
  return entry->factory(device, options);
}

std::vector<std::string> AllocatorRegistry::Names(bool include_plan_kinds) const {
  std::vector<std::string> names;
  names.reserve(entries_.size());
  for (const Entry& entry : entries_) {
    if (include_plan_kinds || !entry.requires_plan) {
      names.push_back(entry.name);
    }
  }
  return names;
}

bool ParseAllocatorOption(std::string_view option, AllocatorOptions* options,
                          std::string* error) {
  auto fail = [error](std::string message) {
    if (error != nullptr) {
      *error = std::move(message);
    }
    return false;
  };
  const size_t eq = option.find('=');
  if (eq == std::string_view::npos || eq == 0 || eq + 1 == option.size()) {
    return fail("allocator option must be key=value, got '" + std::string(option) + "'");
  }
  const std::string key(option.substr(0, eq));
  const std::string value(option.substr(eq + 1));
  uint64_t* field = nullptr;
  if (key == "gmlake.frag_limit") {
    field = &options->gmlake_frag_limit;
  } else if (key == "paged.block_bytes") {
    field = &options->paged_block_bytes;
  } else if (key == "vmm.granularity") {
    field = &options->vmm_granularity;
  } else {
    return fail("unknown allocator option '" + key + "'");
  }
  const auto bytes = ParseByteSize(value.c_str());
  if (!bytes.has_value()) {
    return fail("allocator option '" + key + "': malformed byte size '" + value +
                "' (want e.g. 65536, 64K, 2MiB)");
  }
  if (field == &options->vmm_granularity &&
      (!IsPowerOfTwo(*bytes) || *bytes % SimDevice::kMinGranularity != 0)) {
    return fail("vmm.granularity must be a power of two >= " +
                std::to_string(SimDevice::kMinGranularity) + ", got " + value);
  }
  *field = *bytes;
  return true;
}

}  // namespace stalloc
