#include "src/cabi/stalloc_c.h"

#include <cstring>
#include <memory>
#include <string>
#include <utility>

#include "src/allocators/allocator.h"
#include "src/allocators/registry.h"
#include "src/driver/replay.h"
#include "src/gpu/sim_device.h"
#include "src/replay/replay_engine.h"
#include "src/trace/trace.h"
#include "src/trace/trace_io.h"

namespace {

thread_local std::string g_last_error;

void SetError(std::string message) { g_last_error = std::move(message); }

// Splits the comma-separated option list and applies each entry through the same parser the
// --alloc-opt flags use, so the boundary accepts exactly the CLI spellings.
bool ParseOptionsCsv(const char* options, stalloc::AllocatorOptions* out) {
  if (options == nullptr || options[0] == '\0') {
    return true;
  }
  std::string_view rest(options);
  while (!rest.empty()) {
    const size_t comma = rest.find(',');
    const std::string_view item = rest.substr(0, comma);
    rest = comma == std::string_view::npos ? std::string_view() : rest.substr(comma + 1);
    std::string error;
    if (!stalloc::ParseAllocatorOption(item, out, &error)) {
      SetError(error);
      return false;
    }
  }
  return true;
}

}  // namespace

// The opaque handle: device first, so the allocator (which holds a raw device pointer) is
// destroyed before the device it points at.
struct stalloc_handle {
  std::unique_ptr<stalloc::SimDevice> device;
  std::unique_ptr<stalloc::Allocator> alloc;
};

extern "C" {

stalloc_handle* stalloc_create(const char* name, uint64_t capacity_bytes, const char* options) {
  if (name == nullptr || name[0] == '\0') {
    SetError("stalloc_create: allocator name is required");
    return nullptr;
  }
  if (capacity_bytes == 0 || capacity_bytes > stalloc::SimDevice::kMaxCapacity) {
    SetError("stalloc_create: capacity must be in [1, " +
             std::to_string(stalloc::SimDevice::kMaxCapacity) + "] bytes");
    return nullptr;
  }
  stalloc::AllocatorOptions opts;
  if (!ParseOptionsCsv(options, &opts)) {
    return nullptr;
  }
  const auto& registry = stalloc::AllocatorRegistry::Global();
  const auto* entry = registry.Find(std::string_view(name));
  if (entry == nullptr) {
    SetError(std::string("stalloc_create: unknown allocator '") + name + "'");
    return nullptr;
  }
  if (entry->requires_plan) {
    SetError(std::string("stalloc_create: allocator '") + name +
             "' requires the offline profile+plan pipeline and cannot be built over the C "
             "boundary");
    return nullptr;
  }
  auto handle = std::make_unique<stalloc_handle>();
  handle->device = std::make_unique<stalloc::SimDevice>(capacity_bytes);
  handle->alloc = registry.Create(name, handle->device.get(), opts);
  if (handle->alloc == nullptr) {
    SetError(std::string("stalloc_create: construction of '") + name + "' failed");
    return nullptr;
  }
  return handle.release();
}

uint64_t stalloc_malloc(stalloc_handle* h, uint64_t size, uint8_t stream) {
  if (h == nullptr) {
    SetError("stalloc_malloc: null handle");
    return 0;
  }
  stalloc::RequestContext ctx;
  ctx.stream = stream;
  const auto addr = h->alloc->Malloc(size, ctx);
  if (!addr.has_value()) {
    SetError("stalloc_malloc: out of memory");
    return 0;
  }
  return *addr;
}

int stalloc_free(stalloc_handle* h, uint64_t addr) {
  if (h == nullptr) {
    SetError("stalloc_free: null handle");
    return -1;
  }
  if (!h->alloc->Free(addr)) {
    SetError("stalloc_free: unknown address (double free?)");
    return -1;
  }
  return 0;
}

size_t stalloc_stats_json(stalloc_handle* h, char* buf, size_t len) {
  if (h == nullptr) {
    SetError("stalloc_stats_json: null handle");
    return 0;
  }
  const stalloc::AllocatorStats& s = h->alloc->stats();
  std::string json = "{";
  json += "\"allocator\":\"" + std::string(h->alloc->name()) + "\"";
  json += ",\"capacity_bytes\":" + std::to_string(h->device->capacity());
  json += ",\"allocated_current\":" + std::to_string(s.allocated_current);
  json += ",\"allocated_peak\":" + std::to_string(s.allocated_peak);
  json += ",\"reserved_peak\":" + std::to_string(s.reserved_peak);
  json += ",\"reserved_current\":" + std::to_string(h->alloc->ReservedBytes());
  json += ",\"num_mallocs\":" + std::to_string(s.num_mallocs);
  json += ",\"num_frees\":" + std::to_string(s.num_frees);
  json += ",\"num_oom\":" + std::to_string(s.num_oom);
  json += ",\"live_blocks\":" + std::to_string(s.live_blocks);
  json += ",\"memory_efficiency\":" + std::to_string(s.MemoryEfficiency());
  json += ",\"device_api_calls\":" + std::to_string(h->device->counters().TotalCalls());
  json += ",\"device_cost_us\":" + std::to_string(h->device->counters().total_cost_us);
  json += "}";
  if (buf != nullptr && len > 0) {
    const size_t n = json.size() < len - 1 ? json.size() : len - 1;
    std::memcpy(buf, json.data(), n);
    buf[n] = '\0';
  }
  return json.size();
}

void stalloc_destroy(stalloc_handle* h) { delete h; }

const char* stalloc_last_error(void) { return g_last_error.c_str(); }

int stalloc_replay_digest(const char* trace_csv_path, const char* name, uint64_t capacity_bytes,
                          const char* options, uint64_t* out_digest) {
  if (trace_csv_path == nullptr || out_digest == nullptr) {
    SetError("stalloc_replay_digest: trace path and out_digest are required");
    return -1;
  }
  stalloc::Trace trace;
  stalloc::TraceIoError err;
  if (!stalloc::ReadTraceCsvFile(trace_csv_path, &trace, &err)) {
    SetError("stalloc_replay_digest: " + err.message);
    return -1;
  }
  std::unique_ptr<stalloc_handle> h(stalloc_create(name, capacity_bytes, options));
  if (h == nullptr) {
    return -1;  // stalloc_create already set the error
  }
  stalloc::PlacementDigestObserver digest;
  stalloc::ReplayTrace(trace, h->alloc.get(), &digest);
  *out_digest = digest.digest();
  return 0;
}

}  // extern "C"
