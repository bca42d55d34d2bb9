#include "src/driver/experiment.h"

#include <memory>
#include <string>
#include <utility>

#include "src/common/check.h"
#include "src/common/table.h"
#include "src/common/units.h"
#include "src/core/profiler.h"

namespace stalloc {

std::string ExperimentResult::Summary() const {
  if (infeasible) {
    return "infeasible (exceeds device capacity)";
  }
  if (oom) {
    return "OOM";
  }
  return StrFormat("E=%5.1f%%  Ma=%s  Mr=%s  frag=%s  releases=%llu", memory_efficiency * 100.0,
                   FormatBytes(allocated_peak).c_str(), FormatBytes(reserved_peak).c_str(),
                   FormatBytes(fragmentation_bytes).c_str(),
                   static_cast<unsigned long long>(device_release_calls));
}

bool RequiresPlan(std::string_view allocator) {
  const AllocatorRegistry::Entry* entry = AllocatorRegistry::Global().Find(allocator);
  STALLOC_CHECK(entry != nullptr, << "unknown allocator '" << allocator << "'");
  return entry->requires_plan;
}

STAllocConfig STAllocConfigFor(std::string_view allocator) {
  STAllocConfig config;
  config.enable_dynamic_reuse = allocator != "stalloc-noreuse";
  return config;
}

std::unique_ptr<STAllocAllocator> MakeSTAllocFromProfile(const ProfileResult& profile,
                                                         std::string_view allocator,
                                                         SimDevice* device,
                                                         ExperimentResult* result) {
  result->profile_wall_ms = profile.wall_ms;
  if (!profile.feasible) {
    result->infeasible = true;
    return nullptr;
  }
  SynthesisResult synthesis = SynthesizePlan(profile.trace);
  result->plan_stats = synthesis.stats;

  auto alloc = std::make_unique<STAllocAllocator>(device, std::move(synthesis.plan),
                                                  std::move(synthesis.dyn_space),
                                                  STAllocConfigFor(allocator));
  if (!alloc->Init()) {
    result->oom = true;
    return nullptr;
  }
  return alloc;
}

void FinishExperimentResult(const ReplayResult& replay, const Allocator& active,
                            const SimDevice& device, const STAllocAllocator* stalloc_alloc,
                            ExperimentResult* result) {
  result->oom = replay.oom;
  result->allocated_peak = replay.allocated_peak;
  result->reserved_peak = replay.reserved_peak;
  result->memory_efficiency = replay.memory_efficiency;
  result->fragmentation_ratio = 1.0 - replay.memory_efficiency;
  result->fragmentation_bytes = active.stats().FragmentationBytes();
  result->device_api_cost_us = device.counters().total_cost_us;
  result->device_api_calls = device.counters().TotalCalls();
  result->device_release_calls = device.counters().cuda_free + device.counters().mem_unmap +
                                 device.counters().mem_release;
  result->replay_wall_ms = replay.replay_wall_seconds * 1e3;
  if (stalloc_alloc != nullptr) {
    result->breakdown = stalloc_alloc->breakdown();
  }
  if (result->oom && result->allocator == "native") {
    result->infeasible = true;
  }
}

ExperimentResult RunTraceReplay(const TraceCursor& trace, std::string_view allocator,
                                const ExperimentOptions& options) {
  ExperimentResult result;
  result.allocator = allocator;
  SimDevice device(options.capacity_bytes);

  std::unique_ptr<Allocator> alloc;
  std::unique_ptr<STAllocAllocator> stalloc_alloc;
  if (RequiresPlan(allocator)) {
    // The trace is its own profile. Lifespan classification (and therefore the whole plan)
    // keys on phase structure; a phaseless op stream cannot be planned.
    if (trace.phases().empty()) {
      result.infeasible = true;
      return result;
    }
    ProfileResult profile = ProfileTrace(Trace(trace), options.capacity_bytes);
    stalloc_alloc = MakeSTAllocFromProfile(profile, allocator, &device, &result);
    if (stalloc_alloc == nullptr) {
      return result;
    }
  } else {
    alloc = AllocatorRegistry::Global().Create(allocator, &device, options.allocator_options);
  }

  Allocator* active = stalloc_alloc ? stalloc_alloc.get() : alloc.get();
  STALLOC_CHECK(active != nullptr, << "no allocator for '" << allocator << "'");
  ReplayResult replay = ReplayTrace(trace, active);
  FinishExperimentResult(replay, *active, device, stalloc_alloc.get(), &result);
  return result;
}

ExperimentResult RunExperiment(const WorkloadBuilder& workload, std::string_view allocator,
                               const ExperimentOptions& options) {
  ExperimentResult result;
  result.allocator = allocator;

  const Trace run_trace = workload.Build(options.run_seed);
  SimDevice device(options.capacity_bytes);

  std::unique_ptr<Allocator> alloc;
  std::unique_ptr<STAllocAllocator> stalloc_alloc;

  if (RequiresPlan(allocator)) {
    // Offline stage: profile (different seed) + plan synthesis.
    ProfileResult profile =
        ProfileWorkload(workload, options.capacity_bytes, options.profile_seed);
    stalloc_alloc = MakeSTAllocFromProfile(profile, allocator, &device, &result);
    if (stalloc_alloc == nullptr) {
      return result;
    }
  } else {
    alloc = AllocatorRegistry::Global().Create(allocator, &device, options.allocator_options);
  }

  Allocator* active = stalloc_alloc ? stalloc_alloc.get() : alloc.get();
  STALLOC_CHECK(active != nullptr, << "no allocator for '" << allocator << "'");
  ReplayResult replay = ReplayTrace(run_trace, active);
  FinishExperimentResult(replay, *active, device, stalloc_alloc.get(), &result);
  return result;
}

}  // namespace stalloc
