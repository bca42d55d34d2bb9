#include "src/driver/serve_experiment.h"

#include <memory>
#include <string>
#include <utility>

#include "src/common/check.h"
#include "src/common/stopwatch.h"
#include "src/common/table.h"
#include "src/common/units.h"
#include "src/core/profiler.h"
#include "src/driver/replay.h"

namespace stalloc {

std::string ServeExperimentResult::Summary() const {
  if (replay.infeasible || replay.oom) {
    return replay.Summary();
  }
  return StrFormat("%s  preempt=%llu tokens=%llu batch=%d", replay.Summary().c_str(),
                   static_cast<unsigned long long>(serve.preemptions),
                   static_cast<unsigned long long>(serve.tokens_admitted), serve.peak_batch);
}

ServeExperimentResult RunServeExperiment(const ModelConfig& model, const ServeScenario& scenario,
                                         std::string_view allocator,
                                         const ServeOptions& options) {
  ServeExperimentResult result;
  result.replay.allocator = allocator;

  // Size the paged pool to the workload's natural page unless the caller pinned it.
  ExperimentOptions exp = options.base;
  if (exp.allocator_options.paged_block_bytes == 0) {
    exp.allocator_options.paged_block_bytes = KvBlockBytes(model, options.engine);
  }

  ServeTraceResult run = BuildServeTrace(model, scenario, options.engine, exp.run_seed);
  result.serve = run.stats;
  result.trace_events = run.trace.size();

  SimDevice device(exp.capacity_bytes);
  std::unique_ptr<Allocator> alloc;
  std::unique_ptr<STAllocAllocator> stalloc_alloc;

  if (RequiresPlan(allocator)) {
    // Offline stage over a different serving day: same scenario, different seed — arrivals,
    // lengths and preemptions all differ, unlike training's repeating iterations.
    // wall_ms covers trace generation + replay, matching ProfileWorkload's Tprofile semantics.
    Stopwatch profile_timer;
    ServeTraceResult profile_day =
        BuildServeTrace(model, scenario, options.engine, exp.profile_seed);
    ProfileResult profile = ProfileTrace(std::move(profile_day.trace), exp.capacity_bytes);
    profile.wall_ms = profile_timer.ElapsedMillis();
    stalloc_alloc = MakeSTAllocFromProfile(profile, allocator, &device, &result.replay);
    if (stalloc_alloc == nullptr) {
      return result;
    }
  } else {
    alloc = AllocatorRegistry::Global().Create(allocator, &device, exp.allocator_options);
  }

  Allocator* active = stalloc_alloc ? stalloc_alloc.get() : alloc.get();
  STALLOC_CHECK(active != nullptr, << "no allocator for '" << allocator << "'");
  ReplayResult replay = ReplayTrace(run.trace, active);
  FinishExperimentResult(replay, *active, device, stalloc_alloc.get(), &result.replay);
  return result;
}

}  // namespace stalloc
