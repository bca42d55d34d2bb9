#include "src/api/session.h"

#include <algorithm>
#include <array>
#include <memory>
#include <utility>

#include "src/cluster/scheduler.h"
#include "src/common/check.h"
#include "src/common/stopwatch.h"
#include "src/common/table.h"
#include "src/common/units.h"
#include "src/core/profiler.h"
#include "src/driver/replay.h"
#include "src/gpu/sim_device.h"
#include "src/servesim/request_gen.h"
#include "src/telemetry/metrics.h"
#include "src/telemetry/telemetry.h"
#include "src/telemetry/tracer.h"
#include "src/trainsim/model_config.h"
#include "src/trainsim/workload.h"

namespace stalloc {

const char* WorkloadAxisName(WorkloadAxis axis) {
  switch (axis) {
    case WorkloadAxis::kTrainRank:
      return "rank";
    case WorkloadAxis::kTrainJob:
      return "job";
    case WorkloadAxis::kServing:
      return "serve";
    case WorkloadAxis::kCluster:
      return "cluster";
    case WorkloadAxis::kCount:
      break;
  }
  return "?";
}

std::optional<WorkloadAxis> ParseWorkloadAxis(std::string_view name) {
  for (WorkloadAxis axis : AllWorkloadAxes()) {
    if (name == WorkloadAxisName(axis)) {
      return axis;
    }
  }
  return std::nullopt;
}

std::vector<WorkloadAxis> AllWorkloadAxes() {
  constexpr std::array<WorkloadAxis, 4> kAxes = {WorkloadAxis::kTrainRank,
                                                 WorkloadAxis::kTrainJob, WorkloadAxis::kServing,
                                                 WorkloadAxis::kCluster};
  static_assert(kAxes.size() == static_cast<size_t>(WorkloadAxis::kCount),
                "AllWorkloadAxes() is out of sync with WorkloadAxis");
  return {kAxes.begin(), kAxes.end()};
}

const char* RunStatusName(RunStatus status) {
  switch (status) {
    case RunStatus::kOk:
      return "ok";
    case RunStatus::kOom:
      return "OOM";
    case RunStatus::kInfeasible:
      return "infeasible";
  }
  return "?";
}

TrainConfig ExperimentSpec::EffectiveTrain() const {
  return config_tag.empty() ? train : ApplyConfigTag(train, config_tag);
}

std::string ExperimentSpec::Variant() const {
  switch (axis) {
    case WorkloadAxis::kTrainRank: {
      if (!trace_file.empty()) {
        const size_t slash = trace_file.find_last_of('/');
        return "trace:" + (slash == std::string::npos ? trace_file
                                                      : trace_file.substr(slash + 1));
      }
      const TrainConfig c = EffectiveTrain();
      return StrFormat("%s pp%d mb%llu rank%d", c.opt.Tag().c_str(), c.parallel.pp,
                       static_cast<unsigned long long>(c.micro_batch_size), c.rank);
    }
    case WorkloadAxis::kTrainJob: {
      const TrainConfig c = EffectiveTrain();
      return StrFormat("%s pp%d mb%llu", c.opt.Tag().c_str(), c.parallel.pp,
                       static_cast<unsigned long long>(c.micro_batch_size));
    }
    case WorkloadAxis::kServing:
      return scenario;
    case WorkloadAxis::kCluster:
      return workers > 1 ? StrFormat("%s %ddev w%d", policy.c_str(), devices, workers)
                         : StrFormat("%s %ddev", policy.c_str(), devices);
    case WorkloadAxis::kCount:
      break;
  }
  return "?";
}

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

std::string JobResult::Summary() const {
  if (infeasible) {
    return "infeasible";
  }
  if (oom) {
    return "OOM";
  }
  return StrFormat("worst E=%.1f%%  max Mr=%s (rank %d)  total Mr=%s  releases=%llu",
                   worst_efficiency * 100.0, FormatBytes(max_reserved).c_str(), limiting_rank,
                   FormatBytes(total_reserved).c_str(),
                   static_cast<unsigned long long>(max_release_calls));
}

std::string ServeExperimentResult::Summary() const {
  if (replay.infeasible || replay.oom) {
    return replay.Summary();
  }
  return StrFormat("%s  preempt=%llu tokens=%llu batch=%d", replay.Summary().c_str(),
                   static_cast<unsigned long long>(serve.preemptions),
                   static_cast<unsigned long long>(serve.tokens_admitted), serve.peak_batch);
}

std::string RunRecord::Summary() const {
  if (train_rank.has_value()) {
    return train_rank->Summary();
  }
  if (job.has_value()) {
    return job->Summary();
  }
  if (serve.has_value()) {
    return serve->Summary();
  }
  if (cluster.has_value()) {
    return cluster->Summary();
  }
  return RunStatusName(status);
}

namespace {

// The per-device pipeline behind the rank, job, serve and trace-replay runs. Baseline kinds
// replay `run` through a fresh registry allocator straight off the cursor. Plan kinds (the
// registry entry's requires_plan) run the offline stage first: `profile()` yields the profiled
// iteration, the plan is synthesized from it, and the runtime allocator reserves its pool; an
// infeasible profile or a failed reservation ends the run before the replay.
template <typename ProfileFn>
ExperimentResult RunOnDevice(const TraceCursor& run, std::string_view allocator,
                             const ExperimentOptions& options, ProfileFn profile) {
  ExperimentResult result;
  result.allocator = allocator;
  SimDevice device(options.capacity_bytes);
  std::unique_ptr<Allocator> alloc;
  const STAllocAllocator* stalloc = nullptr;
  if (AllocatorRegistry::Global().Find(allocator)->requires_plan) {
    const ProfileResult profiled = profile();
    result.profile_wall_ms = profiled.wall_ms;
    if (!profiled.feasible) {
      result.infeasible = true;
      return result;
    }
    SynthesisResult synthesis = SynthesizePlan(profiled.trace);
    result.plan_stats = synthesis.stats;
    auto planned = std::make_unique<STAllocAllocator>(&device, std::move(synthesis.plan),
                                                      std::move(synthesis.dyn_space),
                                                      STAllocConfigFor(allocator));
    if (!planned->Init()) {
      result.oom = true;
      return result;
    }
    stalloc = planned.get();
    alloc = std::move(planned);
  } else {
    alloc = AllocatorRegistry::Global().Create(allocator, &device, options.allocator_options);
  }

  const ReplayResult replay = ReplayTrace(run, alloc.get());
  result.oom = replay.oom;
  result.allocated_peak = replay.allocated_peak;
  result.reserved_peak = replay.reserved_peak;
  result.memory_efficiency = replay.memory_efficiency;
  result.fragmentation_ratio = 1.0 - replay.memory_efficiency;
  result.fragmentation_bytes = alloc->stats().FragmentationBytes();
  result.device_api_cost_us = device.counters().total_cost_us;
  result.device_api_calls = device.counters().TotalCalls();
  result.device_release_calls = device.counters().cuda_free + device.counters().mem_unmap +
                                device.counters().mem_release;
  result.replay_wall_ms = replay.replay_wall_seconds * 1e3;
  if (stalloc != nullptr) {
    result.breakdown = stalloc->breakdown();
  }
  if (result.oom && result.allocator == "native") {
    result.infeasible = true;
  }
  return result;
}

// One training rank: the run iteration replays the run seed; the plan kinds profile the
// profile seed of the same workload.
ExperimentResult RunRank(const WorkloadBuilder& workload, std::string_view allocator,
                         const ExperimentOptions& options) {
  const Trace run = workload.Build(options.run_seed);
  return RunOnDevice(run.Cursor(), allocator, options, [&] {
    return ProfileWorkload(workload, options.capacity_bytes, options.profile_seed);
  });
}

RunStatus StatusOf(const ExperimentResult& r) {
  // Infeasible wins over oom, matching ExperimentResult::Summary precedence.
  if (r.infeasible) {
    return RunStatus::kInfeasible;
  }
  return r.oom ? RunStatus::kOom : RunStatus::kOk;
}

void FillPhases(const ExperimentResult& r, PhaseTimings* phases) {
  phases->profile_ms += r.profile_wall_ms;
  phases->plan_ms += r.plan_stats.synthesis_ms;
  phases->replay_ms += r.replay_wall_ms;
}

// The common record fields of a one-device run (rank, serve, replayed trace).
void FillFromExperiment(const ExperimentResult& r, RunRecord* rec) {
  rec->status = StatusOf(r);
  FillPhases(r, &rec->phases);
  rec->allocated_peak = r.allocated_peak;
  rec->reserved_peak = r.reserved_peak;
  rec->memory_efficiency = r.memory_efficiency;
  rec->fragmentation_bytes = r.fragmentation_bytes;
  rec->device_api_calls = r.device_api_calls;
  rec->device_api_cost_us = r.device_api_cost_us;
  rec->device_release_calls = r.device_release_calls;
  rec->oom_events = rec->status == RunStatus::kOom ? 1 : 0;
}

void FillFromJob(JobResult r, RunRecord* rec) {
  rec->status = r.infeasible ? RunStatus::kInfeasible
                             : (r.oom ? RunStatus::kOom : RunStatus::kOk);
  rec->reserved_peak = r.max_reserved;
  rec->memory_efficiency = r.worst_efficiency;
  // Every device_* counter is summed over ranks so the keys mean the same thing on every axis;
  // the worst-rank thrash indicator stays available as the payload's max_release_calls.
  for (const ExperimentResult& rank : r.ranks) {
    FillPhases(rank, &rec->phases);
    rec->allocated_peak = std::max(rec->allocated_peak, rank.allocated_peak);
    rec->fragmentation_bytes = std::max(rec->fragmentation_bytes, rank.fragmentation_bytes);
    rec->device_api_calls += rank.device_api_calls;
    rec->device_api_cost_us += rank.device_api_cost_us;
    rec->device_release_calls += rank.device_release_calls;
  }
  rec->oom_events = rec->status == RunStatus::kOom ? 1 : 0;
  rec->job = std::move(r);
}

void FillFromCluster(ClusterResult r, RunRecord* rec) {
  // A cluster day always completes: per-job OOMs are absorbed into requeues/rejections, which
  // live in the payload (and oom_events below).
  rec->status = RunStatus::kOk;
  for (const DeviceMetrics& m : r.devices) {
    rec->memory_efficiency = std::min(rec->memory_efficiency, m.memory_efficiency);
    rec->reserved_peak = std::max(rec->reserved_peak, m.peak_used);
    rec->device_api_calls += m.device_api_calls;
    rec->device_api_cost_us += m.device_api_cost_us;
  }
  rec->oom_events = r.oom_events;
  rec->slo_attainment = r.serve_slo_attainment;
  rec->queue_wait_p99 = r.queue_wait_p99;
  // The whole fleet day is replay; admission-time plan synthesis is part of the day.
  rec->phases.replay_ms = r.wall_seconds * 1e3;
  rec->cluster = std::move(r);
}

// Closes out a run: total/report residue timing, flight-recorder drain, session counters.
void FinalizeRun(const Stopwatch& total, RunRecord* rec) {
  rec->phases.total_ms = total.ElapsedMillis();
  const double accounted =
      rec->phases.profile_ms + rec->phases.plan_ms + rec->phases.replay_ms;
  rec->phases.report_ms = std::max(0.0, rec->phases.total_ms - accounted);
  if (telemetry::Enabled()) {
    rec->oom_flight = telemetry::FlightRecorder::Global().Drain();
    auto& heapmap = telemetry::HeapMapRecorder::Global();
    if (heapmap.armed()) {
      // Per-run drain: allocators live per run, so everything pending belongs to this record.
      rec->heap_timeline = heapmap.Drain();
      rec->frag_attribution = telemetry::RunAttribution(rec->heap_timeline, rec->allocator);
    }
    auto& registry = telemetry::MetricsRegistry::Global();
    static telemetry::Counter* runs = registry.GetCounter("session.runs");
    runs->Add();
    if (rec->status != RunStatus::kOk) {
      static telemetry::Counter* failed = registry.GetCounter("session.failed_runs");
      failed->Add();
    }
  }
}

}  // namespace

bool Session::Validate(const ExperimentSpec& spec, std::string* error) {
  auto fail = [error](std::string message) {
    if (error != nullptr) {
      *error = std::move(message);
    }
    return false;
  };
  if (spec.axis == WorkloadAxis::kCount) {
    return fail("invalid workload axis");
  }
  if (spec.repeats < 1) {
    return fail("repeats must be >= 1");
  }
  if (spec.allocators.empty()) {
    return fail("empty allocator set");
  }
  if (!IsKnownModelName(spec.model)) {
    return fail("unknown model '" + spec.model + "' (see --list-models)");
  }
  const AllocatorRegistry& registry = AllocatorRegistry::Global();
  for (const std::string& name : spec.allocators) {
    const AllocatorRegistry::Entry* entry = registry.Find(name);
    if (entry == nullptr) {
      return fail("unknown allocator '" + name + "' (see --list-allocs)");
    }
    if (spec.axis == WorkloadAxis::kCluster && entry->requires_plan) {
      return fail("allocator '" + name +
                  "' needs a per-job plan and cannot front a shared cluster device (it enters "
                  "the cluster through the plan-aware scheduler)");
    }
  }
  if (!spec.config_tag.empty()) {
    bool known_tag = false;
    for (const char* tag : {"N", "R", "V", "VR", "ZR", "ZOR"}) {
      known_tag |= spec.config_tag == tag;
    }
    if (!known_tag) {
      return fail("unknown config tag '" + spec.config_tag + "' (N|R|V|VR|ZR|ZOR)");
    }
  }
  if (spec.axis == WorkloadAxis::kTrainRank || spec.axis == WorkloadAxis::kTrainJob) {
    // The workload builder's own preconditions, so shape typos get a graceful error here
    // instead of a CHECK abort inside it. A job runs every rank, so its `rank` is not checked.
    TrainConfig train = spec.EffectiveTrain();
    if (spec.axis == WorkloadAxis::kTrainJob) {
      train.rank = 0;
    }
    const std::string shape_error = TrainShapeError(ModelByName(spec.model), train);
    if (!shape_error.empty()) {
      return fail(shape_error);
    }
  }
  if (spec.axis == WorkloadAxis::kServing) {
    const std::vector<std::string> scenarios = ScenarioNames();
    if (std::find(scenarios.begin(), scenarios.end(), spec.scenario) == scenarios.end()) {
      return fail("unknown serving scenario '" + spec.scenario + "' (see --list-scenarios)");
    }
    const std::string shape_error = ServeShapeError(ModelByName(spec.model), spec.engine);
    if (!shape_error.empty()) {
      return fail(shape_error);
    }
  }
  if (spec.axis == WorkloadAxis::kCluster) {
    bool known_policy = false;
    for (SchedulerPolicy policy : AllSchedulerPolicies()) {
      known_policy |= spec.policy == SchedulerPolicyName(policy);
    }
    if (!known_policy) {
      return fail("unknown scheduler policy '" + spec.policy + "' (see --list-policies)");
    }
    if (spec.devices < 1) {
      return fail("cluster fleet needs at least one device");
    }
    if (spec.oom_retries < 0) {
      return fail("oom_retries must be >= 0");
    }
    if (!spec.device_capacities.empty() &&
        spec.device_capacities.size() != static_cast<size_t>(spec.devices)) {
      return fail(StrFormat("%zu device capacities for a %d-device fleet",
                            spec.device_capacities.size(), spec.devices));
    }
    if (spec.workers < 0 || spec.workers > kMaxWorkers) {
      return fail(StrFormat("workers must be in [0, %d]", kMaxWorkers));
    }
    // Mirror GenerateClusterWorkload's checks so shape typos fail here instead of aborting.
    const ClusterWorkloadConfig& c = spec.cluster;
    if (c.num_jobs < 0) {
      return fail("cluster job count must be >= 0");
    }
    if (!(c.train_fraction >= 0 && c.train_fraction <= 1)) {  // also rejects NaN
      return fail("cluster train fraction must be in [0, 1]");
    }
    if (c.max_pp < 1) {
      return fail("cluster max pipeline degree must be >= 1");
    }
    if (c.min_iterations < 1 || c.max_iterations < c.min_iterations) {
      return fail("cluster iterations need 1 <= min <= max");
    }
    if (c.train_tags.empty() || c.micro_batches.empty() || c.serve_scenarios.empty()) {
      return fail("cluster config tag, micro-batch and serving scenario lists must be non-empty");
    }
  }
  if (!spec.device_capacities.empty() && spec.axis != WorkloadAxis::kCluster) {
    return fail("a per-device capacity list only applies to the cluster axis");
  }
  // SimDevice aborts on a capacity above SimDevice::kMaxCapacity.
  const auto bad_capacity = [](uint64_t c) { return c == 0 || c > SimDevice::kMaxCapacity; };
  if (bad_capacity(spec.options.capacity_bytes) ||
      std::any_of(spec.device_capacities.begin(), spec.device_capacities.end(), bad_capacity)) {
    return fail(StrFormat("device capacity must be in [1, %llu] bytes",
                          static_cast<unsigned long long>(SimDevice::kMaxCapacity)));
  }
  if (!spec.trace_file.empty() && spec.axis != WorkloadAxis::kTrainRank) {
    return fail("trace-file replay is only supported on the rank axis");
  }
  return true;
}

bool PinVppOverConfigTag(ExperimentSpec* spec, std::string* error) {
  if (spec->config_tag.empty()) {
    return true;
  }
  ExperimentSpec tag_probe;  // a default spec, so only the tag itself is checked
  tag_probe.config_tag = spec->config_tag;
  if (!Session::Validate(tag_probe, error)) {
    return false;
  }
  const int pinned = spec->train.parallel.vpp_chunks;
  spec->train = ApplyConfigTag(spec->train, spec->config_tag);
  spec->train.parallel.vpp_chunks = pinned;
  spec->config_tag.clear();
  return true;
}

std::vector<RunRecord> Session::Run(const ExperimentSpec& spec) {
  std::vector<RunRecord> out;
  out.reserve(spec.allocators.size() * static_cast<size_t>(spec.repeats));
  for (const std::string& allocator : spec.allocators) {
    for (int repeat = 0; repeat < spec.repeats; ++repeat) {
      out.push_back(RunOne(spec, allocator, repeat));
    }
  }
  return out;
}

RunRecord Session::RunOne(const ExperimentSpec& spec, const std::string& allocator, int repeat) {
  // Validate against the allocator actually run — it need not be in spec.allocators, and the
  // per-allocator checks (known name, plan-kind-on-cluster) must cover it.
  ExperimentSpec checked = spec;
  checked.allocators = {allocator};
  std::string error;
  STALLOC_CHECK(Validate(checked, &error), << "invalid spec: " << error);

  if (spec.axis == WorkloadAxis::kCluster) {
    // spec.model is the one model knob: it overrides the workload config's own field so the
    // record's model identity and the generated jobs can never disagree. RunClusterJobs carries
    // its own run span and phase timing.
    ClusterWorkloadConfig workload = spec.cluster;
    workload.model = spec.model;
    const uint64_t seed = spec.options.run_seed + static_cast<uint64_t>(repeat);
    return RunClusterJobs(spec, allocator, GenerateClusterWorkload(workload, seed), repeat);
  }

  Stopwatch total;
  telemetry::ScopedSpan span(
      telemetry::kCatSession,
      StrFormat("run %s/%s", WorkloadAxisName(spec.axis), allocator.c_str()));

  RunRecord rec;
  rec.axis = spec.axis;
  rec.allocator = allocator;
  rec.model = spec.model;
  rec.variant = spec.Variant();
  rec.repeat = repeat;

  ExperimentOptions options = spec.options;
  options.run_seed += static_cast<uint64_t>(repeat);
  rec.run_seed = options.run_seed;
  rec.profile_seed = options.profile_seed;
  rec.capacity_bytes = options.capacity_bytes;

  switch (spec.axis) {
    case WorkloadAxis::kTrainRank: {
      ExperimentResult r;
      if (replay_.valid()) {
        // The trace is its own profile, phase structure or not: a phaseless op stream plans
        // as one phase group, as stalloc_plan plans it. Only the plan kinds copy the columns
        // (for synthesis); the replay itself runs off the cursor.
        r = RunOnDevice(replay_, allocator, options,
                        [&] { return ProfileTrace(Trace(replay_), options.capacity_bytes); });
      } else {
        STALLOC_CHECK(spec.trace_file.empty(),
                      << "spec.trace_file is set but no trace was preloaded; tools must open "
                         "the file and call SetReplayTrace before running");
        r = RunRank(WorkloadBuilder(ModelByName(spec.model), spec.EffectiveTrain()), allocator,
                    options);
      }
      FillFromExperiment(r, &rec);
      rec.train_rank = std::move(r);
      break;
    }
    case WorkloadAxis::kTrainJob: {
      const ModelConfig model = ModelByName(spec.model);
      TrainConfig train = spec.EffectiveTrain();
      JobResult job;
      for (train.rank = 0; train.rank < train.parallel.pp; ++train.rank) {
        ExperimentResult r = RunRank(WorkloadBuilder(model, train), allocator, options);
        job.oom |= r.oom;
        job.infeasible |= r.infeasible;
        job.worst_efficiency = std::min(job.worst_efficiency, r.memory_efficiency);
        if (r.reserved_peak > job.max_reserved) {
          job.max_reserved = r.reserved_peak;
          job.limiting_rank = train.rank;
        }
        job.total_reserved += r.reserved_peak;
        job.max_release_calls = std::max(job.max_release_calls, r.device_release_calls);
        job.ranks.push_back(std::move(r));
      }
      FillFromJob(std::move(job), &rec);
      break;
    }
    case WorkloadAxis::kServing: {
      const ModelConfig model = ModelByName(spec.model);
      ServeScenario scenario = ScenarioByName(spec.scenario);
      if (spec.serve_requests != 0) {
        scenario.num_requests = spec.serve_requests;
      }
      // Size the paged pool to the workload's natural page unless the caller pinned it.
      if (options.allocator_options.paged_block_bytes == 0) {
        options.allocator_options.paged_block_bytes = KvBlockBytes(model, spec.engine);
      }
      const ServeTraceResult day = BuildServeTrace(model, scenario, spec.engine, options.run_seed);
      ServeExperimentResult r;
      r.serve = day.stats;
      r.trace_events = day.trace.size();
      // The plan kinds profile a different serving day: same scenario, different seed, so
      // arrivals, lengths and preemptions all differ, unlike training's repeating iterations.
      // wall_ms covers trace generation + replay, matching ProfileWorkload's Tprofile.
      r.replay = RunOnDevice(day.trace.Cursor(), allocator, options, [&] {
        Stopwatch timer;
        ProfileResult profiled = ProfileTrace(
            BuildServeTrace(model, scenario, spec.engine, options.profile_seed).trace,
            options.capacity_bytes);
        profiled.wall_ms = timer.ElapsedMillis();
        return profiled;
      });
      FillFromExperiment(r.replay, &rec);
      rec.serve = std::move(r);
      break;
    }
    case WorkloadAxis::kCluster:  // handled before the span above
    case WorkloadAxis::kCount:
      STALLOC_CHECK(false, << "invalid workload axis");
  }
  FinalizeRun(total, &rec);
  span.Arg("status", RunStatusName(rec.status));
  return rec;
}

void Session::SetReplayTrace(const Trace* trace) {
  replay_ = trace != nullptr ? trace->Cursor() : TraceCursor();
}

void Session::SetReplayTrace(const TraceView* view) {
  replay_ = view != nullptr ? view->Cursor() : TraceCursor();
}

RunRecord Session::RunClusterJobs(const ExperimentSpec& spec, const std::string& allocator,
                                  const std::vector<ClusterJob>& jobs, int repeat) {
  ExperimentSpec checked = spec;
  checked.axis = WorkloadAxis::kCluster;  // explicit-jobs callers may leave the default axis
  checked.allocators = {allocator};
  std::string error;
  STALLOC_CHECK(Validate(checked, &error), << "invalid spec: " << error);

  Stopwatch total;
  telemetry::ScopedSpan span(telemetry::kCatSession,
                             StrFormat("run cluster/%s", allocator.c_str()));

  RunRecord rec;
  rec.axis = WorkloadAxis::kCluster;
  rec.allocator = allocator;
  rec.model = spec.model;
  rec.variant = spec.Variant();
  rec.repeat = repeat;
  rec.run_seed = spec.options.run_seed + static_cast<uint64_t>(repeat);
  rec.profile_seed = spec.options.profile_seed;
  rec.capacity_bytes = spec.options.capacity_bytes;

  FleetConfig fleet;
  fleet.device_capacities = spec.device_capacities;
  if (fleet.device_capacities.empty()) {
    fleet.device_capacities.assign(static_cast<size_t>(spec.devices),
                                   spec.options.capacity_bytes);
  }
  fleet.allocator = allocator;
  fleet.policy = SchedulerPolicyByName(spec.policy);
  fleet.max_oom_retries = spec.oom_retries;
  fleet.profile_seed = spec.options.profile_seed;
  fleet.allocator_options = spec.options.allocator_options;
  fleet.workers = spec.workers;

  FillFromCluster(RunCluster(fleet, jobs), &rec);
  FinalizeRun(total, &rec);
  span.Arg("jobs", static_cast<unsigned long long>(jobs.size()));
  span.Arg("status", RunStatusName(rec.status));
  return rec;
}

}  // namespace stalloc
