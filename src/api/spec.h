// ExperimentSpec + RunRecord: the declarative front door of the whole evaluation tree.
//
// An ExperimentSpec describes any run the tree can execute — one training rank, a whole
// pipeline job, a serving day, or a cluster day — as
//     (workload variant) x (allocator set) x (capacity / seeds / overrides) x (repeats).
// A Session (src/api/session.h) runs specs — profile, plan and replay for the per-device axes,
// RunCluster for the fleet day — and wraps every outcome in a uniform RunRecord envelope: a
// tagged status, the common Ma/Mr/efficiency/OOM/latency fields every consumer actually reads,
// and the full per-axis result as a typed payload for the consumers that need more. New
// workload axes plug in here instead of growing another bespoke runner + bench loop.

#ifndef SRC_API_SPEC_H_
#define SRC_API_SPEC_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/allocators/registry.h"
#include "src/cluster/cluster_workload.h"
#include "src/cluster/fleet.h"
#include "src/core/planner.h"
#include "src/core/stalloc_allocator.h"
#include "src/servesim/engine.h"
#include "src/telemetry/flight_recorder.h"
#include "src/telemetry/heap_map.h"
#include "src/trainsim/train_config.h"

namespace stalloc {

enum class WorkloadAxis : uint8_t {
  kTrainRank,  // one pipeline rank of one training iteration   -> ExperimentResult
  kTrainJob,   // every pipeline rank of a training job          -> JobResult
  kServing,    // one continuous-batching serving day            -> ServeExperimentResult
  kCluster,    // a multi-GPU fleet day over a mixed job queue   -> ClusterResult (RunCluster)
  kCount,      // sentinel — keeps AllWorkloadAxes() verifiably exhaustive
};

const char* WorkloadAxisName(WorkloadAxis axis);
std::optional<WorkloadAxis> ParseWorkloadAxis(std::string_view name);
std::vector<WorkloadAxis> AllWorkloadAxes();

// Allocators are named by their AllocatorRegistry name (src/allocators/registry.h) throughout;
// the plan kinds are routed by the entry's requires_plan.
struct ExperimentOptions {
  uint64_t capacity_bytes = 80ull * 1024 * 1024 * 1024;  // A800-80G default
  uint64_t profile_seed = 1001;
  uint64_t run_seed = 2002;
  AllocatorOptions allocator_options;  // passed to AllocatorRegistry::Create
};

// The memory outcome of one allocator on one device (a rank, a serving day or a replayed
// trace). For the plan kinds the offline stage profiles the *profile* seed and the replay runs
// the *run* seed, so dynamic (MoE) sizes differ between the two exactly as they do from
// iteration to iteration in training.
struct ExperimentResult {
  std::string allocator;            // registry name
  bool oom = false;                // replay hit an unrecoverable allocation failure
  bool infeasible = false;         // theoretical demand exceeds capacity (native OOM)
  uint64_t allocated_peak = 0;     // Ma
  uint64_t reserved_peak = 0;      // Mr
  double memory_efficiency = 1.0;  // E = Ma / Mr
  double fragmentation_ratio = 0;  // 1 - E
  uint64_t fragmentation_bytes = 0;
  double device_api_cost_us = 0;   // modelled allocator overhead for the iteration
  uint64_t device_api_calls = 0;
  // Release-side calls (cudaFree / unmap / handle release) during the replay. Caching-style
  // allocators only release mid-run under memory pressure, so a non-trivial count means the
  // run survived by thrashing.
  uint64_t device_release_calls = 0;
  // STAlloc-only extras.
  STAllocBreakdown breakdown;
  PlanStats plan_stats;
  double profile_wall_ms = 0;
  // Host time inside the replay engine (every kind), so phase attribution
  // (profile/plan/replay) is complete: plan time is plan_stats.synthesis_ms.
  double replay_wall_ms = 0;

  std::string Summary() const;
};

// One allocator over every pipeline rank of a training job, with job semantics: the job OOMs
// if any rank OOMs, its footprint is the worst rank's reservation, and its reported efficiency
// is the worst rank's.
struct JobResult {
  std::vector<ExperimentResult> ranks;  // indexed by pipeline rank
  bool oom = false;                     // any rank OOMed
  bool infeasible = false;              // any rank theoretically exceeds capacity
  double worst_efficiency = 1.0;
  uint64_t max_reserved = 0;            // the memory-limiting rank's reservation
  uint64_t total_reserved = 0;          // sum over ranks (job-wide GPU memory)
  uint64_t max_release_calls = 0;       // thrash indicator (worst rank)

  int limiting_rank = 0;  // rank with the largest reservation

  std::string Summary() const;
};

// One serving day. The plan kinds profile a different day (the profile seed), which
// deliberately stresses the paper's static-plan assumption: serving traffic is not
// iteration-repeatable, so the plan only covers the persistent weights and almost every
// runtime request takes the dynamic/fallback path.
struct ServeExperimentResult {
  ExperimentResult replay;  // memory outcome, shared shape with the training runs
  ServeSimStats serve;      // serving metrics of the *run* trace
  uint64_t trace_events = 0;

  std::string Summary() const;
};

// Ceiling on ExperimentSpec::workers: each worker is an OS thread, and no fleet here gains
// from more.
constexpr int kMaxWorkers = 256;

struct ExperimentSpec {
  WorkloadAxis axis = WorkloadAxis::kTrainRank;
  std::string model = "gpt2";  // preset name (ModelByName)

  // --- workload variant ---
  // Training shape (kTrainRank honours train.rank; kTrainJob runs every rank in [0, pp)).
  TrainConfig train;
  // Optional §9.2 shorthand ("N"/"R"/"V"/"VR"/"ZR"/"ZOR") applied over `train` via
  // ApplyConfigTag; empty = use `train` exactly as given.
  std::string config_tag;
  // Serving shape (kServing).
  std::string scenario = "chat";  // preset name (ScenarioByName)
  EngineConfig engine;            // continuous-batching knobs (KV budget, batch, block size)
  uint32_t serve_requests = 0;    // overrides the preset's num_requests (0 = keep preset)
  // Replay an externally captured trace file instead of the simulated workload (kTrainRank
  // only; any trace format, including mmap-streamed columnar v2). The session never reads the
  // file itself — tools open/validate it (and exit 2 on a bad trace) and hand the loaded
  // trace or view to Session::SetReplayTrace; this field is the recorded run identity and the
  // CLI knob behind it.
  std::string trace_file;
  // Cluster shape (kCluster). The job queue is generated from (cluster, run seed); `model`
  // above overrides cluster.model so the spec has a single model knob.
  ClusterWorkloadConfig cluster;
  std::string policy = "plan-aware";  // scheduler policy name (SchedulerPolicyByName)
  int devices = 4;                    // fleet size
  // Per-device capacities, one entry per device (size must equal `devices`); empty gives every
  // device options.capacity_bytes.
  std::vector<uint64_t> device_capacities;
  int oom_retries = 1;                // requeues after a runtime OOM before rejecting
  int workers = 0;                    // parallel device-stepping threads (0/1 = serial, at most
                                      // kMaxWorkers); results are bit-identical across counts

  // --- allocator set: registry names, each run independently ---
  std::vector<std::string> allocators = {"torch-caching"};

  // --- capacity / seeds / per-allocator overrides ---
  ExperimentOptions options;

  // --- repeats: repeat r runs with run seed options.run_seed + r (profile seed fixed) ---
  int repeats = 1;

  // `config_tag` applied (when set) over `train`.
  TrainConfig EffectiveTrain() const;

  // Short human label of the workload variant: "VR pp2 mb4" / "chat" / "plan-aware 4dev".
  std::string Variant() const;
};

enum class RunStatus : uint8_t {
  kOk,
  kOom,         // the replay hit an unrecoverable allocation failure
  kInfeasible,  // theoretical demand exceeds capacity (native OOM)
};

const char* RunStatusName(RunStatus status);

// Per-phase wall-clock attribution of one run, sourced from the pipeline's own phase timers
// (the same quantities the telemetry spans record). All in host milliseconds. Axis notes:
//   kTrainRank / kServing — profile/plan from the STAlloc offline stage (0 for baseline
//                           allocators), replay from the replay engine;
//   kTrainJob   — summed over ranks;
//   kCluster    — the whole fleet day counts as replay; profile/plan stay 0 (admission-time
//                 plan synthesis is part of the day).
// report_ms is the residue (record assembly + everything not in the other phases), so the
// parts always sum to total_ms.
struct PhaseTimings {
  double profile_ms = 0;
  double plan_ms = 0;
  double replay_ms = 0;
  double report_ms = 0;
  double total_ms = 0;
};

// The uniform result envelope of one (spec, allocator, repeat) run. The common fields are
// filled for every axis (see the per-axis notes); exactly one payload optional is engaged.
struct RunRecord {
  // Identity: enough to reproduce the run.
  WorkloadAxis axis = WorkloadAxis::kTrainRank;
  std::string allocator;  // registry name
  std::string model;
  std::string variant;    // ExperimentSpec::Variant() at dispatch time
  int repeat = 0;
  uint64_t run_seed = 0;
  uint64_t profile_seed = 0;
  uint64_t capacity_bytes = 0;

  RunStatus status = RunStatus::kOk;

  // Common memory outcome. Axis notes:
  //   kTrainRank / kServing — straight from ExperimentResult;
  //   kTrainJob   — worst-rank semantics (max peaks / min efficiency), API counters summed;
  //   kCluster    — a day always "completes" (job OOMs become rejections): efficiency is the
  //                 worst device's day efficiency, reserved_peak the worst device's peak_used,
  //                 allocated_peak/fragmentation are not aggregated (see the payload).
  uint64_t allocated_peak = 0;     // Ma
  uint64_t reserved_peak = 0;      // Mr
  double memory_efficiency = 1.0;  // E = Ma / Mr
  uint64_t fragmentation_bytes = 0;
  uint64_t device_api_calls = 0;
  double device_api_cost_us = 0;
  uint64_t device_release_calls = 0;
  uint64_t oom_events = 0;       // cluster: fleet-wide failed mallocs; others: 1 when kOom

  // Latency / service outcome (axes that have one; -1 / 0 otherwise).
  double slo_attainment = -1.0;  // cluster serving jobs
  double queue_wait_p99 = 0;     // cluster admission queue

  // Per-phase wall-clock timings of this run (always filled; see PhaseTimings).
  PhaseTimings phases;

  // OOM flight-recorder reports captured during this run (telemetry-enabled runs only): the
  // last N allocator ops + fragmentation snapshot per failing allocator, drained from
  // telemetry::FlightRecorder after the run returns. Empty when telemetry is off or the
  // run never OOMed.
  std::vector<telemetry::OomReport> oom_flight;

  // Heap-map timeline of this run (telemetry-enabled runs with the HeapMapRecorder armed,
  // i.e. stalloc_run --heapmap): address-space snapshots per allocator sorted by
  // (allocator label, seq), plus the per-run fragmentation-attribution rollup computed from
  // each allocator's worst snapshot. Empty otherwise.
  std::vector<telemetry::HeapSnapshot> heap_timeline;
  std::vector<telemetry::FragAttributionRow> frag_attribution;

  // Tagged payload — exactly one engaged, matching `axis`.
  std::optional<ExperimentResult> train_rank;
  std::optional<JobResult> job;
  std::optional<ServeExperimentResult> serve;
  std::optional<ClusterResult> cluster;

  bool ok() const { return status == RunStatus::kOk; }

  // One-line outcome, delegating to the payload's Summary().
  std::string Summary() const;
};

}  // namespace stalloc

#endif  // SRC_API_SPEC_H_
