// Fleet: an event-driven multi-GPU cluster simulator over the shared Trace/Allocator interfaces.
//
// A Fleet owns N SimDevices (heterogeneous capacities allowed), each fronted by one long-lived
// baseline allocator of the configured registry kind — the whole simulated day flows through it,
// so fragmentation accumulates across tenants exactly as it would on a real shared GPU. A
// Scheduler (src/cluster/scheduler.h) admits jobs from a ClusterWorkload queue; each admitted
// job becomes one tenant gang of the unified replay engine (src/replay/replay_engine.h) — one
// source per pipeline rank, feeding its device's shared allocator — with co-located sources
// interleaved in time order, so co-located jobs contend for the same address space. Execution
// is windowed and device-parallel (src/cluster/fleet.cc): every device replays on its own
// engine between scheduler boundaries, and a failed malloc parks the tenant until the next
// boundary, where it is unwound (every rank's live blocks freed, claims released) and
// re-admitted up to max_oom_retries times before rejection — the discipline of production
// schedulers. Results are bit-identical across worker counts.
//
// STAlloc itself cannot be the *device* allocator here: its static plan is synthesized per job
// trace, not per device, and a shared pool across unrelated tenants has no plan to follow.
// STAlloc instead enters this layer through the plan-aware scheduler, which admits on the
// planner's predicted per-rank reservation. AllocatorRegistry::Names(/*include_plan_kinds=*/
// false) lists the kinds that can front a fleet device.

#ifndef SRC_CLUSTER_FLEET_H_
#define SRC_CLUSTER_FLEET_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/allocators/registry.h"
#include "src/cluster/cluster_workload.h"
#include "src/cluster/scheduler.h"

namespace stalloc {

struct FleetConfig {
  std::vector<uint64_t> device_capacities;  // one SimDevice per entry
  std::string allocator = "torch-caching";  // a registry kind without requires_plan
  SchedulerPolicy policy = SchedulerPolicy::kFirstFit;
  int max_oom_retries = 1;        // requeues after a runtime OOM before rejecting
  uint64_t profile_seed = 1001;   // plan-aware profiling seed (differs from job run seeds)
  AllocatorOptions allocator_options;  // per-allocator overrides for every device allocator

  // Threads stepping devices in parallel; <= 1 runs serially through the same code path.
  // Results are bit-identical for every worker count: this only trades wall-clock time.
  int workers = 0;
};

enum class JobStatus : uint8_t {
  kQueued,           // still waiting when the simulation drained (should not normally happen)
  kCompleted,        // every rank replayed to the end
  kRejectedUpfront,  // admission estimate can never fit any device (or pp > fleet size)
  kRejectedOom,      // OOMed more than max_oom_retries times
  kStarved,          // still queued when no running job or future arrival could unblock it
};

const char* JobStatusName(JobStatus status);

struct JobOutcome {
  uint64_t id = 0;
  ClusterJobType type = ClusterJobType::kTraining;
  JobStatus status = JobStatus::kQueued;
  uint64_t submit_time = 0;
  uint64_t admit_time = 0;   // first admission (valid when attempts > 0)
  uint64_t finish_time = 0;  // completion / rejection tick
  int attempts = 0;          // admissions, including post-OOM requeues
  int oom_count = 0;         // runtime OOMs suffered
  uint64_t estimate = 0;     // worst per-rank admission estimate under the fleet's policy
  uint64_t actual_peak = 0;  // worst per-rank live-byte peak observed while running
  std::vector<int> devices;  // devices of the last admission, rank order
  double queue_wait = 0;     // first admission - submission, in cluster ticks
  double slo_attainment = -1.0;  // serving jobs only; -1 when not applicable
};

struct DeviceMetrics {
  uint64_t capacity = 0;
  uint64_t peak_used = 0;        // max physical bytes over the day
  double avg_utilization = 0;    // time-weighted physical_used / capacity
  double avg_external_frag = 0;  // time-weighted 1 - largest_free/total_free (classic arena)
  double peak_external_frag = 0;
  uint64_t placements = 0;       // job-ranks hosted over the day
  uint64_t oom_events = 0;       // failed mallocs observed on this device
  double memory_efficiency = 1.0;  // allocator Ma/Mr over the whole day
  uint64_t bytes_moved = 0;      // cumulative bytes allocated through the device's allocator
  uint64_t device_api_calls = 0;
  double device_api_cost_us = 0;
};

struct ClusterResult {
  SchedulerPolicy policy = SchedulerPolicy::kFirstFit;
  std::string allocator = "torch-caching";  // registry name
  uint64_t num_jobs = 0;
  uint64_t admitted = 0;          // jobs admitted at least once
  uint64_t completed = 0;
  uint64_t rejected_upfront = 0;
  uint64_t rejected_oom = 0;
  uint64_t starved = 0;
  uint64_t oom_events = 0;        // failed mallocs fleet-wide
  uint64_t requeues = 0;          // post-OOM re-admission attempts
  uint64_t makespan = 0;          // tick of the last event in the simulated day
  double queue_wait_p50 = 0;      // over jobs admitted at least once, in cluster ticks
  double queue_wait_p90 = 0;
  double queue_wait_p99 = 0;
  double fleet_avg_utilization = 0;  // capacity-weighted mean of device utilizations
  uint64_t serving_jobs = 0;
  double serve_slo_attainment = 1.0;  // mean over serving jobs; rejected/starved count as 0
  uint64_t ops_replayed = 0;          // trace ops executed fleet-wide
  double wall_seconds = 0;            // host time inside RunCluster (excluded from Digest)
  std::vector<DeviceMetrics> devices;
  std::vector<JobOutcome> jobs;

  std::string Summary() const;
  // FNV-1a over every behavioral field (doubles by bit pattern), excluding wall_seconds. Two
  // runs produced the same digest iff the simulation behaved identically — the determinism
  // tests compare serial vs parallel runs through this.
  std::string Digest() const;
};

// Runs the whole day: admits, replays and aggregates `jobs` (sorted by submit_time) over the
// configured fleet. Deterministic for a fixed (config, jobs) pair.
ClusterResult RunCluster(const FleetConfig& config, const std::vector<ClusterJob>& jobs);

}  // namespace stalloc

#endif  // SRC_CLUSTER_FLEET_H_
