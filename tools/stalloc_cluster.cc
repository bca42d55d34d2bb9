// stalloc_cluster: run a seeded mixed train+serve workload over a simulated multi-GPU fleet —
// the cluster layer's standalone demo. Generates the job queue, schedules it under the chosen
// policy, replays every admitted job through the per-device allocators and prints the day:
// per-job outcomes, per-device utilization/fragmentation, and the fleet summary.
//
//   stalloc_cluster --devices 4 --capacity 16G --policy plan-aware --alloc torch-caching
//   stalloc_cluster --capacity 16G,16G,24G --policy best-fit --jobs 12 --seed 7
//   stalloc_cluster --list-policies

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "src/api/report.h"
#include "src/api/serializers.h"
#include "src/cluster/cluster_workload.h"
#include "src/cluster/fleet.h"
#include "src/cluster/scheduler.h"
#include "src/common/flags.h"
#include "src/common/table.h"
#include "src/common/units.h"

int main(int argc, char** argv) {
  using namespace stalloc;

  int num_devices = 4;
  std::vector<uint64_t> capacities = {16 * GiB};
  std::string policy_name = "plan-aware";
  std::string alloc_name = "torch-caching";
  std::string json_path;
  ClusterWorkloadConfig workload;
  workload.num_jobs = 10;
  int retries = 1;
  uint64_t seed = 42;
  bool list_policies = false, list_allocs = false;

  FlagParser flags("stalloc_cluster",
                   "Replay a seeded mixed train+serve day over a simulated multi-GPU fleet.");
  flags.Add("--devices", &num_devices, "N", "fleet size (ignored with a --capacity list)");
  flags.AddBytesList("--capacity", &capacities, "BYTES[,BYTES...]",
                     "per-device capacity; a comma list builds a heterogeneous fleet");
  flags.Add("--policy", &policy_name, "NAME", "first-fit | best-fit | plan-aware");
  flags.Add("--alloc", &alloc_name, "KIND",
            "device allocator (see --list-allocs; STAlloc kinds need a per-job plan and enter "
            "via the plan-aware scheduler, not as a shared device allocator)");
  flags.Add("--jobs", &workload.num_jobs, "N", "workload job count");
  flags.Add("--seed", &seed, "N", "workload seed");
  flags.Add("--train-frac", &workload.train_fraction, "F", "fraction of training jobs");
  flags.Add("--retries", &retries, "N", "requeues after a runtime OOM before rejecting");
  flags.Add("--json", &json_path, "FILE", "machine-readable day report ('-' = stdout)");
  flags.AddFlag("--list-policies", &list_policies, "list scheduler policies and exit");
  flags.AddFlag("--list-allocs", &list_allocs, "list shared-device allocator kinds and exit");
  if (!flags.Parse(argc, argv)) {
    return 2;
  }

  if (list_policies) {
    for (SchedulerPolicy policy : AllSchedulerPolicies()) {
      std::printf("%s\n", SchedulerPolicyName(policy));
    }
    return 0;
  }
  if (list_allocs) {
    // Registry-driven: every kind that needs no per-job plan can front a shared device.
    for (const std::string& name : AllocatorRegistry::Global().Names(/*include_plan_kinds=*/false)) {
      std::printf("%s\n", name.c_str());
    }
    return 0;
  }
  if (num_devices < 1 || workload.num_jobs < 0 || retries < 0) {
    std::fprintf(stderr, "%s", flags.Usage().c_str());
    return 2;
  }
  const AllocatorRegistry::Entry* alloc_entry = AllocatorRegistry::Global().Find(alloc_name);
  if (alloc_entry == nullptr || alloc_entry->requires_plan) {
    std::fprintf(stderr, "unknown cluster allocator '%s' (see --list-allocs)\n",
                 alloc_name.c_str());
    return 2;
  }

  FleetConfig fleet;
  // A comma list builds the fleet directly; a single value is replicated --devices times.
  fleet.device_capacities =
      capacities.size() > 1
          ? capacities
          : std::vector<uint64_t>(static_cast<size_t>(num_devices), capacities.front());
  fleet.policy = SchedulerPolicyByName(policy_name);
  fleet.allocator = alloc_name;
  fleet.max_oom_retries = retries;

  ReportSink sink("stalloc_cluster", json_path);

  const std::vector<ClusterJob> jobs = GenerateClusterWorkload(workload, seed);
  sink.Printf("Fleet: %zu devices", fleet.device_capacities.size());
  for (uint64_t c : fleet.device_capacities) {
    sink.Printf(" [%s]", FormatBytes(c).c_str());
  }
  sink.Printf(", policy=%s, allocator=%s, %zu jobs (seed %llu)\n\n",
              SchedulerPolicyName(fleet.policy), fleet.allocator.c_str(), jobs.size(),
              static_cast<unsigned long long>(seed));

  const ClusterResult result = RunCluster(fleet, jobs);

  TextTable job_table({"job", "shape", "submit", "status", "wait", "tries", "estimate",
                       "actual peak", "devices", "SLO"});
  for (size_t i = 0; i < result.jobs.size(); ++i) {
    const JobOutcome& o = result.jobs[i];
    std::string devices;
    for (int d : o.devices) {
      devices += (devices.empty() ? "" : ",") + std::to_string(d);
    }
    job_table.AddRow(
        {StrFormat("%llu", static_cast<unsigned long long>(o.id)), jobs[i].Describe(),
         StrFormat("%llu", static_cast<unsigned long long>(o.submit_time)), JobStatusName(o.status),
         StrFormat("%.0f", o.queue_wait), StrFormat("%d", o.attempts),
         FormatBytes(o.estimate), o.attempts > 0 ? FormatBytes(o.actual_peak) : "-",
         devices.empty() ? "-" : devices,
         o.slo_attainment >= 0 ? StrFormat("%.2f", o.slo_attainment) : "-"});
  }
  sink.Print(job_table);

  TextTable dev_table({"device", "capacity", "peak used", "avg util (%)", "ext frag (%)",
                       "E (%)", "ranks", "ooms", "API calls"});
  for (size_t d = 0; d < result.devices.size(); ++d) {
    const DeviceMetrics& m = result.devices[d];
    dev_table.AddRow({StrFormat("%zu", d), FormatBytes(m.capacity), FormatBytes(m.peak_used),
                      StrFormat("%.1f", m.avg_utilization * 100.0),
                      StrFormat("%.1f", m.avg_external_frag * 100.0),
                      StrFormat("%.1f", m.memory_efficiency * 100.0),
                      StrFormat("%llu", static_cast<unsigned long long>(m.placements)),
                      StrFormat("%llu", static_cast<unsigned long long>(m.oom_events)),
                      StrFormat("%llu", static_cast<unsigned long long>(m.device_api_calls))});
  }
  sink.Print(dev_table);
  sink.Printf("%s\n", result.Summary().c_str());

  sink.Meta("seed", seed);
  sink.Meta("result", ToJson(result));
  Json jobs_json = Json::Array();
  for (size_t i = 0; i < result.jobs.size(); ++i) {
    Json j = ToJson(result.jobs[i]);
    j.Set("shape", jobs[i].Describe());
    jobs_json.Add(std::move(j));
  }
  sink.Meta("job_outcomes", std::move(jobs_json));
  return sink.Finish();
}
