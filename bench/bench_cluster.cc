// Fleet-scheduling comparison: scheduler policy x device-allocator kind x fleet size over a
// seeded mixed train+serve cluster workload — the capacity story the single-device benches
// cannot tell. Under co-location pressure the admission estimate decides whether a job OOMs on
// the device or never gets there, and the allocator decides how much of the fleet's capacity
// fragmentation eats. Runs through the unified Session/ExperimentSpec API.
//
// Three scenarios run:
//   * mixed     — a day of interleaved training jobs and serving instances on 2- and 4-device
//                 fleets, for every policy x allocator cell;
//   * oversized — the admission acid test: a training job whose activation-heavy footprint
//                 exceeds every device. first-fit admits it on the naive model-size estimate and
//                 it OOMs at runtime; plan-aware predicts the reservation from the profiled
//                 trace and rejects it up front (requeue-or-reject vs never-admit);
//   * scale     — (opt-in via --scale-devices) one multi-day diurnal workload on a large fleet,
//                 swept over --workers. Reports wall_seconds / throughput / speedup per worker
//                 count and FAILS the bench if any digest diverges from the serial run — the
//                 sharded fleet's bit-identity contract, enforced at bench scale.
//
//   bench_cluster [--seed N] [--jobs N] [--json FILE]   ("-" writes JSON to stdout)
//                 [--scale-devices N] [--scale-jobs N] [--workers N,N,...]

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "src/api/report.h"
#include "src/api/serializers.h"
#include "src/api/session.h"
#include "src/cluster/cluster_workload.h"
#include "src/cluster/fleet.h"
#include "src/cluster/scheduler.h"
#include "src/common/flags.h"

namespace {

using namespace stalloc;

// The allocator line-up: every kind that can front a shared device, minus native (no caching,
// so its fleet behaviour is the theoretical floor — uninteresting here and slow).
std::vector<std::string> BenchAllocators() {
  std::vector<std::string> names = AllocatorRegistry::Global().Names(/*include_plan_kinds=*/false);
  names.erase(std::remove(names.begin(), names.end(), "native"), names.end());
  return names;
}

// Overridable via --jobs for quick (e.g. sanitizer) smoke runs.
int g_mixed_jobs = 10;

ClusterWorkloadConfig MixedWorkload() {
  ClusterWorkloadConfig config;
  config.num_jobs = g_mixed_jobs;
  config.train_fraction = 0.5;
  config.mean_interarrival = 1200;
  config.micro_batches = {1, 2, 4};
  config.num_microbatches = 4;
  config.max_pp = 2;
  config.min_iterations = 1;
  config.max_iterations = 2;
  config.serve_requests = 32;
  config.kv_budget_bytes = 2 * GiB;
  return config;
}

// One oversized training job (~14 GiB peak, ~5.5 GiB naive estimate) in an otherwise easy day.
std::vector<ClusterJob> OversizedWorkload(uint64_t seed) {
  ClusterWorkloadConfig small = MixedWorkload();
  small.num_jobs = 3;
  small.micro_batches = {1};
  small.num_microbatches = 2;
  small.max_iterations = 1;
  std::vector<ClusterJob> jobs = GenerateClusterWorkload(small, seed);
  ClusterJob big;
  big.id = jobs.size();
  big.type = ClusterJobType::kTraining;
  big.submit_time = jobs.empty() ? 1 : jobs.back().submit_time + 1;
  big.model = "gpt2";
  big.seed = seed * 31 + 7;
  TrainConfig config;
  config.num_microbatches = 8;
  config.micro_batch_size = 8;
  big.train = ApplyConfigTag(config, "N");
  big.iterations = 1;
  jobs.push_back(std::move(big));
  return jobs;
}

struct Scenario {
  std::string name;
  uint64_t seed = 0;
  std::vector<RunRecord> cells;  // one cluster day per (fleet, policy, allocator)
};

// Spec for one fleet shape; the allocator set and policy rotate per cell.
ExperimentSpec ClusterSpec(int devices, uint64_t capacity, const std::string& policy,
                           uint64_t seed, int retries) {
  ExperimentSpec spec;
  spec.axis = WorkloadAxis::kCluster;
  spec.cluster = MixedWorkload();
  spec.devices = devices;
  spec.policy = policy;
  spec.oom_retries = retries;
  spec.options.capacity_bytes = capacity;
  spec.options.run_seed = seed;
  spec.allocators = BenchAllocators();
  return spec;
}

Scenario RunMixed(Session& session, uint64_t seed) {
  Scenario scenario;
  scenario.name = "mixed";
  scenario.seed = seed;
  for (int devices : {2, 4}) {
    for (SchedulerPolicy policy : AllSchedulerPolicies()) {
      ExperimentSpec spec =
          ClusterSpec(devices, 16 * GiB, SchedulerPolicyName(policy), seed, /*retries=*/1);
      std::vector<RunRecord> records = session.Run(spec);
      scenario.cells.insert(scenario.cells.end(), std::make_move_iterator(records.begin()),
                            std::make_move_iterator(records.end()));
    }
  }
  return scenario;
}

Scenario RunOversized(Session& session, uint64_t seed) {
  Scenario scenario;
  scenario.name = "oversized";
  scenario.seed = seed;
  const std::vector<ClusterJob> jobs = OversizedWorkload(seed);
  for (SchedulerPolicy policy : AllSchedulerPolicies()) {
    ExperimentSpec spec =
        ClusterSpec(2, 12 * GiB, SchedulerPolicyName(policy), seed, /*retries=*/1);
    for (const std::string& allocator : spec.allocators) {
      scenario.cells.push_back(session.RunClusterJobs(spec, allocator, jobs));
    }
  }
  return scenario;
}

// --- scale scenario: one big diurnal fleet, swept over worker counts ---

// A multi-day arrival process: jobs spread over ~two diurnal periods with a strong day/night
// wave and zero-gap ties allowed — the workload shape the sharded fleet exists for.
ClusterWorkloadConfig ScaleWorkload(int jobs) {
  ClusterWorkloadConfig config;
  config.num_jobs = jobs;
  config.train_fraction = 0.5;
  config.mean_interarrival = std::max<uint64_t>(1, 2 * 86400 / std::max(jobs, 1));
  config.min_interarrival = 0;
  config.diurnal_amplitude = 0.8;
  config.diurnal_period = 86400;
  config.micro_batches = {1, 2};
  config.num_microbatches = 2;
  config.max_pp = 2;
  config.min_iterations = 1;
  config.max_iterations = 2;
  config.serve_requests = 32;
  config.kv_budget_bytes = 2 * GiB;
  return config;
}

struct SweepPoint {
  int workers = 0;
  RunRecord record;
  double speedup = 1.0;  // serial wall_seconds / this wall_seconds
};

struct ScaleScenario {
  int devices = 0;
  int jobs = 0;
  uint64_t seed = 0;
  std::vector<SweepPoint> sweep;
  bool digests_agree = true;
};

ScaleScenario RunScale(Session& session, uint64_t seed, int devices, int jobs,
                       const std::vector<int>& worker_counts) {
  ScaleScenario scenario;
  scenario.devices = devices;
  scenario.jobs = jobs;
  scenario.seed = seed;
  const std::vector<ClusterJob> queue = GenerateClusterWorkload(ScaleWorkload(jobs), seed);

  ExperimentSpec spec;
  spec.axis = WorkloadAxis::kCluster;
  spec.devices = devices;
  spec.policy = "first-fit";
  spec.oom_retries = 1;
  spec.options.capacity_bytes = 16 * GiB;
  spec.options.run_seed = seed;

  for (int workers : worker_counts) {
    SweepPoint point;
    point.workers = workers;
    spec.workers = workers;
    point.record = session.RunClusterJobs(spec, "torch-caching", queue);
    scenario.sweep.push_back(std::move(point));
  }
  if (!scenario.sweep.empty()) {
    const ClusterResult& base = *scenario.sweep.front().record.cluster;
    const std::string want = base.Digest();
    for (SweepPoint& point : scenario.sweep) {
      const ClusterResult& r = *point.record.cluster;
      point.speedup = r.wall_seconds > 0 ? base.wall_seconds / r.wall_seconds : 1.0;
      if (r.Digest() != want) {
        scenario.digests_agree = false;
      }
    }
  }
  return scenario;
}

void PrintScale(const ScaleScenario& scenario, ReportSink& sink) {
  sink.Printf("Cluster — scale scenario: %d devices, %d jobs over a diurnal multi-day queue "
              "(seed %llu)\n\n",
              scenario.devices, scenario.jobs,
              static_cast<unsigned long long>(scenario.seed));
  TextTable table({"workers", "wall (s)", "Mops/s", "speedup", "completed", "ooms", "digest"});
  for (const SweepPoint& point : scenario.sweep) {
    const ClusterResult& r = *point.record.cluster;
    const double mops = r.wall_seconds > 0
                            ? static_cast<double>(r.ops_replayed) / r.wall_seconds / 1e6
                            : 0.0;
    table.AddRow({point.workers <= 1 ? "serial" : StrFormat("%d", point.workers),
                  StrFormat("%.3f", r.wall_seconds), StrFormat("%.2f", mops),
                  StrFormat("%.2fx", point.speedup),
                  StrFormat("%llu/%llu", static_cast<unsigned long long>(r.completed),
                            static_cast<unsigned long long>(r.num_jobs)),
                  StrFormat("%llu", static_cast<unsigned long long>(r.oom_events)),
                  r.Digest()});
  }
  sink.Print(table);
  sink.Printf("%s\n", scenario.digests_agree
                          ? "digest parity: all worker counts bit-identical"
                          : "DIGEST MISMATCH: parallel execution diverged from serial");
}

Json ScaleJson(const ScaleScenario& scenario) {
  Json j = Json::Object();
  j.Set("scenario", "scale");
  j.Set("devices", scenario.devices);
  j.Set("jobs", scenario.jobs);
  j.Set("seed", scenario.seed);
  j.Set("digests_agree", scenario.digests_agree);
  Json sweep = Json::Array();
  for (const SweepPoint& point : scenario.sweep) {
    const ClusterResult& r = *point.record.cluster;
    Json p = Json::Object();
    p.Set("workers", point.workers);
    p.Set("wall_seconds", r.wall_seconds);
    p.Set("ops_per_sec",
          r.wall_seconds > 0 ? static_cast<double>(r.ops_replayed) / r.wall_seconds : 0.0);
    p.Set("speedup", point.speedup);
    p.Set("ops_replayed", r.ops_replayed);
    p.Set("completed", r.completed);
    p.Set("rejected_oom", r.rejected_oom);
    p.Set("oom_events", r.oom_events);
    p.Set("digest", r.Digest());
    sweep.Add(std::move(p));
  }
  j.Set("sweep", std::move(sweep));
  return j;
}

void PrintScenario(const Scenario& scenario, ReportSink& sink) {
  sink.Printf("Cluster — %s scenario (seed %llu)\n\n", scenario.name.c_str(),
              static_cast<unsigned long long>(scenario.seed));
  TextTable table({"fleet", "policy", "allocator", "completed", "rej up", "rej oom", "ooms",
                   "util (%)", "frag (%)", "wait p50", "wait p99", "SLO"});
  for (const RunRecord& cell : scenario.cells) {
    const ClusterResult& r = *cell.cluster;
    double frag = 0;
    for (const DeviceMetrics& d : r.devices) {
      frag = std::max(frag, d.avg_external_frag);
    }
    table.AddRow({StrFormat("%zux%s", r.devices.size(), FormatBytes(cell.capacity_bytes).c_str()),
                  SchedulerPolicyName(r.policy), cell.allocator,
                  StrFormat("%llu/%llu", static_cast<unsigned long long>(r.completed),
                            static_cast<unsigned long long>(r.num_jobs)),
                  StrFormat("%llu", static_cast<unsigned long long>(r.rejected_upfront)),
                  StrFormat("%llu", static_cast<unsigned long long>(r.rejected_oom)),
                  StrFormat("%llu", static_cast<unsigned long long>(r.oom_events)),
                  StrFormat("%.1f", r.fleet_avg_utilization * 100.0),
                  StrFormat("%.1f", frag * 100.0), StrFormat("%.0f", r.queue_wait_p50),
                  StrFormat("%.0f", r.queue_wait_p99),
                  StrFormat("%.2f", r.serve_slo_attainment)});
  }
  sink.Print(table);
}

Json ScenarioJson(const Scenario& scenario) {
  Json j = Json::Object();
  j.Set("scenario", scenario.name);
  j.Set("seed", scenario.seed);
  Json results = Json::Array();
  for (const RunRecord& cell : scenario.cells) {
    results.Add(ToJson(cell));
  }
  j.Set("results", std::move(results));
  return j;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  uint64_t seed = 42;
  int jobs = 0;
  int scale_devices = 0;
  int scale_jobs = 0;
  std::vector<std::string> worker_list;
  FlagParser flags("bench_cluster",
                   "Scheduler policy x allocator x fleet size over a mixed train+serve day.");
  flags.Add("--seed", &seed, "N", "cluster workload seed");
  flags.Add("--jobs", &jobs, "N", "override the mixed day's job count (smaller = faster)");
  flags.Add("--scale-devices", &scale_devices, "N",
            "run the scale scenario on an N-device fleet (0 = skip)");
  flags.Add("--scale-jobs", &scale_jobs, "N",
            "scale scenario job count (default 3 jobs per 2 devices)");
  flags.AddList("--workers", &worker_list, "N[,N...]",
                "scale-scenario worker counts to sweep (default 0,4; 0 = serial)");
  flags.Add("--json", &json_path, "FILE", "machine-readable summary ('-' = stdout)");
  if (!flags.Parse(argc, argv)) {
    return 2;
  }
  if (flags.Seen("--jobs")) {
    if (jobs <= 0) {
      std::fprintf(stderr, "--jobs must be >= 1\n");
      return 2;
    }
    g_mixed_jobs = jobs;
  }
  std::vector<int> worker_counts;
  for (const std::string& w : worker_list) {
    ExperimentSpec probe;  // each count goes through the spec validator before any thread starts
    probe.axis = WorkloadAxis::kCluster;
    const auto [end, ec] = std::from_chars(w.data(), w.data() + w.size(), probe.workers);
    std::string error = "'" + w + "' is not an integer";
    if (ec != std::errc() || end != w.data() + w.size() || !Session::Validate(probe, &error)) {
      std::fprintf(stderr, "--workers: %s\n", error.c_str());
      return 2;
    }
    worker_counts.push_back(probe.workers);
  }
  if (worker_counts.empty()) {
    worker_counts = {0, 4};
  }

  Session session;
  std::vector<Scenario> scenarios;
  scenarios.push_back(RunMixed(session, seed));
  scenarios.push_back(RunOversized(session, seed));

  ReportSink sink("cluster", json_path);
  Json allocator_names = Json::Array();
  for (const std::string& name : BenchAllocators()) {
    allocator_names.Add(name);
  }
  sink.Meta("allocators", std::move(allocator_names));
  sink.Meta("seed", seed);
  Json scenarios_json = Json::Array();
  for (const Scenario& scenario : scenarios) {
    PrintScenario(scenario, sink);
    scenarios_json.Add(ScenarioJson(scenario));
  }

  bool digests_agree = true;
  if (scale_devices > 0) {
    const int n_jobs = scale_jobs > 0 ? scale_jobs : scale_devices * 3 / 2;
    const ScaleScenario scale = RunScale(session, seed, scale_devices, n_jobs, worker_counts);
    PrintScale(scale, sink);
    scenarios_json.Add(ScaleJson(scale));
    digests_agree = scale.digests_agree;
  }
  sink.Meta("scenarios", std::move(scenarios_json));
  const int rc = sink.Finish();
  return digests_agree ? rc : 1;
}
