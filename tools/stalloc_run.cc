// stalloc_run: the one front door — executes any ExperimentSpec straight from flags.
//
// Every run the tree can express is (axis x model x allocator set x capacity/seeds x repeats):
//
//   stalloc_run --axis rank --model gpt2 --config VR --pp 2 --mb 4 --alloc torch-caching,stalloc
//   stalloc_run --axis job --model llama2-7b --config R --pp 2 --alloc stalloc --capacity 80G
//   stalloc_run --axis serve --scenario chat --alloc paged-kv,stalloc --capacity 16G --json -
//   stalloc_run --axis cluster --devices 4 --capacity 16G --policy plan-aware --jobs 10
//   stalloc_run --axis cluster --capacity 16G,16G,24G --policy best-fit --jobs 12 --run-seed 7
//   stalloc_run --list-allocs | --list-axes | --list-models | --list-scenarios | --list-policies

#include <algorithm>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "src/api/report.h"
#include "src/api/serializers.h"
#include "src/api/session.h"
#include "src/api/spec.h"
#include "src/common/flags.h"
#include "src/common/table.h"
#include "src/common/units.h"
#include "src/common/verify.h"
#include "src/servesim/request_gen.h"
#include "src/telemetry/metrics.h"
#include "src/telemetry/telemetry.h"
#include "src/telemetry/tracer.h"
#include "src/trace/trace_io.h"
#include "src/trace/trace_v2.h"
#include "src/trainsim/model_config.h"

namespace {

using namespace stalloc;

std::string EffCell(const RunRecord& r) {
  return r.ok() ? StrFormat("%.1f", r.memory_efficiency * 100.0) : RunStatusName(r.status);
}

// One row per record; the cluster axis reports fleet outcomes, the others memory outcomes.
TextTable RecordTable(WorkloadAxis axis, const std::vector<RunRecord>& records) {
  if (axis == WorkloadAxis::kCluster) {
    TextTable table({"allocator", "rep", "completed", "rej up", "rej oom", "ooms", "worst E (%)",
                     "peak used", "wait p99", "SLO"});
    for (const RunRecord& r : records) {
      const ClusterResult& c = *r.cluster;
      table.AddRow({r.allocator, StrFormat("%d", r.repeat),
                    StrFormat("%llu/%llu", static_cast<unsigned long long>(c.completed),
                              static_cast<unsigned long long>(c.num_jobs)),
                    StrFormat("%llu", static_cast<unsigned long long>(c.rejected_upfront)),
                    StrFormat("%llu", static_cast<unsigned long long>(c.rejected_oom)),
                    StrFormat("%llu", static_cast<unsigned long long>(r.oom_events)),
                    StrFormat("%.1f", r.memory_efficiency * 100.0),
                    FormatBytes(r.reserved_peak), StrFormat("%.0f", r.queue_wait_p99),
                    StrFormat("%.2f", r.slo_attainment)});
    }
    return table;
  }
  TextTable table({"allocator", "rep", "status", "E (%)", "Ma", "Mr", "frag", "API calls",
                   "releases"});
  for (const RunRecord& r : records) {
    table.AddRow({r.allocator, StrFormat("%d", r.repeat), RunStatusName(r.status), EffCell(r),
                  r.ok() ? FormatBytes(r.allocated_peak) : "-",
                  r.ok() ? FormatBytes(r.reserved_peak) : "-",
                  r.ok() ? FormatBytes(r.fragmentation_bytes) : "-",
                  StrFormat("%llu", static_cast<unsigned long long>(r.device_api_calls)),
                  StrFormat("%llu", static_cast<unsigned long long>(r.device_release_calls))});
  }
  return table;
}

// The cluster day in detail: one row per job, then one per device.
void PrintClusterDay(ReportSink& sink, const ClusterResult& day) {
  TextTable job_table({"job", "type", "submit", "status", "wait", "tries", "estimate",
                       "actual peak", "devices", "SLO"});
  for (const JobOutcome& o : day.jobs) {
    std::string devices;
    for (int d : o.devices) {
      devices += (devices.empty() ? "" : ",") + std::to_string(d);
    }
    job_table.AddRow(
        {StrFormat("%llu", static_cast<unsigned long long>(o.id)), ClusterJobTypeName(o.type),
         StrFormat("%llu", static_cast<unsigned long long>(o.submit_time)), JobStatusName(o.status),
         StrFormat("%.0f", o.queue_wait), StrFormat("%d", o.attempts),
         FormatBytes(o.estimate), o.attempts > 0 ? FormatBytes(o.actual_peak) : "-",
         devices.empty() ? "-" : devices,
         o.slo_attainment >= 0 ? StrFormat("%.2f", o.slo_attainment) : "-"});
  }
  sink.Print(job_table);

  TextTable dev_table({"device", "capacity", "peak used", "avg util (%)", "ext frag (%)",
                       "E (%)", "ranks", "ooms", "API calls"});
  for (size_t d = 0; d < day.devices.size(); ++d) {
    const DeviceMetrics& m = day.devices[d];
    dev_table.AddRow({StrFormat("%zu", d), FormatBytes(m.capacity), FormatBytes(m.peak_used),
                      StrFormat("%.1f", m.avg_utilization * 100.0),
                      StrFormat("%.1f", m.avg_external_frag * 100.0),
                      StrFormat("%.1f", m.memory_efficiency * 100.0),
                      StrFormat("%llu", static_cast<unsigned long long>(m.placements)),
                      StrFormat("%llu", static_cast<unsigned long long>(m.oom_events)),
                      StrFormat("%llu", static_cast<unsigned long long>(m.device_api_calls))});
  }
  sink.Print(dev_table);
}

}  // namespace

int main(int argc, char** argv) {
  ExperimentSpec spec;
  std::string axis_name = "rank";
  std::string json_path;
  std::string trace_path;
  std::string metrics_path;
  uint64_t trace_buffer = 0;
  std::string heapmap_path;
  uint64_t heapmap_every = 0;
  std::vector<std::string> allocators;
  std::vector<uint64_t> capacities = {spec.options.capacity_bytes};
  uint64_t kv_budget = spec.engine.kv_budget_bytes;
  bool list_allocs = false, list_axes = false, list_models = false, list_scenarios = false,
       list_policies = false, verify_mode = false;

  FlagParser flags("stalloc_run",
                   "Execute any ExperimentSpec — one training rank, a pipeline job, a serving "
                   "day or a cluster day — from flags.");
  flags.Add("--axis", &axis_name, "NAME", "workload axis: rank | job | serve | cluster");
  flags.Add("--model", &spec.model, "NAME", "model preset (see --list-models)");
  flags.AddList("--alloc", &allocators, "NAME[,NAME...]",
                "allocator set (see --list-allocs); default torch-caching");
  flags.AddBytesList("--capacity", &capacities, "BYTES[,BYTES...]",
                     "device capacity, suffixes K/M/G (cluster: per device; a comma list builds "
                     "one device per entry)");
  flags.Add("--run-seed", &spec.options.run_seed, "N", "run-trace seed (repeat r adds r)");
  flags.Add("--profile-seed", &spec.options.profile_seed, "N", "STAlloc profiling seed");
  flags.Add("--repeats", &spec.repeats, "N", "repeats per allocator; repeat r uses run-seed+r");
  std::vector<std::string> alloc_opts;
  flags.AddList("--alloc-opt", &alloc_opts, "KEY=VAL[,...]",
                "allocator construction options (e.g. vmm.granularity=2MiB; keys per "
                "--list-allocs)");
  // Training shape (rank/job axes).
  flags.Add("--config", &spec.config_tag, "TAG", "optimization shorthand N|R|V|VR|ZR|ZOR");
  flags.Add("--pp", &spec.train.parallel.pp, "N", "pipeline parallel degree");
  flags.Add("--tp", &spec.train.parallel.tp, "N", "tensor parallel degree");
  flags.Add("--dp", &spec.train.parallel.dp, "N", "data parallel degree");
  flags.Add("--ep", &spec.train.parallel.ep, "N", "expert parallel degree");
  flags.Add("--vpp", &spec.train.parallel.vpp_chunks, "N", "virtual-pipeline chunks");
  flags.Add("--mb", &spec.train.micro_batch_size, "N", "microbatch size");
  flags.Add("--microbatches", &spec.train.num_microbatches, "N", "microbatches per iteration");
  flags.Add("--rank", &spec.train.rank, "N", "simulated pipeline rank (rank axis)");
  flags.Add("--trace-file", &spec.trace_file, "FILE",
            "replay this trace file instead of the simulated workload (rank axis only; CSV "
            "or columnar v2 — v2 replays straight from the mmap'd file)");
  // Serving shape.
  flags.Add("--scenario", &spec.scenario, "NAME", "serving preset (see --list-scenarios)");
  flags.Add("--requests", &spec.serve_requests, "N", "override the scenario's request count");
  flags.AddBytes("--kv-budget", &kv_budget, "BYTES", "serving KV-cache budget");
  flags.Add("--batch", &spec.engine.max_batch, "N", "serving max concurrent batch");
  // Cluster shape.
  flags.Add("--devices", &spec.devices, "N", "cluster fleet size");
  flags.Add("--policy", &spec.policy, "NAME", "cluster scheduler (see --list-policies)");
  flags.Add("--jobs", &spec.cluster.num_jobs, "N", "cluster workload job count");
  flags.Add("--train-frac", &spec.cluster.train_fraction, "F",
            "cluster fraction of training jobs");
  flags.Add("--retries", &spec.oom_retries, "N", "cluster requeues after an OOM");
  flags.Add("--workers", &spec.workers, "N",
            "cluster device-stepping threads, at most 256 (bit-identical results; 0/1 = "
            "serial)");
  // Output + listings.
  flags.Add("--json", &json_path, "FILE", "machine-readable report ('-' = stdout)");
  flags.Add("--trace", &trace_path, "FILE",
            "enable telemetry; write a Chrome-trace JSON of the run ('-' = stdout)");
  flags.Add("--metrics", &metrics_path, "FILE",
            "enable telemetry; write the metrics-registry snapshot ('-' = stdout)");
  flags.Add("--trace-buffer", &trace_buffer, "N",
            "per-thread trace ring capacity in events (default 65536; oldest dropped)");
  flags.Add("--heapmap", &heapmap_path, "FILE",
            "enable telemetry; record heap snapshots and write a self-contained HTML "
            "heap-timeline viewer (snapshots also land in --json as heap_timeline)");
  flags.Add("--heapmap-every", &heapmap_every, "N",
            "also snapshot every N allocator ops (default: phase/peak/OOM triggers only)");
  flags.AddFlag("--verify", &verify_mode,
                "verify mode: overlap walk per malloc and a sweep per synthesized plan");
  flags.AddFlag("--list-allocs", &list_allocs, "list registered allocators and exit");
  flags.AddFlag("--list-axes", &list_axes, "list workload axes and exit");
  flags.AddFlag("--list-models", &list_models, "list model presets and exit");
  flags.AddFlag("--list-scenarios", &list_scenarios, "list serving presets and exit");
  flags.AddFlag("--list-policies", &list_policies, "list cluster scheduler policies and exit");
  if (!flags.Parse(argc, argv)) {
    return 2;
  }

  if (list_allocs) {
    for (const auto& entry : AllocatorRegistry::Global().entries()) {
      if (entry.options_help.empty()) {
        std::printf("%s\n", entry.name.c_str());
      } else {
        std::printf("%-16s  [--alloc-opt %s]\n", entry.name.c_str(),
                    entry.options_help.c_str());
      }
    }
    return 0;
  }
  if (list_axes) {
    for (WorkloadAxis axis : AllWorkloadAxes()) {
      std::printf("%s\n", WorkloadAxisName(axis));
    }
    return 0;
  }
  if (list_models) {
    for (const std::string& name : KnownModelNames()) {
      std::printf("%s\n", name.c_str());
    }
    return 0;
  }
  if (list_scenarios) {
    for (const std::string& name : ScenarioNames()) {
      std::printf("%s\n", name.c_str());
    }
    return 0;
  }
  if (list_policies) {
    for (SchedulerPolicy policy : AllSchedulerPolicies()) {
      std::printf("%s\n", SchedulerPolicyName(policy));
    }
    return 0;
  }

  const auto axis = ParseWorkloadAxis(axis_name);
  if (!axis.has_value()) {
    std::fprintf(stderr, "unknown axis '%s' (see --list-axes)\n", axis_name.c_str());
    return 2;
  }
  spec.axis = *axis;

  // A shape flag for a different axis would be silently ignored — reject it instead, so a
  // sweep over e.g. --mb on the serve axis cannot masquerade as a successful run.
  const bool is_train = spec.axis == WorkloadAxis::kTrainRank ||
                        spec.axis == WorkloadAxis::kTrainJob;
  if (!is_train &&
      flags.SeenAny({"--config", "--pp", "--tp", "--dp", "--ep", "--vpp", "--mb",
                     "--microbatches", "--rank"})) {
    std::fprintf(stderr, "training-shape flags only apply to --axis rank|job\n");
    return 2;
  }
  if (!spec.trace_file.empty() &&
      flags.SeenAny({"--model", "--config", "--pp", "--tp", "--dp", "--ep", "--vpp", "--mb",
                     "--microbatches", "--rank"})) {
    std::fprintf(stderr,
                 "--trace-file replays the file as-is; workload-shape flags "
                 "(--model/--config/--pp/...) would be silently ignored\n");
    return 2;
  }
  if (spec.axis != WorkloadAxis::kServing &&
      flags.SeenAny({"--scenario", "--requests", "--kv-budget", "--batch"})) {
    std::fprintf(stderr, "serving-shape flags only apply to --axis serve\n");
    return 2;
  }
  if (spec.axis != WorkloadAxis::kCluster &&
      flags.SeenAny({"--devices", "--policy", "--jobs", "--train-frac", "--retries",
                     "--workers"})) {
    std::fprintf(stderr, "cluster-shape flags only apply to --axis cluster\n");
    return 2;
  }
  if (spec.axis == WorkloadAxis::kTrainJob && flags.Seen("--rank")) {
    std::fprintf(stderr, "--rank only applies to --axis rank (a job runs every rank)\n");
    return 2;
  }
  for (const std::string& opt : alloc_opts) {
    std::string opt_error;
    if (!ParseAllocatorOption(opt, &spec.options.allocator_options, &opt_error)) {
      std::fprintf(stderr, "--alloc-opt: %s\n", opt_error.c_str());
      return 2;
    }
  }
  // A comma list builds one cluster device per entry (Validate rejects it on other axes, or
  // when an explicit --devices disagrees) and the record's capacity is its largest entry; a
  // single value sizes every device.
  if (capacities.size() > 1) {
    spec.device_capacities = capacities;
    if (!flags.Seen("--devices")) {
      spec.devices = static_cast<int>(capacities.size());
    }
  }
  spec.options.capacity_bytes = *std::max_element(capacities.begin(), capacities.end());
  spec.engine.kv_budget_bytes = kv_budget;
  if (!allocators.empty()) {
    spec.allocators = allocators;
  }
  // The config tag owns vpp_chunks unless --vpp pins it (as in stalloc_trace_gen).
  std::string error;
  if ((flags.Seen("--vpp") && !PinVppOverConfigTag(&spec, &error)) ||
      !Session::Validate(spec, &error)) {
    std::fprintf(stderr, "invalid spec: %s\n", error.c_str());
    return 2;
  }

  if (flags.Seen("--trace-buffer") && trace_path.empty() && metrics_path.empty()) {
    std::fprintf(stderr, "--trace-buffer only applies with --trace or --metrics\n");
    return 2;
  }
  if (flags.Seen("--heapmap-every") && heapmap_path.empty()) {
    std::fprintf(stderr, "--heapmap-every only applies with --heapmap\n");
    return 2;
  }

  if (verify_mode) {
    verify::SetEnabled(true);
  }
  // Telemetry is off (and the hot paths untouched) unless an export target asks for it.
  if (!trace_path.empty() || !metrics_path.empty() || !heapmap_path.empty()) {
    if (trace_buffer > 0) {
      telemetry::Tracer::Global().SetCapacity(static_cast<size_t>(trace_buffer));
    }
    telemetry::SetEnabled(true);
  }
  if (!heapmap_path.empty()) {
    telemetry::HeapMapConfig heap_config;
    heap_config.every_n_ops = heapmap_every;
    telemetry::HeapMapRecorder::Global().Arm(heap_config);
  }

  // Load the replay trace before any run: a bad file is a usage error (exit 2, with the
  // parser's byte offset), not a crashed run. Columnar v2 stays mmap'd — the session replays
  // straight from the view, never materializing the events.
  Trace replay_trace;
  TraceView replay_view;
  Session session;
  if (!spec.trace_file.empty()) {
    const bool v2 = IsTraceV2File(spec.trace_file);
    TraceIoError trace_err;
    if (v2 ? !replay_view.Open(spec.trace_file, &trace_err)
           : !ReadTraceAnyFile(spec.trace_file, &replay_trace, &trace_err)) {
      std::fprintf(stderr, "stalloc_run: cannot read %s: %s\n", spec.trace_file.c_str(),
                   trace_err.ToString().c_str());
      return 2;
    }
    if (v2) {
      session.SetReplayTrace(&replay_view);
    } else {
      session.SetReplayTrace(&replay_trace);
    }
  }

  ReportSink sink("stalloc_run", json_path);
  sink.Meta("spec", SpecMetaJson(spec));

  std::string capacity_label;
  for (uint64_t c : capacities) {
    capacity_label += (capacity_label.empty() ? "" : ",") + FormatBytes(c);
  }
  sink.Printf("stalloc_run — axis=%s model=%s variant=%s capacity=%s seeds=%llu/%llu\n\n",
              WorkloadAxisName(spec.axis), spec.model.c_str(), spec.Variant().c_str(),
              capacity_label.c_str(),
              static_cast<unsigned long long>(spec.options.profile_seed),
              static_cast<unsigned long long>(spec.options.run_seed));

  const std::vector<RunRecord> records = session.Run(spec);

  for (const RunRecord& r : records) {
    if (r.cluster.has_value()) {
      sink.Printf("%s x%d:\n", r.allocator.c_str(), r.repeat);
      PrintClusterDay(sink, *r.cluster);
    }
  }
  sink.Print(RecordTable(spec.axis, records));
  for (const RunRecord& r : records) {
    sink.Printf("%s x%d: %s\n", r.allocator.c_str(), r.repeat, r.Summary().c_str());
  }

  Json results = Json::Array();
  for (const RunRecord& r : records) {
    Json record = ToJson(r);
    if (r.cluster.has_value()) {
      Json outcomes = Json::Array();
      for (const JobOutcome& o : r.cluster->jobs) {
        outcomes.Add(ToJson(o));
      }
      record.Set("job_outcomes", std::move(outcomes));
    }
    results.Add(std::move(record));
  }
  sink.Meta("results", std::move(results));
  int rc = sink.Finish();
  // Export after the Session has fully quiesced — the tracer requires no concurrent emitters.
  if (!trace_path.empty() &&
      !WriteJsonFile(telemetry::Tracer::Global().ChromeTraceJson(), trace_path)) {
    rc = 1;
  }
  if (!metrics_path.empty()) {
    // Fold the tracer's own health (dropped events, ring occupancy) into the snapshot so
    // trace truncation is visible without opening the trace file.
    telemetry::Tracer::Global().PublishMetrics();
    if (!WriteJsonFile(telemetry::MetricsRegistry::Global().ToJson(), metrics_path)) {
      rc = 1;
    }
  }
  if (!heapmap_path.empty()) {
    Json payload = Json::Object();
    payload.Set("title", "stalloc_run " + spec.Variant());
    Json runs = Json::Array();
    for (const RunRecord& r : records) {
      Json run = Json::Object();
      run.Set("allocator", r.allocator);
      run.Set("variant", r.variant);
      run.Set("repeat", r.repeat);
      Json timeline = Json::Array();
      for (const telemetry::HeapSnapshot& snapshot : r.heap_timeline) {
        timeline.Add(ToJson(snapshot));
      }
      run.Set("heap_timeline", std::move(timeline));
      runs.Add(std::move(run));
    }
    payload.Set("runs", std::move(runs));
    const std::string html =
        telemetry::HeapTimelineHtml("stalloc_run " + spec.Variant(), payload);
    std::FILE* f = std::fopen(heapmap_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", heapmap_path.c_str());
      rc = 1;
    } else {
      std::fputs(html.c_str(), f);
      std::fclose(f);
      std::printf("wrote %s\n", heapmap_path.c_str());
    }
  }
  return rc;
}
