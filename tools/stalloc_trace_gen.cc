// stalloc_trace_gen: generates the allocation trace of one training iteration — or one serving
// day — to CSV: the offline profiling stage of the paper's deployment (§8), runnable standalone.
//
//   stalloc_trace_gen --model gpt2 --config VR --pp 2 --tp 1 --dp 4 --mb 8 --out trace.csv
//   stalloc_trace_gen --model gpt2 --serve chat --seed 7 --out serve.csv
//   stalloc_trace_gen --ops 1000000 --mix storm --out-format v2 --out storm.stc
//   stalloc_trace_gen --list-models
//
// --ops switches to the deterministic synthetic generator (storm / train / serve mixes) and,
// with --out-format v2, streams the trace straight to the columnar file — million-op traces
// never materialize in memory.

#include <cstdio>
#include <string>
#include <utility>

#include "src/allocators/registry.h"
#include "src/api/report.h"
#include "src/api/serializers.h"
#include "src/api/session.h"
#include "src/common/flags.h"
#include "src/common/table.h"
#include "src/driver/replay.h"
#include "src/gpu/sim_device.h"
#include "src/servesim/engine.h"
#include "src/servesim/request_gen.h"
#include "src/trace/synthetic.h"
#include "src/trace/trace_io.h"
#include "src/trace/trace_stats.h"
#include "src/trace/trace_v2.h"
#include "src/trainsim/model_config.h"
#include "src/trainsim/workload.h"

int main(int argc, char** argv) {
  using namespace stalloc;

  std::string model_name = "gpt2";
  std::string tag = "N";
  std::string out = "trace.csv";
  std::string json_path;
  std::string serve_scenario;
  TrainConfig config;
  config.parallel.pp = 2;
  config.parallel.dp = 4;
  config.num_microbatches = 8;
  config.micro_batch_size = 8;
  uint64_t seed = 1;
  uint64_t capacity = 0;  // 0 = no feasibility report
  uint64_t ops = 0;
  std::string mix_name = "storm";
  std::string format = "csv";
  bool list_models = false;

  FlagParser flags("stalloc_trace_gen",
                   "Generate one training iteration's (or serving day's) allocation trace.");
  flags.Add("--model", &model_name, "NAME", "model preset (see --list-models)");
  flags.Add("--config", &tag, "TAG", "optimization shorthand N|R|V|VR|ZR|ZOR");
  flags.Add("--pp", &config.parallel.pp, "N", "pipeline parallel degree");
  flags.Add("--tp", &config.parallel.tp, "N", "tensor parallel degree");
  flags.Add("--dp", &config.parallel.dp, "N", "data parallel degree");
  flags.Add("--ep", &config.parallel.ep, "N", "expert parallel degree");
  flags.Add("--vpp", &config.parallel.vpp_chunks, "N", "virtual-pipeline chunks");
  flags.Add("--mb", &config.micro_batch_size, "N", "microbatch size");
  flags.Add("--microbatches", &config.num_microbatches, "N", "microbatches per iteration");
  flags.Add("--rank", &config.rank, "N", "simulated pipeline rank");
  flags.Add("--seed", &seed, "N", "trace seed (MoE routing / request arrivals)");
  flags.AddBytes("--capacity", &capacity, "BYTES",
                 "device capacity (suffixes K/M/G); reports a feasibility verdict plus a "
                 "per-allocator replay verdict table");
  std::vector<std::string> alloc_opts;
  flags.AddList("--alloc-opt", &alloc_opts, "KEY=VAL[,...]",
                "allocator construction options for the --capacity verdicts (e.g. "
                "vmm.granularity=2MiB; keys per stalloc_run --list-allocs)");
  flags.Add("--serve", &serve_scenario, "SCENARIO",
            "serving trace instead of training: chat | rag-long | batch-offline");
  flags.Add("--ops", &ops, "N",
            "synthetic trace with N malloc/free ops instead of a simulated workload");
  flags.Add("--mix", &mix_name, "NAME", "synthetic mix: storm | train | serve");
  flags.Add("--out", &out, "FILE", "trace output");
  flags.Add("--out-format", &format, "FMT", "csv (default) | v2 (columnar, mmap-replayable)");
  flags.Add("--json", &json_path, "FILE",
            "machine-readable trace stats + capacity verdict ('-' = stdout)");
  flags.AddFlag("--list-models", &list_models, "list model presets and exit");
  if (!flags.Parse(argc, argv)) {
    return 2;
  }

  AllocatorOptions alloc_options;
  if (flags.Seen("--alloc-opt") && !flags.Seen("--capacity")) {
    std::fprintf(stderr, "--alloc-opt only applies with --capacity (verdict replays)\n");
    return 2;
  }
  for (const std::string& opt : alloc_opts) {
    std::string opt_error;
    if (!ParseAllocatorOption(opt, &alloc_options, &opt_error)) {
      std::fprintf(stderr, "--alloc-opt: %s\n", opt_error.c_str());
      return 2;
    }
  }

  if (list_models) {
    for (const std::string& name : KnownModelNames()) {
      std::printf("%s\n", name.c_str());
    }
    return 0;
  }

  if (flags.Seen("--mix") && !flags.Seen("--ops")) {
    std::fprintf(stderr, "--mix only applies with --ops\n%s", flags.Usage().c_str());
    return 2;
  }
  if (ops > 0 &&
      (!serve_scenario.empty() ||
       flags.SeenAny({"--model", "--config", "--pp", "--tp", "--dp", "--ep", "--vpp", "--mb",
                      "--microbatches", "--rank"}))) {
    std::fprintf(stderr,
                 "--ops generates a synthetic trace; --serve and workload-shape flags "
                 "would be silently ignored\n%s",
                 flags.Usage().c_str());
    return 2;
  }
  SyntheticMix mix = SyntheticMix::kStorm;
  if (!ParseSyntheticMix(mix_name, &mix)) {
    std::fprintf(stderr, "unknown mix '%s' (storm | train | serve)\n", mix_name.c_str());
    return 2;
  }
  if (format != "csv" && format != "v2") {
    std::fprintf(stderr, "unknown --out-format '%s' (csv | v2)\n", format.c_str());
    return 2;
  }

  // --serve and training-shape flags are mutually exclusive.
  if (!serve_scenario.empty() &&
      flags.SeenAny({"--config", "--pp", "--tp", "--dp", "--ep", "--vpp", "--mb",
                     "--microbatches", "--rank"})) {
    std::fprintf(stderr,
                 "--serve generates a serving trace; training-shape flags "
                 "(--config/--pp/--tp/--dp/--ep/--vpp/--mb/--microbatches/--rank) "
                 "would be silently ignored\n%s",
                 flags.Usage().c_str());
    return 2;
  }

  // A simulated workload is checked by the validator stalloc_run uses, so a bad name or shape
  // exits 2 here instead of aborting inside the workload builders. The tag owns vpp_chunks
  // unless --vpp pins it.
  ExperimentSpec spec;
  spec.model = model_name;
  if (!serve_scenario.empty()) {
    spec.axis = WorkloadAxis::kServing;
    spec.scenario = serve_scenario;
  } else {
    spec.train = config;
    spec.config_tag = tag;
  }
  std::string error;
  if (ops == 0 && ((flags.Seen("--vpp") && !PinVppOverConfigTag(&spec, &error)) ||
                   !Session::Validate(spec, &error))) {
    std::fprintf(stderr, "invalid spec: %s\n", error.c_str());
    return 2;
  }

  ReportSink sink("stalloc_trace_gen", json_path);

  // Million-op synthetic traces stream straight to the columnar file: the generator's memory
  // stays O(live events), so this path scales far past what a materialized Trace can hold.
  if (ops > 0 && format == "v2") {
    SyntheticSpec synth{mix, ops, seed};
    if (!GenerateSyntheticV2File(synth, out)) {
      std::fprintf(stderr, "cannot write %s\n", out.c_str());
      return 1;
    }
    TraceView view;
    TraceIoError verify_err;
    if (!view.Open(out, &verify_err)) {
      std::fprintf(stderr, "generated trace failed validation: %s\n",
                   verify_err.ToString().c_str());
      return 1;
    }
    sink.Printf("wrote %s: %llu events (%llu ops), %llu bytes, end_time %llu\n", out.c_str(),
                static_cast<unsigned long long>(view.num_events()),
                static_cast<unsigned long long>(view.num_ops()),
                static_cast<unsigned long long>(view.file_bytes()),
                static_cast<unsigned long long>(view.end_time()));
    sink.Meta("source", "synthetic");
    sink.Meta("mix", SyntheticMixName(mix));
    sink.Meta("seed", seed);
    sink.Meta("ops", view.num_ops());
    sink.Meta("events", view.num_events());
    sink.Meta("file_bytes", view.file_bytes());
    return sink.Finish();
  }

  Trace trace;
  if (ops > 0) {
    trace = BuildSyntheticTrace(SyntheticSpec{mix, ops, seed});
  } else if (!serve_scenario.empty()) {
    ServeTraceResult serve =
        BuildServeTrace(ModelByName(model_name), ScenarioByName(serve_scenario), EngineConfig{},
                        seed);
    sink.Printf("%s\n", serve.stats.ToString().c_str());
    trace = std::move(serve.trace);
  } else {
    config = spec.EffectiveTrain();
    trace = WorkloadBuilder(ModelByName(model_name), config).Build(seed);
  }
  const bool ok =
      format == "v2" ? WriteTraceV2File(trace, out) : WriteTraceCsvFile(trace, out);
  if (!ok) {
    std::fprintf(stderr, "cannot write %s\n", out.c_str());
    return 1;
  }
  TraceStats stats = ComputeStats(trace);
  sink.Printf("wrote %s: %zu events\n%s", out.c_str(), trace.size(), stats.ToString().c_str());
  Json verdicts_json = Json::Array();
  if (capacity > 0) {
    sink.Printf("capacity check: peak %llu of %llu bytes — %s\n",
                static_cast<unsigned long long>(stats.peak_allocated),
                static_cast<unsigned long long>(capacity),
                stats.peak_allocated <= capacity ? "feasible" : "INFEASIBLE");
    // The peak is the lower bound (a perfect allocator); whether a *real* allocator fits under
    // this capacity depends on its fragmentation. Replay the trace through every directly
    // constructible registry kind (--alloc-opt tunes them, e.g. vmm.granularity=2MiB) and
    // report each one's verdict.
    TextTable verdicts({"allocator", "verdict", "Mr", "E (%)"});
    for (const auto& entry : AllocatorRegistry::Global().entries()) {
      if (entry.requires_plan) {
        continue;  // STAlloc kinds need the offline plan pipeline; use stalloc_run for those
      }
      SimDevice device(capacity);
      auto alloc = AllocatorRegistry::Global().Create(entry.name, &device, alloc_options);
      const ReplayResult result = ReplayTrace(trace, alloc.get());
      verdicts.AddRow({entry.name, result.oom ? "OOM" : "fits",
                       FormatBytes(result.reserved_peak),
                       StrFormat("%.1f", result.memory_efficiency * 100.0)});
      Json row = Json::Object();
      row.Set("allocator", entry.name);
      row.Set("fits", !result.oom);
      row.Set("reserved_peak", result.reserved_peak);
      row.Set("memory_efficiency", result.memory_efficiency);
      verdicts_json.Add(std::move(row));
    }
    sink.Print(verdicts);
  }

  const bool serving = !serve_scenario.empty();
  const std::string shape =
      ops > 0   ? StrFormat("%s x%llu ops", SyntheticMixName(mix),
                            static_cast<unsigned long long>(ops))
      : serving ? serve_scenario
                : StrFormat("%s pp%d tp%d dp%d mb%llu x%d rank%d", tag.c_str(),
                            config.parallel.pp, config.parallel.tp, config.parallel.dp,
                            static_cast<unsigned long long>(config.micro_batch_size),
                            config.num_microbatches, config.rank);
  sink.Meta("source", ops > 0 ? "synthetic" : (serving ? "serve" : "train"));
  sink.Meta("model", model_name);
  sink.Meta("shape", shape);
  sink.Meta("seed", seed);
  sink.Meta("stats", ToJson(stats));
  if (capacity > 0) {
    sink.Meta("capacity_bytes", capacity);
    sink.Meta("feasible", stats.peak_allocated <= capacity);
    sink.Meta("allocator_verdicts", std::move(verdicts_json));
  } else {
    sink.Meta("capacity_bytes", nullptr);
    sink.Meta("feasible", nullptr);
  }
  return sink.Finish();
}
