// Replay-engine hot-path throughput: simulator ops/sec through the unified streaming replay
// core (src/replay/) for every registered allocator — the perf baseline that gates any further
// work on the free-space hot paths.
//
// Sections:
//   * replay_1m — the million-op headline: a 1M-op storm generated straight to an mmap-streamed
//     columnar v2 file (stalloc_trace_gen's format), replayed through torch-caching twice — once
//     from the mmap'd TraceView (zero materialization) and once from the materialized owned
//     Trace. Reports wall time, placement digests (must match bit-for-bit), and the peak-RSS
//     cost of each mode. Runs FIRST: VmHWM is monotone, so the view phase must set its
//     high-water mark before the owned copy exists.
//   * storm — a synthetic cache storm, ~100k ops by default: ~1.5k concurrently-live blocks
//     drawn from a few dozen recurring sizes (the size-distribution shape of §2.3, Fig. 3),
//     freed in random order. This keeps the caching-style free lists deep, which is exactly the
//     path the size-bucketed BestFitIndex replaced the flat ordered-set search on. The
//     plan-pipeline (STAlloc) kinds sit this one out: the stream measures the unplanned kinds.
//   * train — the gpt2 1F1B iteration replayed back-to-back until ~100k ops, for every
//     registered kind (STAlloc plans come from the usual profile-seed pipeline).
//   * file — optional (--trace FILE): replay a trace from disk; columnar v2 files replay
//     straight from the mmap'd view, csv/bin traces are read and replayed owned. The plan kinds
//     plan the file as its own profile, phase structure or not.
//
// Timing wraps the whole ReplayTrace call (engine + driver bookkeeping), best of --repeats
// fresh-allocator runs — directly comparable across revisions of the replay/allocator stack.
// Allocators are constructed by registry name, so a newly registered kind shows up here with no
// bench change.
//
//   bench_replay_hot [--events N | --ops N] [--repeats N] [--trace FILE] [--json FILE]
//   ("-" = JSON to stdout)

#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "src/api/report.h"
#include "src/common/flags.h"
#include "src/common/stopwatch.h"
#include "src/core/profiler.h"
#include "src/core/stalloc_allocator.h"
#include "src/driver/replay.h"
#include "src/gpu/sim_device.h"
#include "src/replay/replay_engine.h"
#include "src/trace/synthetic.h"
#include "src/trace/trace.h"
#include "src/trace/trace_io.h"
#include "src/trace/trace_v2.h"

namespace {

using namespace stalloc;

constexpr uint64_t kCapacity = 64ull * GiB;
constexpr uint64_t kMillionOps = 1000000;

struct HotResult {
  std::string allocator;
  bool skipped = false;  // kind not runnable on this stream (STAlloc on an infeasible profile)
  bool oom = false;
  uint64_t ops = 0;
  double best_wall_seconds = 0;
  double ops_per_sec = 0;
  uint64_t reserved_peak = 0;
  double memory_efficiency = 1.0;
  // Offline-stage wall clock of the plan-pipeline kinds (0 for the baseline allocators) —
  // the same phase attribution RunRecord::phases carries, so the bench JSON can be compared
  // against stalloc_run output key-for-key.
  double profile_ms = 0;
  double plan_ms = 0;
};

struct StreamRun {
  std::string stream;
  uint64_t trace_events = 0;
  int iterations = 1;
  std::vector<HotResult> results;
};

// One timed pass: `iterations` back-to-back ReplayTrace calls into `alloc` (caches persist
// across iterations, as in training). `trace` is an owned trace's or an mmap'd view's cursor;
// decisions are bit-identical either way. Returns false on OOM.
bool TimedReplay(const TraceCursor& trace, Allocator* alloc, int iterations, HotResult* out) {
  Stopwatch timer;
  uint64_t ops = 0;
  for (int i = 0; i < iterations; ++i) {
    ReplayResult r = ReplayTrace(trace, alloc);
    ops += r.num_mallocs + r.num_frees;
    if (r.oom) {
      out->oom = true;
      out->ops = ops;
      return false;
    }
  }
  const double wall = timer.ElapsedSeconds();
  out->ops = ops;
  if (out->best_wall_seconds == 0 || wall < out->best_wall_seconds) {
    out->best_wall_seconds = wall;
  }
  return true;
}

HotResult RunEntry(const AllocatorRegistry::Entry& entry, const TraceCursor& trace,
                   int iterations, int repeats) {
  HotResult out;
  out.allocator = entry.name;

  SynthesisResult synthesis;
  if (entry.requires_plan) {
    // Plan once (offline stage, not timed); each repeat replays against a fresh pool. The
    // planner needs an owned copy of the columns — the replay itself still runs from `trace`.
    ProfileResult profile = ProfileTrace(Trace(trace), kCapacity);
    out.profile_ms = profile.wall_ms;
    if (!profile.feasible) {
      out.skipped = true;
      return out;
    }
    synthesis = SynthesizePlan(profile.trace);
    out.plan_ms = synthesis.stats.synthesis_ms;
  }

  for (int rep = 0; rep < repeats; ++rep) {
    SimDevice device(kCapacity);
    std::unique_ptr<Allocator> alloc;
    if (entry.requires_plan) {
      auto st = std::make_unique<STAllocAllocator>(&device, synthesis.plan, synthesis.dyn_space,
                                                   STAllocConfigFor(entry.name));
      if (!st->Init()) {
        out.oom = true;
        return out;
      }
      alloc = std::move(st);
    } else {
      alloc = AllocatorRegistry::Global().Create(entry.name, &device);
    }
    if (!TimedReplay(trace, alloc.get(), iterations, &out)) {
      return out;
    }
    out.reserved_peak = alloc->stats().reserved_peak;
    out.memory_efficiency = alloc->stats().MemoryEfficiency();
  }
  out.ops_per_sec =
      out.best_wall_seconds > 0 ? static_cast<double>(out.ops) / out.best_wall_seconds : 0;
  return out;
}

StreamRun RunStream(const std::string& name, const char* source, const TraceCursor& trace,
                    int iterations, int repeats, bool include_stalloc, ReportSink& sink) {
  StreamRun run;
  run.stream = name;
  run.trace_events = trace.num_events();
  run.iterations = iterations;

  sink.Printf("Replay hot path — %s stream: %llu events x %d iterations = %llu ops%s\n\n",
              name.c_str(), static_cast<unsigned long long>(run.trace_events), iterations,
              static_cast<unsigned long long>(run.trace_events * 2 * iterations), source);
  TextTable table({"allocator", "ops", "best wall (ms)", "Mops/s", "Mr", "E (%)"});
  for (const std::string& alloc_name : AllocatorRegistry::Global().Names()) {
    const AllocatorRegistry::Entry& entry = *AllocatorRegistry::Global().Find(alloc_name);
    if (entry.requires_plan && !include_stalloc) {
      continue;
    }
    HotResult r = RunEntry(entry, trace, iterations, repeats);
    if (r.skipped) {
      table.AddRow({r.allocator, "-", "-", "skipped", "-", "-"});
    } else if (r.oom) {
      table.AddRow({r.allocator, StrFormat("%llu", static_cast<unsigned long long>(r.ops)), "-",
                    "OOM", "-", "-"});
    } else {
      table.AddRow({r.allocator, StrFormat("%llu", static_cast<unsigned long long>(r.ops)),
                    StrFormat("%.2f", r.best_wall_seconds * 1e3),
                    StrFormat("%.2f", r.ops_per_sec / 1e6), FormatBytes(r.reserved_peak),
                    StrFormat("%.1f", r.memory_efficiency * 100.0)});
    }
    run.results.push_back(std::move(r));
  }
  sink.Print(table);
  return run;
}

Json StreamJson(const StreamRun& run) {
  Json j = Json::Object();
  j.Set("stream", run.stream);
  j.Set("trace_events", run.trace_events);
  j.Set("iterations", run.iterations);
  Json results = Json::Array();
  for (const HotResult& r : run.results) {
    Json result = Json::Object();
    result.Set("allocator", r.allocator);
    result.Set("skipped", r.skipped);
    result.Set("oom", r.oom);
    result.Set("ops", r.ops);
    result.Set("best_wall_seconds", r.best_wall_seconds);
    result.Set("ops_per_sec", r.ops_per_sec);
    result.Set("reserved_peak", r.reserved_peak);
    result.Set("memory_efficiency", r.memory_efficiency);
    result.Set("profile_ms", r.profile_ms);
    result.Set("plan_ms", r.plan_ms);
    results.Add(std::move(result));
  }
  j.Set("results", std::move(results));
  return j;
}

// One digest pass: fresh torch-caching pool, placements folded into an FNV-1a digest. The
// owned and view digests must be equal — this is the bit-identical-decisions contract of the
// columnar replay path, enforced on every bench run (and by tests/trace_view_test on CI).
uint64_t DigestRun(const TraceCursor& trace) {
  SimDevice device(kCapacity);
  std::unique_ptr<Allocator> alloc = AllocatorRegistry::Global().Create("torch-caching", &device);
  PlacementDigestObserver obs;
  ReplayTrace(trace, alloc.get(), &obs);
  return obs.digest();
}

// Best-of-`repeats` wall time for a single torch-caching replay of the 1M-op stream.
double BestWall(const TraceCursor& trace, int repeats, bool* oom) {
  HotResult scratch;
  for (int rep = 0; rep < repeats; ++rep) {
    SimDevice device(kCapacity);
    std::unique_ptr<Allocator> alloc =
        AllocatorRegistry::Global().Create("torch-caching", &device);
    if (!TimedReplay(trace, alloc.get(), 1, &scratch)) {
      *oom = true;
      return 0;
    }
  }
  return scratch.best_wall_seconds;
}

// The million-op headline section. Must run before any other stream: PeakRssBytes (VmHWM) is
// monotone, so the low-footprint view phase has to set its mark before the owned Trace is
// materialized.
bool RunMillionOps(int repeats, ReportSink& sink, Json* out) {
  const std::string path =
      StrFormat("/tmp/stalloc_replay_1m_%d.v2", static_cast<int>(::getpid()));
  SyntheticSpec spec;
  spec.mix = SyntheticMix::kStorm;
  spec.num_ops = kMillionOps;
  spec.seed = 42;
  if (!GenerateSyntheticV2File(spec, path)) {
    sink.Printf("replay_1m: cannot write %s\n", path.c_str());
    return false;
  }
  TraceView view;
  TraceIoError err;
  if (!view.Open(path, &err)) {
    sink.Printf("replay_1m: cannot open %s: %s\n", path.c_str(), err.message.c_str());
    ::unlink(path.c_str());
    return false;
  }

  bool oom = false;
  const uint64_t view_digest = DigestRun(view.Cursor());
  const double view_wall = BestWall(view.Cursor(), repeats, &oom);
  const uint64_t view_peak_rss = PeakRssBytes();

  const Trace owned = view.Materialize();
  const uint64_t owned_digest = DigestRun(owned.Cursor());
  const double owned_wall = BestWall(owned.Cursor(), repeats, &oom);
  const uint64_t owned_peak_rss = PeakRssBytes();

  const uint64_t file_bytes = view.file_bytes();
  view.Close();
  ::unlink(path.c_str());
  if (oom) {
    sink.Printf("replay_1m: OOM on the 1M-op storm (capacity %s)\n",
                FormatBytes(kCapacity).c_str());
    return false;
  }

  const uint64_t ops = view_digest == owned_digest ? kMillionOps : 0;
  const double speedup = view_wall > 0 ? owned_wall / view_wall : 0;
  sink.Printf(
      "Replay hot path — replay_1m: %llu-op storm (seed 42) through torch-caching, v2 file "
      "%s\n\n",
      static_cast<unsigned long long>(kMillionOps), FormatBytes(file_bytes).c_str());
  TextTable table({"source", "best wall (ms)", "Mops/s", "digest", "peak RSS"});
  table.AddRow({"mmap'd view", StrFormat("%.2f", view_wall * 1e3),
                StrFormat("%.2f", view_wall > 0 ? kMillionOps / view_wall / 1e6 : 0),
                StrFormat("%016llx", static_cast<unsigned long long>(view_digest)),
                FormatBytes(view_peak_rss)});
  table.AddRow({"owned trace", StrFormat("%.2f", owned_wall * 1e3),
                StrFormat("%.2f", owned_wall > 0 ? kMillionOps / owned_wall / 1e6 : 0),
                StrFormat("%016llx", static_cast<unsigned long long>(owned_digest)),
                FormatBytes(owned_peak_rss)});
  sink.Print(table);
  sink.Printf("  digests %s, view speedup over owned %.2fx\n\n",
              view_digest == owned_digest ? "match" : "MISMATCH", speedup);

  Json j = Json::Object();
  j.Set("ops", kMillionOps);
  j.Set("allocator", "torch-caching");
  j.Set("trace_file_bytes", file_bytes);
  j.Set("digest", StrFormat("%016llx", static_cast<unsigned long long>(view_digest)));
  j.Set("digest_match", view_digest == owned_digest);
  Json view_j = Json::Object();
  view_j.Set("best_wall_seconds", view_wall);
  view_j.Set("ops_per_sec", view_wall > 0 ? kMillionOps / view_wall : 0);
  view_j.Set("peak_rss_bytes", view_peak_rss);
  j.Set("view", std::move(view_j));
  Json owned_j = Json::Object();
  owned_j.Set("best_wall_seconds", owned_wall);
  owned_j.Set("ops_per_sec", owned_wall > 0 ? kMillionOps / owned_wall : 0);
  owned_j.Set("peak_rss_bytes", owned_peak_rss);
  j.Set("owned", std::move(owned_j));
  j.Set("speedup", speedup);
  *out = std::move(j);
  return view_digest == owned_digest && ops == kMillionOps;
}

}  // namespace

int main(int argc, char** argv) {
  uint64_t events = 50000;  // 2 ops per event -> the 100k-op storm baseline
  uint64_t opt_ops = 0;
  int repeats = 3;
  std::string json_path;
  std::string trace_path;
  FlagParser flags("bench_replay_hot",
                   "Replay-engine ops/sec for every registered allocator kind.");
  flags.Add("--events", &events, "N", "storm trace events (2 ops per event)");
  flags.Add("--ops", &opt_ops, "N", "storm trace size in ops (overrides --events)");
  flags.Add("--repeats", &repeats, "N", "fresh-allocator repetitions, best wall time kept");
  flags.Add("--trace", &trace_path, "FILE",
            "also replay this trace file (v2 replays from the mmap'd view)");
  flags.Add("--json", &json_path, "FILE", "machine-readable summary ('-' = stdout)");
  if (!flags.Parse(argc, argv)) {
    return 2;
  }
  if (opt_ops > 0) {
    events = opt_ops / 2 > 0 ? opt_ops / 2 : 1;
  }

  ReportSink sink("replay_hot", json_path);
  sink.Meta("storm_events", events);
  sink.Meta("repeats", repeats);
  sink.Meta("capacity_bytes", kCapacity);
  Json allocator_names = Json::Array();
  for (const std::string& name : AllocatorRegistry::Global().Names()) {
    allocator_names.Add(name);
  }
  sink.Meta("allocators", std::move(allocator_names));

  // Million-op section first — see RunMillionOps on why the order matters for the RSS keys.
  Json replay_1m;
  const bool digests_ok = RunMillionOps(repeats, sink, &replay_1m);
  sink.Meta("replay_1m", std::move(replay_1m));

  std::vector<StreamRun> runs;
  const Trace storm = BuildStormTrace(events, 42);
  runs.push_back(
      RunStream("storm", "", storm.Cursor(), 1, repeats, /*include_stalloc=*/false, sink));

  TrainConfig config;
  config.parallel.pp = 2;
  config.num_microbatches = 16;
  config.micro_batch_size = 4;
  WorkloadBuilder wb(Gpt2_345M(), config);
  const Trace train = wb.Build(2);
  // ~10k ops per iteration: replay back-to-back until the stream matches the storm's length.
  const int iterations =
      std::max<int>(1, static_cast<int>(events / (train.size() > 0 ? train.size() : 1)));
  runs.push_back(RunStream("train", "", train.Cursor(), iterations, repeats,
                           /*include_stalloc=*/true, sink));

  // Optional on-disk trace: the v2 path exercises exactly what stalloc_run --trace-file does.
  Trace file_trace;
  TraceView file_view;
  if (!trace_path.empty()) {
    const bool use_view = IsTraceV2File(trace_path);
    TraceIoError err;
    if (use_view ? !file_view.Open(trace_path, &err)
                 : !ReadTraceAnyFile(trace_path, &file_trace, &err)) {
      fprintf(stderr, "bench_replay_hot: cannot read %s: %s\n", trace_path.c_str(),
              err.message.c_str());
      return 2;
    }
    const TraceCursor file = use_view ? file_view.Cursor() : file_trace.Cursor();
    runs.push_back(RunStream("file", use_view ? " (mmap'd v2 view)" : "", file, 1, repeats,
                             /*include_stalloc=*/true, sink));
  }

  Json streams = Json::Array();
  for (const StreamRun& run : runs) {
    streams.Add(StreamJson(run));
  }
  sink.Meta("streams", std::move(streams));
  const int sink_status = sink.Finish();
  // A digest mismatch between the owned and mmap'd replay paths is a correctness failure, not
  // a perf number — fail the bench loudly so CI catches it.
  return digests_ok ? sink_status : 1;
}
