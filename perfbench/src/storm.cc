// storm-1m: a seeded 1M-op synthetic cache storm, written as a columnar v2 file and replayed
// from the mmap'd TraceView through every unplanned allocator kind. The replay engine, the
// AllocatorBase ledger and allocator policy do nearly all the work (random-order frees over
// deep free lists); the planner, trainsim and cluster do none, so a planner change must show
// no change here.

#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/src/null_allocators.h"
#include "perfbench/src/workloads.h"
#include "src/allocators/registry.h"
#include "src/api/serializers.h"
#include "src/api/session.h"
#include "src/common/table.h"
#include "src/common/units.h"
#include "src/replay/replay_engine.h"
#include "src/trace/synthetic.h"
#include "src/trace/trace_v2.h"

namespace perfbench {

namespace {

using namespace stalloc;

constexpr int kSetupRepeats = 7;

// Reads every column once so the first timed replay does not pay the page faults: the cost of
// first touch belongs to trace.open_ms, not to the replay layers.
uint64_t TouchColumns(const TraceView& view) {
  uint64_t sum = 0;
  for (uint64_t i = 0; i < view.num_events(); ++i) {
    sum += view.ts()[i] + view.te()[i] + view.sizes()[i] + view.flags()[i] + view.stream()[i];
    sum += static_cast<uint64_t>(view.ps()[i]) + static_cast<uint64_t>(view.pe()[i]) +
           static_cast<uint64_t>(view.ls()[i]) + static_cast<uint64_t>(view.le()[i]);
  }
  for (uint64_t i = 0; i < view.num_ops(); ++i) {
    sum += view.op_time()[i] + view.op_ref()[i];
  }
  return sum;
}

// torch-caching placement digest of one replay: equal digests mean bit-identical decisions.
template <typename Source>
uint64_t PlacementDigest(const Source& source, uint64_t capacity) {
  SimDevice device(capacity);
  std::unique_ptr<Allocator> alloc = AllocatorRegistry::Global().Create("torch-caching", &device);
  PlacementDigestObserver digest;
  ReplayTrace(source, alloc.get(), &digest);
  return digest.digest();
}

}  // namespace

int RunStorm(const Args& args) {
  Report report(args);
  const ExperimentOptions defaults;
  const uint64_t capacity = defaults.capacity_bytes;
  const std::vector<std::string>& kinds = UnplannedKinds();

  // --- set-up: generate the v2 file and map it, several times; the last view is kept ---
  SyntheticSpec synth;
  synth.mix = SyntheticMix::kStorm;
  synth.num_ops = args.smoke ? 20000 : 1000000;
  synth.seed = args.seed;
  const std::string name = StrFormat("storm-%llu-%d.v2",
                                     static_cast<unsigned long long>(args.seed), ::getpid());
  const std::string path = args.scratch_dir + "/" + name;
  TraceView view;
  uint64_t touched = 0;
  for (int i = 0; i < kSetupRepeats; ++i) {
    view.Close();
    Stopwatch setup;
    if (!GenerateSyntheticV2File(synth, path)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
      return 2;
    }
    const double gen_ms = setup.ElapsedMillis();
    Stopwatch open;
    TraceIoError err;
    if (!view.Open(path, &err)) {
      std::fprintf(stderr, "perfbench: cannot open %s: %s\n", path.c_str(), err.message.c_str());
      ::unlink(path.c_str());
      return 2;
    }
    touched += TouchColumns(view);
    report.Sample("trace.open_ms", open.ElapsedMillis());
    report.Sample("trace.gen_ms", gen_ms);
    report.Sample("setup_s", setup.ElapsedSeconds());
  }
  report.Sample("trace.file_mb", static_cast<double>(view.file_bytes()) / MiB);
  const uint64_t ops_per_kind = view.num_ops();
  std::printf("storm-1m: %llu-op storm (seed %llu), v2 file %s, column sum %llx\n",
              static_cast<unsigned long long>(ops_per_kind),
              static_cast<unsigned long long>(args.seed), FormatBytes(view.file_bytes()).c_str(),
              static_cast<unsigned long long>(touched));

  // --- untraced pass: the front door stalloc_run --trace-file drives ---
  Session session;
  session.SetReplayTrace(&view);
  ExperimentSpec spec;
  spec.axis = WorkloadAxis::kTrainRank;
  spec.trace_file = name;
  spec.allocators = kinds;
  spec.options.capacity_bytes = capacity;
  std::vector<RunRecord> records;
  double last_run_s = 0;
  auto untraced_pass = [&] {
    Stopwatch pass;
    records.clear();
    for (const std::string& kind : kinds) {
      records.push_back(session.RunOne(spec, kind));
    }
    for (const RunRecord& rec : records) {
      ToJson(rec).Dump(0);
    }
    last_run_s = pass.ElapsedSeconds();
    report.Sample("run_s", last_run_s);
    report.Sample("ns_per_op",
                  last_run_s * 1e9 / static_cast<double>(ops_per_kind * kinds.size()));
  };

  // --- traced pass: the same replays called layer by layer, then the stub split ---
  bool layer_checks_done = false;
  auto traced_pass = [&] {
    LayerClock layers;
    std::map<std::string, KindTally> tallies;
    Stopwatch pass;
    for (size_t k = 0; k < kinds.size(); ++k) {
      SimDevice device(capacity);
      std::unique_ptr<Allocator> alloc = AllocatorRegistry::Global().Create(kinds[k], &device);
      const ReplayResult r = TimedReplay(view, alloc.get(), &device, &tallies[kinds[k]]);
      if (!layer_checks_done) {
        report.Check(r.reserved_peak == records[k].reserved_peak,
                     "outside-in " + kinds[k] + " replay reproduces the Session record's Mr");
      }
    }
    layers.Time("api.report", [&] {
      for (const RunRecord& rec : records) {
        ToJson(rec).Dump(0);
      }
    });
    const double traced_s = pass.ElapsedSeconds();
    layer_checks_done = true;

    double replay_ms = 0;
    for (const auto& [kind, tally] : tallies) {
      replay_ms += tally.ms;
    }
    RawNullAllocator raw;
    TimedReplay(view, &raw, nullptr, &tallies["raw-null"]);
    BaseNullAllocator base;
    TimedReplay(view, &base, nullptr, &tallies["base-null"]);

    SampleReplaySplit(tallies, &report);
    report.Sample("api.report_ms", layers.Ms("api.report"));
    SampleTracedMeta(traced_s, last_run_s, replay_ms + layers.Ms("api.report"), &report);
  };

  RepeatFor(args.seconds, [&] {
    untraced_pass();
    if (args.trace) {
      traced_pass();
    }
  });
  report.Sample("peak_rss_mb", static_cast<double>(PeakRssBytes()) / MiB);

  // --- checks: every kind completes with the same Ma; view and owned replays agree ---
  int completed = 0;
  for (const RunRecord& rec : records) {
    report.Check(rec.ok(), rec.allocator + " replays the storm without OOM");
    report.Check(rec.allocated_peak == records[0].allocated_peak,
                 rec.allocator + " Ma equals " + records[0].allocator + " Ma");
    completed += rec.ok() ? 1 : 0;
    std::printf("  %-17s %-10s Ma=%s Mr=%s\n", rec.allocator.c_str(), RunStatusName(rec.status),
                FormatBytes(rec.allocated_peak).c_str(), FormatBytes(rec.reserved_peak).c_str());
  }
  report.Sample("completed_frac", static_cast<double>(completed) / records.size());
  const uint64_t view_digest = PlacementDigest(view, capacity);
  const uint64_t owned_digest = PlacementDigest(view.Materialize(), capacity);
  report.Check(view_digest == owned_digest, "torch-caching view and owned placement digests match");
  std::printf("storm-1m: torch-caching placement digest view=%016llx owned=%016llx\n",
              static_cast<unsigned long long>(view_digest),
              static_cast<unsigned long long>(owned_digest));

  view.Close();
  ::unlink(path.c_str());
  return report.Finish();
}

}  // namespace perfbench
