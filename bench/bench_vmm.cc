// Remap-based vs copy-based compaction (the VMM allocator's headline trade).
//
// Two defragmentation models over the same deterministic workloads:
//   * copy model — the offline compactor (src/core/compaction): re-place decisions at lower
//     offsets; realizing the compacted layout at runtime means cudaMemcpy'ing every moved
//     block's payload (CompactionResult::bytes_moved).
//   * remap model — the VMM allocator (src/vmm): under physical pressure, idle pages are
//     unmapped and their handles remapped beneath new allocations. The same "memory moved"
//     effect at map-call cost; VmmStats::bytes_copied is zero by construction.
//
// Each scenario replays its trace through the VMM allocator at a capacity squeezed close to the
// workload's live peak (so remap pressure is real), runs the copy-model compactor over the
// grouped plan of the same trace, and compares the bytes each model must physically transfer.
// The cache storm is the headline scenario — random-order frees are what fragments both the
// grouped plan and the VA space; the GPT-2 row shows the models on an iteration-shaped trace.
// Each row also pins the huge-page trade-off: granularity 2 MiB vs 64 KiB on identical pressure
// (fewer map calls vs tighter Mr).
//
//   bench_vmm [--json FILE]   ("-" = JSON to stdout)

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "src/api/report.h"
#include "src/allocators/registry.h"
#include "src/common/check.h"
#include "src/common/flags.h"
#include "src/core/compaction.h"
#include "src/driver/replay.h"
#include "src/gpu/sim_device.h"
#include "src/replay/replay_engine.h"
#include "src/trace/synthetic.h"
#include "src/trace/trace_stats.h"
#include "src/vmm/vmm_allocator.h"

namespace {

using namespace stalloc;

// Copy-model realization bandwidth: device-to-device cudaMemcpy on an A800-class part
// (~1.5 TB/s effective). Only used to translate bytes_moved into a modelled wall clock.
constexpr double kCopyBytesPerUs = 1.5e6;  // 1.5 TB/s in bytes/us

struct VmmRun {
  uint64_t granularity = 0;
  bool oom = false;
  uint64_t reserved_peak = 0;
  double memory_efficiency = 0;
  VmmStats stats;
  double modeled_remap_us = 0;
};

VmmRun RunVmm(const Trace& trace, uint64_t capacity, uint64_t granularity) {
  VmmRun run;
  run.granularity = granularity;
  SimDevice device(capacity);
  VmmConfig config;
  config.granularity = granularity;
  VmmAllocator alloc(&device, config);
  const ReplayResult r = ReplayTrace(trace, &alloc);
  run.oom = r.oom;
  run.reserved_peak = r.reserved_peak;
  run.memory_efficiency = r.memory_efficiency;
  run.stats = alloc.vmm_stats();
  run.modeled_remap_us =
      static_cast<double>(run.stats.pages_remapped) *
      (device.cost_model().mem_map_us + device.cost_model().mem_unmap_us);
  return run;
}

Json VmmJson(const VmmRun& run) {
  Json j = Json::Object();
  j.Set("granularity", run.granularity);
  j.Set("oom", run.oom);
  j.Set("reserved_peak", run.reserved_peak);
  j.Set("memory_efficiency", run.memory_efficiency);
  j.Set("remap_events", run.stats.remap_events);
  j.Set("pages_remapped", run.stats.pages_remapped);
  j.Set("bytes_remapped", run.stats.bytes_remapped);
  j.Set("bytes_copied", run.stats.bytes_copied);
  j.Set("map_calls", run.stats.map_calls);
  j.Set("unmap_calls", run.stats.unmap_calls);
  j.Set("modeled_remap_ms", run.modeled_remap_us / 1e3);
  return j;
}

// Records every placement an online allocator makes during a replay as a PlanDecision — the
// spacetime layout a copy-based defragmenter would have to compact at runtime.
class PlacementCapture : public ReplayObserver {
 public:
  void AfterMalloc(ReplayEngine& engine, const ReplayOpView& op, uint64_t addr) override {
    PlanDecision d;
    d.event = engine.source(op.source).trace.Event(op.event_id);
    d.addr = addr;
    d.padded_size = AlignUp(op.size, kPlanAlign);
    decisions_.push_back(d);
  }

  // Rebases the captured device addresses to offsets and packages them as a StaticPlan (so
  // CompactPlan can chew on the layout exactly as it does on synthesized plans).
  StaticPlan ToPlan() const {
    StaticPlan plan;
    plan.decisions = decisions_;
    uint64_t lo = UINT64_MAX;
    for (const PlanDecision& d : plan.decisions) {
      lo = std::min(lo, d.addr);
    }
    uint64_t hi = 0;
    for (PlanDecision& d : plan.decisions) {
      d.addr -= lo;
      hi = std::max(hi, d.end_addr());
    }
    plan.pool_size = hi;
    plan.lower_bound = StaticPlan::PeakPaddedBytes(plan.decisions);
    return plan;
  }

 private:
  std::vector<PlanDecision> decisions_;
};

// The fragmented layout the copy model starts from: the trace replayed through the caching
// allocator on an unconstrained device (2x peak, so fragmentation develops freely instead of
// hitting OOM).
StaticPlan CaptureCachingLayout(const Trace& trace, uint64_t peak) {
  SimDevice device(AlignUp(peak * 2, SimDevice::kGranularity));
  std::unique_ptr<Allocator> alloc = AllocatorRegistry::Global().Create("torch-caching", &device);
  PlacementCapture capture;
  const ReplayResult r = ReplayTrace(trace, alloc.get(), &capture);
  STALLOC_CHECK(!r.oom);
  return capture.ToPlan();
}

// The layout copy-based and remap-based defragmenters were invented for (§2.2, GMLake): a
// checkerboard of stranded gaps. 64 blocks of 4 MiB fill the heap; every odd block is freed,
// leaving 32 four-MiB gaps no 8 MiB request can use. Phase two allocates 16 x 8 MiB. A classic
// allocator needs fresh memory for all of phase two (gaps are wasted); the VMM allocator steals
// the idle 2 MiB pages inside the gaps and remaps them under the new virtual ranges.
Trace CheckerboardTrace() {
  Trace trace;
  constexpr uint64_t kBlock = 4 * MiB;
  for (uint64_t i = 0; i < 64; ++i) {
    MemoryEvent e;
    e.size = kBlock;
    e.ts = 1 + i;
    e.te = (i % 2 == 1) ? 100 + i : 1000;  // odd blocks freed mid-run -> the gaps
    trace.AddEvent(e);
  }
  for (uint64_t j = 0; j < 16; ++j) {
    MemoryEvent e;
    e.size = 2 * kBlock;
    e.ts = 300 + j;
    e.te = 1000;
    trace.AddEvent(e);
  }
  trace.Validate();
  return trace;
}

Trace Gpt2Trace() {
  // One GPT-2 iteration with recomputation, first pipeline stage — the checkerboard of
  // activation lifespans that makes online allocators fragment (§2.2).
  TrainConfig config;
  config.parallel.pp = 2;
  config.parallel.dp = 4;
  config.num_microbatches = 8;
  config.micro_batch_size = 8;
  config.rank = 0;
  config = ApplyConfigTag(config, "R");
  WorkloadBuilder wb(Gpt2_345M(), config);
  return wb.Build(1);
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  FlagParser flags("bench_vmm", "Remap-based vs copy-based compaction over fixed workloads.");
  flags.Add("--json", &json_path, "FILE", "machine-readable summary ('-' = stdout)");
  if (!flags.Parse(argc, argv)) {
    return 2;
  }

  struct Scenario {
    const char* name;
    Trace trace;
  };
  std::vector<Scenario> scenarios;
  scenarios.push_back({"checkerboard", CheckerboardTrace()});
  scenarios.push_back({"storm-20k", BuildStormTrace(10000, 42)});
  scenarios.push_back({"gpt2-R", Gpt2Trace()});

  ReportSink sink("vmm", json_path);
  Json scenarios_json = Json::Array();
  bool remap_wins_somewhere = false;
  bool any_failure = false;
  for (const Scenario& scenario : scenarios) {
    const TraceStats stats = ComputeStats(scenario.trace);
    sink.Printf("%s — %zu events, live peak %s\n\n", scenario.name, scenario.trace.size(),
                FormatBytes(stats.peak_allocated).c_str());

    // Copy model: compact the layout the caching allocator actually produced — the fragmented
    // heap a GMLake-style copy defragmenter would be cleaning up at runtime.
    const StaticPlan captured = CaptureCachingLayout(scenario.trace, stats.peak_allocated);
    const CompactionResult compacted = CompactPlan(captured);
    const double copy_us = static_cast<double>(compacted.bytes_moved) / kCopyBytesPerUs;
    sink.Printf("copy model: %llu moves, %s copied (modeled %.2f ms at 1.5 TB/s), pool %s -> "
                "%s\n",
                static_cast<unsigned long long>(compacted.moves),
                FormatBytes(compacted.bytes_moved).c_str(), copy_us / 1e3,
                FormatBytes(compacted.initial_pool).c_str(),
                FormatBytes(compacted.plan.pool_size).c_str());
    Json copy_json = Json::Object();
    copy_json.Set("moves", compacted.moves);
    copy_json.Set("bytes_moved", compacted.bytes_moved);
    copy_json.Set("pool_before", compacted.initial_pool);
    copy_json.Set("pool_after", compacted.plan.pool_size);
    copy_json.Set("rounds", compacted.rounds);
    copy_json.Set("modeled_copy_ms", copy_us / 1e3);
    copy_json.Set("compact_wall_ms", compacted.wall_ms);

    // Remap model: for each granularity, bisect for the minimum capacity at which the replay
    // completes (the paper's OOM-threshold methodology, made fine-grained). One resolution step
    // below min-fit OOMs, so at min-fit the allocator sits right at the edge of physical
    // pressure: the VA footprint it would lazily map exceeds the capacity, and the difference
    // is exactly what idle-page remapping recovers.
    TextTable table({"granularity", "min-fit capacity", "E (%)", "remaps", "bytes remapped",
                     "bytes copied", "map calls", "modeled (ms)"});
    Json runs = Json::Array();
    VmmRun huge;
    uint64_t huge_capacity = 0;
    bool search_failed = false;
    for (const uint64_t granularity : {SimDevice::kGranularity, SimDevice::kMinGranularity}) {
      // Grow until the workload first fits, then bisect down to ~0.2% of peak.
      uint64_t lo = AlignUp(stats.peak_allocated, SimDevice::kGranularity);
      uint64_t capacity = lo;
      VmmRun run = RunVmm(scenario.trace, capacity, granularity);
      const uint64_t grow = std::max<uint64_t>(stats.peak_allocated / 8, SimDevice::kGranularity);
      while (run.oom && capacity < stats.peak_allocated * 4) {
        lo = capacity;
        capacity = AlignUp(capacity + grow, SimDevice::kGranularity);
        run = RunVmm(scenario.trace, capacity, granularity);
      }
      const uint64_t resolution =
          std::max<uint64_t>(stats.peak_allocated / 512, SimDevice::kGranularity);
      while (!run.oom && capacity - lo > resolution) {
        const uint64_t mid = AlignUp(lo + (capacity - lo) / 2, SimDevice::kGranularity);
        const VmmRun probe = RunVmm(scenario.trace, mid, granularity);
        if (probe.oom) {
          lo = mid;
        } else {
          capacity = mid;
          run = probe;
        }
      }
      search_failed |= run.oom;
      if (granularity == SimDevice::kGranularity) {
        huge = run;
        huge_capacity = capacity;
      }
      table.AddRow(
          {FormatBytes(granularity), run.oom ? "never fits" : FormatBytes(capacity),
           StrFormat("%.1f", run.memory_efficiency * 100.0),
           StrFormat("%llu", static_cast<unsigned long long>(run.stats.pages_remapped)),
           FormatBytes(run.stats.bytes_remapped), FormatBytes(run.stats.bytes_copied),
           StrFormat("%llu", static_cast<unsigned long long>(run.stats.map_calls)),
           StrFormat("%.2f", run.modeled_remap_us / 1e3)});
      Json run_json = VmmJson(run);
      run_json.Set("min_fit_capacity", capacity);
      runs.Add(std::move(run_json));
    }
    sink.Print(table);

    // Remap "wins" the scenario when it defragments for free what the copy model pays
    // bytes_moved for: the workload fits at its min-fit capacity, real remapping happened
    // there, zero bytes copied.
    const bool remap_wins = !huge.oom && huge.stats.bytes_remapped > 0 &&
                            huge.stats.bytes_copied < compacted.bytes_moved;
    remap_wins_somewhere |= remap_wins;
    any_failure |= search_failed;
    sink.Printf("\nbytes physically copied at %s: copy model %s, remap model %s — %s\n\n",
                FormatBytes(huge_capacity).c_str(), FormatBytes(compacted.bytes_moved).c_str(),
                FormatBytes(huge.stats.bytes_copied).c_str(),
                remap_wins ? "remap wins" : "no remap win");

    Json scenario_json = Json::Object();
    scenario_json.Set("scenario", scenario.name);
    scenario_json.Set("trace_events", scenario.trace.size());
    scenario_json.Set("peak_allocated", stats.peak_allocated);
    scenario_json.Set("copy_model", std::move(copy_json));
    scenario_json.Set("vmm_runs", std::move(runs));
    scenario_json.Set("remap_wins", remap_wins);
    scenarios_json.Add(std::move(scenario_json));
  }
  sink.Meta("scenarios", std::move(scenarios_json));
  sink.Meta("remap_wins", remap_wins_somewhere);
  const int status = sink.Finish();
  // No scenario where remapping beats copying (or an OOM under the thin cushion) would
  // invalidate the subsystem's premise: fail loudly.
  return (remap_wins_somewhere && !any_failure) ? status : 1;
}
