// train-fig8: the paper's Fig. 8 matrix through STAlloc — {gpt2 tp1/pp2/dp4 mb64, llama2-7b
// tp2/pp2/dp2 mb4, qwen1.5-moe tp1/pp2/dp4/ep4 mb8} x {N, R, V, VR, ZR, ZOR} x both boundary
// ranks, 8 microbatches, 80 GiB. Microbatches are pinned (the Fig. 8 bench probes them; the
// probe is not what this workload measures). trainsim, the profiler, the planner and the
// STAlloc runtime dominate, and the replay engine sees phase-structured LIFO-ish streams — the
// opposite use from storm-1m. The MoE cells exercise the dynamic allocator, because the
// profile seed (1001, pinned) and the run seed (--seed) differ.

#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "perfbench/src/null_allocators.h"
#include "perfbench/src/workloads.h"
#include "src/allocators/registry.h"
#include "src/api/serializers.h"
#include "src/api/session.h"
#include "src/common/check.h"
#include "src/common/table.h"
#include "src/common/units.h"
#include "src/core/planner.h"
#include "src/core/profiler.h"
#include "src/core/stalloc_allocator.h"
#include "src/trainsim/model_config.h"
#include "src/trainsim/workload.h"

namespace perfbench {

namespace {

using namespace stalloc;

constexpr int kSetupRepeats = 5;
constexpr uint64_t kProfileSeed = 1001;

struct Cell {
  ExperimentSpec spec;
  std::string label;
  uint64_t ops = 0;  // allocator ops the run trace drives into STAlloc
};

// The matrix, validated, with each cell's op count taken from its run trace.
std::vector<Cell> BuildCells(const Args& args) {
  struct ModelSetup {
    const char* model;
    ParallelConfig parallel;
    uint64_t micro_batch;
  };
  const ModelSetup setups[] = {
      {"gpt2", {/*tp=*/1, /*pp=*/2, /*dp=*/4, /*ep=*/1, /*vpp=*/1}, 64},
      {"llama2-7b", {/*tp=*/2, /*pp=*/2, /*dp=*/2, /*ep=*/1, /*vpp=*/1}, 4},
      {"qwen1.5-moe", {/*tp=*/1, /*pp=*/2, /*dp=*/4, /*ep=*/4, /*vpp=*/1}, 8},
  };
  const std::vector<const char*> tags =
      args.smoke ? std::vector<const char*>{"N", "R"}
                 : std::vector<const char*>{"N", "R", "V", "VR", "ZR", "ZOR"};
  std::vector<Cell> cells;
  for (const ModelSetup& setup : setups) {
    if (args.smoke && std::string(setup.model) != "gpt2") {
      continue;
    }
    TrainConfig base;
    base.parallel = setup.parallel;
    base.num_microbatches = 8;
    for (const char* tag : tags) {
      for (int rank : {0, setup.parallel.pp - 1}) {
        Cell cell;
        cell.spec.axis = WorkloadAxis::kTrainRank;
        cell.spec.model = setup.model;
        cell.spec.train = ApplyConfigTag(base, tag);
        cell.spec.train.micro_batch_size = setup.micro_batch;
        cell.spec.train.rank = rank;
        cell.spec.allocators = {"stalloc"};
        cell.spec.options.profile_seed = kProfileSeed;
        cell.spec.options.run_seed = args.seed;
        std::string error;
        STALLOC_CHECK(Session::Validate(cell.spec, &error), << "train-fig8 cell: " << error);
        cell.label = StrFormat("%s %s rank%d", setup.model, tag, rank);
        WorkloadBuilder workload(ModelByName(setup.model), cell.spec.EffectiveTrain());
        cell.ops = workload.Build(args.seed).Ops().size();
        cells.push_back(std::move(cell));
      }
    }
  }
  return cells;
}

uint64_t Fnv1a(uint64_t hash, uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    hash ^= (value >> (8 * i)) & 0xff;
    hash *= 1099511628211ull;
  }
  return hash;
}

}  // namespace

int RunTrainFig8(const Args& args) {
  Report report(args);

  // --- set-up: the validated cell matrix and its op counts, several times ---
  std::vector<Cell> cells;
  for (int i = 0; i < kSetupRepeats; ++i) {
    Stopwatch setup;
    cells = BuildCells(args);
    report.Sample("setup_s", setup.ElapsedSeconds());
  }
  uint64_t ops_per_pass = 0;
  for (const Cell& cell : cells) {
    ops_per_pass += cell.ops;
  }
  std::printf("train-fig8: %zu cells, %llu STAlloc ops per pass (run seed %llu, profile seed "
              "%llu)\n",
              cells.size(), static_cast<unsigned long long>(ops_per_pass),
              static_cast<unsigned long long>(args.seed),
              static_cast<unsigned long long>(kProfileSeed));

  // --- untraced pass: every cell through Session::RunOne, as stalloc_run runs a rank ---
  Session session;
  std::vector<RunRecord> records(cells.size());
  double last_run_s = 0;
  auto untraced_pass = [&] {
    Stopwatch pass;
    for (size_t i = 0; i < cells.size(); ++i) {
      records[i] = session.RunOne(cells[i].spec, "stalloc");
      ToJson(records[i]).Dump(0);
    }
    last_run_s = pass.ElapsedSeconds();
    report.Sample("run_s", last_run_s);
    report.Sample("ns_per_op", last_run_s * 1e9 / static_cast<double>(ops_per_pass));
  };

  // --- traced pass: the same pipeline called layer by layer ---
  bool layer_checks_done = false;
  auto traced_pass = [&] {
    LayerClock layers;
    std::map<std::string, KindTally> tallies;
    std::vector<Trace> run_traces;
    uint64_t events = 0;
    uint64_t native_calls = 0;
    uint64_t phase_groups = 0;
    uint64_t fusions = 0;
    uint64_t plan_layers = 0;
    uint64_t greedy_wins = 0;
    uint64_t planned = 0;
    double plan_efficiency_sum = 0;
    STAllocBreakdown breakdown;
    Stopwatch pass;
    for (size_t i = 0; i < cells.size(); ++i) {
      const ExperimentOptions& options = cells[i].spec.options;
      WorkloadBuilder workload(ModelByName(cells[i].spec.model), cells[i].spec.EffectiveTrain());
      Trace run = layers.Time("trainsim", [&] { return workload.Build(options.run_seed); });
      Trace profiled =
          layers.Time("trainsim", [&] { return workload.Build(options.profile_seed); });
      events += run.size() + profiled.size();
      ProfileResult profile = layers.Time(
          "profiler", [&] { return ProfileTrace(std::move(profiled), options.capacity_bytes); });
      native_calls += profile.native_api_calls;
      if (!profile.feasible) {
        report.Check(false, cells[i].label + ": profile is feasible");
        continue;
      }
      SynthesisResult synthesis = layers.Time("planner", [&] { return SynthesizePlan(profile.trace); });
      ++planned;
      phase_groups += synthesis.stats.num_phase_groups;
      fusions += synthesis.stats.num_fusions;
      plan_layers += synthesis.stats.num_layers;
      greedy_wins += synthesis.stats.used_greedy_refinement ? 1 : 0;
      plan_efficiency_sum += synthesis.stats.PlanEfficiency();

      SimDevice device(options.capacity_bytes);
      std::unique_ptr<STAllocAllocator> alloc = layers.Time("stalloc.init", [&] {
        auto a = std::make_unique<STAllocAllocator>(&device, std::move(synthesis.plan),
                                                    std::move(synthesis.dyn_space));
        return a->Init() ? std::move(a) : nullptr;
      });
      if (alloc == nullptr) {
        report.Check(false, cells[i].label + ": STAlloc pool reservation succeeds");
        continue;
      }
      const ReplayResult r = TimedReplay(run, alloc.get(), &device, &tallies["stalloc"]);
      const STAllocBreakdown& b = alloc->breakdown();
      breakdown.static_hits += b.static_hits;
      breakdown.static_mismatches += b.static_mismatches;
      breakdown.dynamic_reuse_hits += b.dynamic_reuse_hits;
      breakdown.dynamic_fallbacks += b.dynamic_fallbacks;
      if (!layer_checks_done) {
        report.Check(r.reserved_peak == records[i].reserved_peak,
                     cells[i].label + ": outside-in replay reproduces the Session record's Mr");
      }
      run_traces.push_back(std::move(run));
    }
    layers.Time("api.report", [&] {
      for (const RunRecord& rec : records) {
        ToJson(rec).Dump(0);
      }
    });
    const double traced_s = pass.ElapsedSeconds();
    layer_checks_done = true;

    // The paper's online-overhead comparison and the ledger split, on the same run traces.
    for (const Trace& run : run_traces) {
      SimDevice device(cells[0].spec.options.capacity_bytes);
      std::unique_ptr<Allocator> caching =
          AllocatorRegistry::Global().Create("torch-caching", &device);
      TimedReplay(run, caching.get(), &device, &tallies["torch-caching"]);
      RawNullAllocator raw;
      TimedReplay(run, &raw, nullptr, &tallies["raw-null"]);
      BaseNullAllocator base;
      TimedReplay(run, &base, nullptr, &tallies["base-null"]);
    }

    report.Sample("trainsim.build_ms", layers.Ms("trainsim"));
    report.Sample("trainsim.events", static_cast<double>(events));
    report.Sample("profiler.profile_ms", layers.Ms("profiler"));
    report.Sample("profiler.native_api_calls", static_cast<double>(native_calls));
    report.Sample("planner.plan_ms", layers.Ms("planner"));
    report.Sample("planner.phase_groups", static_cast<double>(phase_groups));
    report.Sample("planner.fusions", static_cast<double>(fusions));
    report.Sample("planner.layers", static_cast<double>(plan_layers));
    report.Sample("planner.greedy_win_ratio", Ratio(greedy_wins, planned));
    report.Sample("planner.plan_efficiency", Ratio(plan_efficiency_sum, planned));
    report.Sample("stalloc.init_ms", layers.Ms("stalloc.init"));
    report.Sample("stalloc.static_hit_ratio",
                  Ratio(breakdown.static_hits,
                        breakdown.static_hits + breakdown.static_mismatches));
    report.Sample("stalloc.dynamic_reuse_ratio",
                  Ratio(breakdown.dynamic_reuse_hits,
                        breakdown.dynamic_reuse_hits + breakdown.dynamic_fallbacks));
    SampleReplaySplit(tallies, &report);
    report.Sample("api.report_ms", layers.Ms("api.report"));
    const double spans_ms = layers.Ms("trainsim") + layers.Ms("profiler") +
                            layers.Ms("planner") + layers.Ms("stalloc.init") +
                            tallies["stalloc"].ms + layers.Ms("api.report");
    SampleTracedMeta(traced_s, last_run_s, spans_ms, &report);
  };

  RepeatFor(args.seconds, [&] {
    untraced_pass();
    if (args.trace) {
      traced_pass();
    }
  });
  report.Sample("peak_rss_mb", static_cast<double>(PeakRssBytes()) / MiB);

  // --- checks: no STAlloc cell fails, and Ma matches the caching allocator's on every cell ---
  int completed = 0;
  double frag_sum = 0;
  uint64_t digest = 14695981039346656037ull;
  for (size_t i = 0; i < cells.size(); ++i) {
    const RunRecord& rec = records[i];
    const RunRecord caching = session.RunOne(cells[i].spec, "torch-caching");
    report.Check(rec.ok(), cells[i].label + ": STAlloc is " + RunStatusName(rec.status));
    report.Check(caching.ok() && rec.allocated_peak == caching.allocated_peak,
                 cells[i].label + ": STAlloc Ma equals torch-caching Ma");
    completed += rec.ok() ? 1 : 0;
    frag_sum += 1.0 - rec.memory_efficiency;
    for (uint64_t v : {rec.allocated_peak, rec.reserved_peak, caching.reserved_peak}) {
      digest = Fnv1a(digest, v);
    }
    std::printf("  %-22s stalloc E=%6.2f%% Mr=%-10s torch-caching E=%6.2f%% Mr=%s\n",
                cells[i].label.c_str(), rec.memory_efficiency * 100,
                FormatBytes(rec.reserved_peak).c_str(), caching.memory_efficiency * 100,
                FormatBytes(caching.reserved_peak).c_str());
  }
  report.Sample("completed_frac", static_cast<double>(completed) / cells.size());
  report.Sample("stalloc_frag_ratio", frag_sum / cells.size());
  std::printf("train-fig8: Ma/Mr digest %016llx\n", static_cast<unsigned long long>(digest));
  return report.Finish();
}

}  // namespace perfbench
