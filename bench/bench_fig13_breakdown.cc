// Fig. 13 + Table 3 reproduction: performance breakdown of the static and dynamic allocators on
// Qwen1.5-MoE-A2.7B across optimization combinations.
//
// Shapes to reproduce (§9.4):
//   * efficiency ordering: caching <= STAlloc w/o reuse <= full STAlloc;
//   * the static plan contributes ~90% of the defragmentation;
//   * dynamic reuse helps most with recomputation (dynamic and static lifespans disjoint) and
//     little without it (Table 3: fallback bytes drop when reuse is enabled, most under R).
// Also prints the fusion and gap-insertion planner ablations called out in docs/ARCHITECTURE.md.

#include <cstdint>
#include <cstdio>
#include <string>

#include "bench/bench_util.h"
#include "src/core/planner.h"
#include "src/core/profiler.h"

int main() {
  using namespace stalloc;

  TrainConfig base;
  base.parallel = {/*tp=*/1, /*pp=*/2, /*dp=*/4, /*ep=*/4, /*vpp=*/1};
  base.num_microbatches = 8;
  const ModelConfig model = Qwen15_MoE_A27B();

  TrainConfig probe = ApplyConfigTag(base, "V");
  probe.opt.zero = ZeroStage::kStage1;
  const uint64_t mb = MaxFeasibleMicrobatch(model.name, probe, "torch-caching", kA800Capacity);

  std::printf("Fig. 13 — Qwen1.5-MoE-A2.7B memory-efficiency breakdown, microbatch=%llu\n\n",
              static_cast<unsigned long long>(mb));
  TextTable fig13({"config", "Caching Allocator", "STAlloc w/o reuse", "STAlloc"});
  TextTable table3({"config", "total reserved", "static pool", "fallback w/o reuse",
                    "fallback with reuse"});
  for (const char* tag : {"N", "R", "V", "VR", "ZR", "ZOR"}) {
    TrainConfig c = ApplyConfigTag(base, tag);
    c.opt.zero = c.opt.zero == ZeroStage::kNone ? ZeroStage::kStage1 : c.opt.zero;
    c.micro_batch_size = mb;
    ExperimentOptions opt;
    opt.capacity_bytes = kA800Capacity;
    ExperimentResult caching = RunWorstRank(model.name, c, "torch-caching", opt);
    ExperimentResult noreuse = RunWorstRank(model.name, c, "stalloc-noreuse", opt);
    ExperimentResult full = RunWorstRank(model.name, c, "stalloc", opt);
    fig13.AddRow({tag, EffCell(caching), EffCell(noreuse), EffCell(full)});

    auto fallback_bytes = [](const ExperimentResult& r) {
      return r.oom || r.infeasible ? std::string("-")
                                   : FormatBytes(r.breakdown.fallback_bytes);
    };
    table3.AddRow({tag, ReservedCell(full),
                   full.oom ? "-" : FormatBytes(full.plan_stats.pool_size),
                   fallback_bytes(noreuse), fallback_bytes(full)});
  }
  fig13.Print();
  std::printf("\nTable 3 — composition of allocation types (fallback = caching-allocator "
              "traffic)\n\n");
  table3.Print();

  // Planner ablations (docs/ARCHITECTURE.md): effect of TMP fusion and descending-size gap
  // insertion on the plan pool size.
  std::printf("\nPlanner ablations (pool size, Qwen1.5-MoE, R config):\n\n");
  TrainConfig c = ApplyConfigTag(base, "R");
  c.opt.zero = ZeroStage::kStage1;
  c.micro_batch_size = mb;
  WorkloadBuilder wb(model, c);
  ProfileResult profile = ProfileWorkload(wb, kA800Capacity, 1);
  TextTable ablation({"variant", "pool size", "plan efficiency"});
  // Greedy refinement is disabled for the grouped-planner variants so the contribution of each
  // grouping mechanism is visible; the last row shows the full synthesizer.
  const struct {
    const char* name;
    bool fusion;
    bool gaps;
    bool greedy;
  } variants[] = {{"grouped planner (fusion + gap insertion)", true, true, false},
                  {"grouped, no TMP fusion", false, true, false},
                  {"grouped, no gap insertion", true, false, false},
                  {"grouped, neither", false, false, false},
                  {"full synthesizer (with greedy refinement)", true, true, true}};
  for (const auto& v : variants) {
    PlanSynthesizerConfig pc;
    pc.enable_fusion = v.fusion;
    pc.enable_gap_insertion = v.gaps;
    pc.enable_greedy_refinement = v.greedy;
    SynthesisResult r = SynthesizePlan(profile.trace, pc);
    ablation.AddRow({v.name, FormatBytes(r.plan.pool_size),
                     StrFormat("%.1f%%", r.stats.PlanEfficiency() * 100.0)});
  }
  ablation.Print();
  return 0;
}
