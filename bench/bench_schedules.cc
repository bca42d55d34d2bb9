// Schedule study (context for §2.1): per-rank activation pressure and allocator behaviour under
// GPipe, 1F1B, interleaved VPP, and the recomputation variants — the memory/throughput
// trade-off space that motivates the paper. Not a paper figure; included as the substrate
// validation for the pipeline schedules.

#include <cstdint>
#include <cstdio>

#include "bench/bench_util.h"
#include "src/trace/trace_stats.h"

int main() {
  using namespace stalloc;

  struct Variant {
    const char* name;
    PipelineSchedule schedule;
    int vpp_chunks;
    RecomputeMode recompute;
  };
  const Variant variants[] = {
      {"GPipe", PipelineSchedule::kGPipe, 1, RecomputeMode::kNone},
      {"1F1B", PipelineSchedule::k1F1B, 1, RecomputeMode::kNone},
      {"1F1B + selective recompute", PipelineSchedule::k1F1B, 1, RecomputeMode::kSelective},
      {"1F1B + full recompute", PipelineSchedule::k1F1B, 1, RecomputeMode::kFull},
      {"VPP (2 chunks)", PipelineSchedule::k1F1B, 2, RecomputeMode::kNone},
      {"VPP + full recompute", PipelineSchedule::k1F1B, 2, RecomputeMode::kFull},
  };

  std::printf("Schedule study — GPT-2, pp=2 rank 0, 8 microbatches, mb=16\n\n");
  TextTable table({"schedule", "peak allocated (Ma)", "torch E", "STAlloc E"});
  Session session;
  for (const auto& v : variants) {
    TrainConfig c;
    c.parallel = {1, 2, 4, 1, v.vpp_chunks};
    c.num_microbatches = 8;
    c.micro_batch_size = 16;
    c.opt.schedule = v.schedule;
    c.opt.recompute = v.recompute;
    WorkloadBuilder wb(Gpt2_345M(), c);
    const uint64_t peak = PeakAllocated(wb.Build(1));
    ExperimentSpec spec;
    spec.model = "gpt2";
    spec.train = c;
    spec.options.capacity_bytes = kA800Capacity;
    const ExperimentResult torch = *session.RunOne(spec, "torch-caching").train_rank;
    const ExperimentResult st = *session.RunOne(spec, "stalloc").train_rank;
    table.AddRow({v.name, FormatBytes(peak), EffCell(torch), EffCell(st)});
  }
  table.Print();
  std::printf("\nGPipe holds every microbatch's activations (highest Ma); 1F1B bounds residency\n"
              "by pipeline depth; recomputation trades Ma for repeated forwards; VPP raises Ma\n"
              "for smaller bubbles. STAlloc stays near 100%% efficiency across all of them.\n");
  return 0;
}
