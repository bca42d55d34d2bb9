// Fig. 9(a) reproduction: memory efficiency at cluster scale on the AMD testbed
// (8x MI210-64GB per node), training Llama2-7B on 32 GPUs and Qwen1.5-MoE-A2.7B on 64 GPUs,
// both with recomputation. Baseline: the PyTorch caching allocator (GMLake does not support
// AMD GPUs and this platform's PyTorch predates expandable segments — §9.2).
//
// Shape to reproduce: STAlloc >90% (up to ~99.7%) on both; caching <60% for Llama2-7B.

#include <cstdint>
#include <cstdio>

#include "bench/bench_util.h"

int main() {
  using namespace stalloc;

  struct Case {
    const char* name;
    ModelConfig model;
    ParallelConfig parallel;
    int gpus;
  };
  const Case cases[] = {
      {"Llama2-7B / 32 GPUs", Llama2_7B(), {/*tp=*/4, /*pp=*/2, /*dp=*/4, /*ep=*/1, /*vpp=*/1},
       32},
      {"Qwen1.5-MoE / 64 GPUs", Qwen15_MoE_A27B(),
       {/*tp=*/2, /*pp=*/2, /*dp=*/16, /*ep=*/4, /*vpp=*/1}, 64},
  };

  std::printf("Fig. 9(a) — AMD MI210-64GB, recomputation enabled\n\n");
  TextTable table({"case", "microbatch", "Torch", "STAlloc"});
  for (const auto& c : cases) {
    TrainConfig base;
    base.parallel = c.parallel;
    base.num_microbatches = 8;
    base.opt.recompute = RecomputeMode::kFull;
    base.opt.zero = ZeroStage::kStage1;  // distributed optimizer, required to fit 64 GB

    const uint64_t mb =
        MaxFeasibleMicrobatch(c.model.name, base, "torch-caching", kMI210Capacity);
    base.micro_batch_size = mb;
    ExperimentOptions opt;
    opt.capacity_bytes = kMI210Capacity;
    ExperimentResult torch = RunWorstRank(c.model.name, base, "torch-caching", opt);
    ExperimentResult st = RunWorstRank(c.model.name, base, "stalloc", opt);
    table.AddRow({c.name, StrFormat("%llu", static_cast<unsigned long long>(mb)), EffCell(torch),
                  EffCell(st)});
  }
  table.Print();
  return 0;
}
