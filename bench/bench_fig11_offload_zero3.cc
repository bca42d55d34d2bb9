// Fig. 11 reproduction: generality across training frameworks — GPT-2 on a Colossal-AI-style
// stack (tensor offload + ZeRO-3, no pipeline parallelism) at two batch sizes.
//
// Shape to reproduce: STAlloc beats every baseline at both batch sizes; efficiency of the
// baselines is lower at the larger batch.

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"

int main() {
  using namespace stalloc;

  std::printf("Fig. 11 — GPT-2 on Colossal-AI-style offload + ZeRO-3, 8 GPUs\n\n");
  TextTable table({"batch size", "Torch", "GMLake", "Torch ES", "STAlloc"});
  for (uint64_t batch : {16, 128}) {
    TrainConfig c;
    c.parallel = {/*tp=*/1, /*pp=*/1, /*dp=*/8, /*ep=*/1, /*vpp=*/1};
    c.num_microbatches = 1;
    c.micro_batch_size = batch;
    c.opt.zero = ZeroStage::kStage3;
    c.opt.offload = true;
    std::vector<std::string> row = {StrFormat("%llu", static_cast<unsigned long long>(batch))};
    for (const std::string& allocator : PaperAllocators()) {
      ExperimentOptions opt;
      opt.capacity_bytes = kA800Capacity;
      row.push_back(EffCell(RunWorstRank("gpt2", c, allocator, opt)));
    }
    table.AddRow(row);
  }
  table.Print();
  return 0;
}
