// Fig. 10 reproduction: memory efficiency vs microbatch size (1..64), Llama2-7B with
// recomputation on Megatron-LM, 8xA800.
//
// Shape to reproduce: STAlloc stays ~99% across all microbatch sizes; the baselines degrade as
// the microbatch (and thus the recompute-affected activation size) grows, and the largest sizes
// OOM under fragmentation-prone allocators.

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"

int main() {
  using namespace stalloc;

  TrainConfig base;
  base.parallel = {/*tp=*/2, /*pp=*/2, /*dp=*/2, /*ep=*/1, /*vpp=*/1};
  base.num_microbatches = 8;
  base.opt.recompute = RecomputeMode::kFull;
  base.opt.zero = ZeroStage::kStage1;  // distributed optimizer: lets large microbatches fit

  std::printf("Fig. 10 — Llama2-7B + recomputation, 8xA800: efficiency vs microbatch size\n\n");
  TextTable table({"microbatch", "Torch", "GMLake", "Torch ES", "STAlloc"});
  for (uint64_t mb : {1, 2, 4, 8, 16, 32, 64}) {
    TrainConfig c = base;
    c.micro_batch_size = mb;
    std::vector<std::string> row = {StrFormat("%llu", static_cast<unsigned long long>(mb))};
    for (const std::string& allocator : PaperAllocators()) {
      ExperimentOptions opt;
      opt.capacity_bytes = kA800Capacity;
      row.push_back(EffCell(RunWorstRank("llama2-7b", c, allocator, opt)));
    }
    table.AddRow(row);
  }
  table.Print();
  return 0;
}
