// Fig. 9(b)/(c) reproduction: scalability over model and cluster size — Qwen2.5 7B/14B/32B/72B
// on 8 to 128 H200-141GB GPUs, under recomputation (b) or virtual pipeline (c). Allocators:
// caching, expandable segments, STAlloc (GMLake lacks PyTorch 2.6 support on this platform).
//
// Shapes to reproduce: STAlloc ~99% everywhere and flat as scale grows; caching and ES decline
// with model/cluster size; "OOM" cells appear for the baselines on the biggest settings while
// STAlloc completes.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"

int main() {
  using namespace stalloc;

  struct Case {
    const char* model;
    int gpus;
    ParallelConfig parallel;
  };
  // Paper x-axis: each model at two cluster sizes (7B: 8/16, 14B: 16/32, 32B: 32/64,
  // 72B: 64/128). Parallelism grows with the model, DP doubles between the two points.
  const Case cases[] = {
      {"qwen2.5-7b", 8, {2, 2, 2, 1, 1}},    {"qwen2.5-7b", 16, {2, 2, 4, 1, 1}},
      {"qwen2.5-14b", 16, {2, 2, 4, 1, 1}},  {"qwen2.5-14b", 32, {2, 2, 8, 1, 1}},
      {"qwen2.5-32b", 32, {4, 2, 4, 1, 1}},  {"qwen2.5-32b", 64, {4, 2, 8, 1, 1}},
      {"qwen2.5-72b", 64, {4, 4, 4, 1, 1}},  {"qwen2.5-72b", 128, {4, 4, 8, 1, 1}},
  };

  for (const bool vpp : {false, true}) {
    std::printf("Fig. 9(%s) — Qwen2.5 on H200-141GB, %s\n\n", vpp ? "c" : "b",
                vpp ? "virtual pipeline" : "recomputation");
    TextTable table({"model", "GPUs", "mb", "Torch", "Torch ES", "STAlloc"});
    for (const auto& c : cases) {
      TrainConfig base;
      base.parallel = c.parallel;
      base.parallel.vpp_chunks = vpp ? 2 : 1;
      base.num_microbatches = 8;
      if (!vpp) {
        base.opt.recompute = RecomputeMode::kFull;
      }
      base.opt.zero = ZeroStage::kStage1;  // distributed optimizer (Megatron default at scale)

      // The paper picks configurations at the edge of feasibility; probe with the native
      // allocator so that fragmentation-prone baselines can legitimately OOM.
      const uint64_t mb =
          MaxFeasibleMicrobatch(c.model, base, "native", kH200Capacity);
      base.micro_batch_size = std::max<uint64_t>(1, mb);
      ExperimentOptions opt;
      opt.capacity_bytes = kH200Capacity;
      std::vector<std::string> row = {c.model, StrFormat("%d", c.gpus),
                                      StrFormat("%llu", static_cast<unsigned long long>(
                                                            base.micro_batch_size))};
      for (const char* allocator : {"torch-caching", "torch-expandable", "stalloc"}) {
        row.push_back(EffCell(RunWorstRank(c.model, base, allocator, opt)));
      }
      table.AddRow(row);
    }
    table.Print();
    std::printf("\n");
  }
  return 0;
}
