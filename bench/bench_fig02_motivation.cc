// Fig. 2 reproduction: PyTorch caching-allocator memory efficiency for GPT-2 on the 8xA800
// testbed under no optimization (N), recomputation (R) and virtual pipeline (V).
//
// Paper: the 1F1B baseline reaches ~90% efficiency; VPP raises allocated memory and drops
// efficiency to ~80%; recomputation cuts allocated memory but drops efficiency to ~60%.
// The shape to reproduce: E(N) > E(V) > E(R), with Ma(R) < Ma(N) <= Ma(V).

#include <cstdint>
#include <cstdio>

#include "bench/bench_util.h"

int main() {
  using namespace stalloc;

  TrainConfig base;
  base.parallel = {/*tp=*/1, /*pp=*/2, /*dp=*/4, /*ep=*/1, /*vpp_chunks=*/1};
  base.num_microbatches = 8;

  // Paper practice: the largest microbatch that trains without OOM (GPT-2 uses large batches).
  TrainConfig probe = ApplyConfigTag(base, "V");
  const uint64_t mb = MaxFeasibleMicrobatch("gpt2", probe, "torch-caching", kA800Capacity);
  base.micro_batch_size = mb;
  std::printf("Fig. 2 — GPT-2 (345M), 8xA800, PyTorch caching allocator, microbatch=%llu\n\n",
              static_cast<unsigned long long>(mb));

  TextTable table({"config", "allocated (Ma)", "reserved (Mr)", "efficiency"});
  for (const char* tag : {"N", "R", "V"}) {
    TrainConfig c = ApplyConfigTag(base, tag);
    ExperimentOptions opt;
    opt.capacity_bytes = kA800Capacity;
    ExperimentResult r = RunWorstRank("gpt2", c, "torch-caching", opt);
    table.AddRow({tag, r.oom ? "-" : FormatBytes(r.allocated_peak).c_str(), ReservedCell(r),
                  EffCell(r) + "%"});
  }
  table.Print();
  return 0;
}
