// Table 1 reproduction: training Qwen2.5-14B on 16 H200 GPUs under four configurations. The
// original configuration (VPP, TP=2) OOMs under PyTorch and PyTorch ES due to fragmentation;
// STAlloc completes it. The fallback configurations all run but lose 5-33% throughput.
//
// Shape to reproduce: only STAlloc runs the original config, and
// TFLOPS(original) > TFLOPS(disable VPP) > TFLOPS(TP=4) > TFLOPS(recompute).

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>

#include "bench/bench_util.h"
#include "src/metrics/throughput_model.h"

int main() {
  using namespace stalloc;

  const ModelConfig model = Qwen25_14B();

  struct Row {
    const char* name;
    TrainConfig config;
  };
  TrainConfig original;
  original.parallel = {/*tp=*/2, /*pp=*/2, /*dp=*/4, /*ep=*/1, /*vpp=*/2};
  original.num_microbatches = 8;
  original.opt.zero = ZeroStage::kStage1;

  TrainConfig no_vpp = original;
  no_vpp.parallel.vpp_chunks = 1;
  TrainConfig recompute = no_vpp;
  recompute.opt.recompute = RecomputeMode::kFull;
  TrainConfig tp4 = no_vpp;
  tp4.parallel.tp = 4;
  tp4.parallel.dp = 2;

  // Pick the microbatch at the feasibility edge of the *original* config: theoretically fits
  // (native profiling succeeds) but leaves little headroom for fragmentation. Linear search
  // lands exactly at the edge.
  const uint64_t mb = MaxFeasibleMicrobatch(model.name, original, "native", kH200Capacity,
                                            /*max_mb=*/64, /*linear=*/true);
  const Row rows[] = {{"Original (VPP, TP=2)", original},
                      {"Disable VPP", no_vpp},
                      {"Recomputation", recompute},
                      {"TP=4", tp4}};

  std::printf("Table 1 — Qwen2.5-14B on 16 H200 GPUs, microbatch=%llu\n\n",
              static_cast<unsigned long long>(mb));
  TextTable table({"config", "PyTorch", "PyTorch ES", "STAlloc", "TFLOPS (est)"});
  for (const auto& row : rows) {
    TrainConfig c = row.config;
    c.micro_batch_size = std::max<uint64_t>(1, mb);
    ExperimentOptions opt;
    opt.capacity_bytes = kH200Capacity;
    auto mark = [&](const std::string& allocator) {
      ExperimentResult r = RunWorstRank(model.name, c, allocator, opt);
      return std::string(r.oom || r.infeasible ? "OOM" : "ok");
    };
    ThroughputEstimate est = EstimateThroughput(model, c, GpuSpec::H200());
    table.AddRow({row.name, mark("torch-caching"), mark("torch-expandable"), mark("stalloc"),
                  StrFormat("%.1f", est.model_tflops)});
  }
  table.Print();
  return 0;
}
