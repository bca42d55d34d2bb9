// Fig. 1(b) reproduction: the memory/throughput frontier of Llama2-7B training configurations on
// 8xA800, and the configuration that is "able to run only with STAlloc".
//
// Each row is a training setup; higher-throughput setups need more memory. Fragmentation under
// the PyTorch caching allocator inflates reserved memory beyond the 80 GiB device for the most
// aggressive configuration, while STAlloc's defragmented reservation still fits.

#include <algorithm>
#include <cstdint>
#include <cstdio>

#include "bench/bench_util.h"
#include "src/metrics/throughput_model.h"

int main() {
  using namespace stalloc;

  struct Setup {
    const char* name;
    const char* tag;
    uint64_t mb;
  };
  // Throughput increases down the list: recompute trades compute for memory; plain 1F1B sits in
  // the middle; VPP removes bubbles but needs the most memory.
  const Setup setups[] = {
      {"recompute, mb=2", "R", 2},
      {"recompute, mb=4", "R", 4},
      {"1F1B, mb=2", "N", 2},
      {"1F1B, mb=4", "N", 4},
      {"VPP, mb=2", "V", 2},
      {"VPP, mb=4", "V", 4},
  };

  TrainConfig base;
  base.parallel = {/*tp=*/2, /*pp=*/2, /*dp=*/2, /*ep=*/1, /*vpp_chunks=*/1};
  base.num_microbatches = 8;

  // The allocator does not get the whole device: the CUDA context and NCCL channel buffers
  // take ~4 GiB on a real A800 before the framework allocates its first tensor.
  const uint64_t usable = kA800Capacity - 4 * GiB;
  std::printf("Fig. 1(b) — Llama2-7B on 8xA800 (80 GiB, ~76 GiB usable after CUDA context +\n"
              "NCCL buffers): memory vs throughput per config\n\n");
  TextTable table({"config", "TFLOPS (est)", "Mr torch", "Mr stalloc", "torch", "stalloc"});
  Session session;
  for (const auto& s : setups) {
    TrainConfig c = ApplyConfigTag(base, s.tag);
    c.micro_batch_size = s.mb;
    ExperimentSpec spec;
    spec.model = "llama2-7b";
    spec.train = c;
    spec.options.capacity_bytes = usable;
    // Aggregate across the boundary ranks by job semantics: the job OOMs/thrashes if any rank
    // does, and its memory footprint is the worst rank's reservation.
    auto run_job = [&](const std::string& allocator) {
      ExperimentResult job;
      bool first = true;
      for (int rank : BoundaryRanks(c.parallel)) {
        spec.train.rank = rank;
        ExperimentResult r = *session.RunOne(spec, allocator).train_rank;
        if (first) {
          job = r;
          first = false;
          continue;
        }
        job.oom |= r.oom;
        job.infeasible |= r.infeasible;
        job.reserved_peak = std::max(job.reserved_peak, r.reserved_peak);
        job.device_api_calls = std::max(job.device_api_calls, r.device_api_calls);
        job.device_release_calls = std::max(job.device_release_calls, r.device_release_calls);
      }
      return job;
    };
    ExperimentResult torch = run_job("torch-caching");
    ExperimentResult st = run_job("stalloc");
    ThroughputEstimate est = EstimateThroughput(Llama2_7B(), c, GpuSpec::A800());
    // "thrashes": the run completed, but only by repeatedly releasing cached segments and
    // re-allocating them with native API calls — thousands of synchronizing cudaMalloc/cudaFree
    // per iteration, the slow path production jobs try to avoid.
    auto runnable = [](const ExperimentResult& r) {
      if (r.infeasible) {
        return "infeasible";
      }
      if (r.oom) {
        return "OOM";
      }
      return r.device_release_calls > 100 ? "thrashes" : "runs";
    };
    table.AddRow({s.name, StrFormat("%.0f", est.model_tflops), ReservedCell(torch),
                  ReservedCell(st), runnable(torch), runnable(st)});
  }
  table.Print();
  std::printf("\nThe most aggressive configuration (VPP, mb=4) sits past the frontier for the\n"
              "caching allocator — it survives only by thrashing the native allocation APIs —\n"
              "while STAlloc runs it cleanly: the paper's \"able to run only with STAlloc\"\n"
              "point. Table 1 and the Fig. 12 pressure study show the hard-OOM variants.\n");
  return 0;
}
