// Quickstart: profile one training iteration, synthesize a Static Allocation Plan, and compare
// STAlloc's memory efficiency against the PyTorch caching allocator on the same workload.
//
//   $ ./quickstart [model] [config-tag]
//     model:      gpt2 | llama2-7b | qwen1.5-moe | ... (default: gpt2)
//     config-tag: N | R | V | VR | ZR | ZOR        (default: VR)

#include <cstdio>
#include <string>

#include "src/api/session.h"
#include "src/common/table.h"
#include "src/common/units.h"
#include "src/trainsim/model_config.h"
#include "src/trainsim/workload.h"

int main(int argc, char** argv) {
  using namespace stalloc;

  const std::string model_name = argc > 1 ? argv[1] : "gpt2";
  const std::string tag = argc > 2 ? argv[2] : "VR";

  ModelConfig model = ModelByName(model_name);
  TrainConfig base;
  base.parallel.pp = 2;
  base.parallel.tp = model.hidden >= 4096 ? 2 : 1;
  base.parallel.dp = 2;
  base.num_microbatches = 8;
  base.micro_batch_size = model.hidden >= 4096 ? 2 : (model.moe.enabled() ? 8 : 16);
  TrainConfig config = ApplyConfigTag(base, tag);

  WorkloadBuilder workload(model, config);
  std::printf("Workload: %s, config %s, pp=%d tp=%d vpp=%d, mb=%llu x %d microbatches\n",
              model.name.c_str(), tag.c_str(), config.parallel.pp, config.parallel.tp,
              config.parallel.vpp_chunks,
              static_cast<unsigned long long>(config.micro_batch_size),
              config.num_microbatches);

  const Trace trace = workload.Build(1);
  std::printf("Trace: %zu memory events, theoretical peak (Ma) to be measured per allocator\n\n",
              trace.size());

  TextTable table({"allocator", "result", "efficiency", "reserved", "fragmentation"});
  ExperimentSpec spec;
  spec.model = model_name;
  spec.train = config;
  Session session;
  // Allocators are chosen by their registry names (see --list-allocs on stalloc_run).
  for (const std::string allocator : {"torch-caching", "torch-expandable", "gmlake", "stalloc"}) {
    const ExperimentResult r = *session.RunOne(spec, allocator).train_rank;
    const char* status = r.infeasible ? "infeasible" : (r.oom ? "OOM" : "ok");
    table.AddRow({allocator, status,
                  StrFormat("%.1f%%", r.memory_efficiency * 100.0),
                  FormatBytes(r.reserved_peak), FormatBytes(r.fragmentation_bytes)});
    if (allocator == "stalloc" && !r.oom && !r.infeasible) {
      std::printf("STAlloc plan: %s\n", r.plan_stats.ToString().c_str());
    }
  }
  std::printf("\n");
  table.Print();
  return 0;
}
