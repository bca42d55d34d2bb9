// Fig. 8(a-c) reproduction: memory efficiency of all allocators across optimization
// combinations — N / R / V / VR / ZR / ZOR — for GPT-2, Llama2-7B and Qwen1.5-MoE-A2.7B on
// 8xA800, Megatron-LM-style parallelism. Runs through the unified Session/ExperimentSpec API;
// one RunRecord per (model, config, allocator, boundary rank) cell.
//
// Shapes to reproduce (§9.2):
//   * dense models: STAlloc > 95% (up to 100%) in all cases; caching 57-91%; GMLake tracks the
//     caching allocator; expandable segments sits between caching and STAlloc;
//   * MoE: STAlloc 93-98%, still ahead of every baseline;
//   * the largest caching-allocator drops appear in recompute-heavy configs.
//
//   bench_fig08_allocators [--models NAME[,NAME...]] [--json FILE]   ("-" = JSON to stdout)

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "src/api/report.h"
#include "src/api/serializers.h"
#include "src/api/session.h"
#include "src/common/flags.h"

int main(int argc, char** argv) {
  using namespace stalloc;

  std::vector<std::string> model_filter;
  std::string json_path;
  uint64_t max_mb = 128;
  FlagParser flags("bench_fig08_allocators",
                   "Fig. 8: memory efficiency across optimization combinations.");
  flags.AddList("--models", &model_filter, "NAME[,NAME...]",
                "subset of gpt2,llama2-7b,qwen1.5-moe (default: all)");
  flags.Add("--max-mb", &max_mb, "N",
            "cap on the probed microbatch size (smaller = faster smoke runs)");
  flags.Add("--json", &json_path, "FILE", "machine-readable summary ('-' = stdout)");
  if (!flags.Parse(argc, argv)) {
    return 2;
  }
  if (max_mb == 0) {
    std::fprintf(stderr, "--max-mb must be >= 1\n");
    return 2;
  }

  struct ModelSetup {
    const char* title;
    const char* model;  // registry/preset name, resolved through the Session API
    ParallelConfig parallel;
    int num_microbatches;
  };
  const ModelSetup setups[] = {
      {"(a) GPT-2", "gpt2", {/*tp=*/1, /*pp=*/2, /*dp=*/4, /*ep=*/1, /*vpp=*/1}, 8},
      {"(b) Llama2-7B", "llama2-7b", {/*tp=*/2, /*pp=*/2, /*dp=*/2, /*ep=*/1, /*vpp=*/1}, 8},
      {"(c) Qwen1.5-MoE-A2.7B", "qwen1.5-moe",
       {/*tp=*/1, /*pp=*/2, /*dp=*/4, /*ep=*/4, /*vpp=*/1}, 8},
  };

  // A typo in --models must fail loudly, not produce an empty "successful" report.
  for (const std::string& name : model_filter) {
    bool known = false;
    for (const auto& setup : setups) {
      known |= name == setup.model;
    }
    if (!known) {
      std::fprintf(stderr, "unknown --models entry '%s' (expected gpt2, llama2-7b or "
                           "qwen1.5-moe)\n", name.c_str());
      return 2;
    }
  }

  ReportSink sink("fig08_allocators", json_path);
  sink.Meta("capacity_bytes", kA800Capacity);
  Json allocator_names = Json::Array();
  for (const std::string& allocator : PaperAllocators()) {
    allocator_names.Add(allocator);
  }
  sink.Meta("allocators", std::move(allocator_names));
  Json setups_json = Json::Array();

  Session session;
  for (const auto& setup : setups) {
    if (!model_filter.empty() &&
        std::find(model_filter.begin(), model_filter.end(), setup.model) ==
            model_filter.end()) {
      continue;
    }
    TrainConfig base;
    base.parallel = setup.parallel;
    base.num_microbatches = setup.num_microbatches;

    // Fixed microbatch per model: the largest for which the most memory-hungry configuration
    // (VPP) still completes under the caching allocator — the paper's selection rule.
    TrainConfig probe = ApplyConfigTag(base, "V");
    const uint64_t mb =
        MaxFeasibleMicrobatch(setup.model, probe, "torch-caching", kA800Capacity, max_mb);
    if (mb == 0) {
      // The probe starts at mb=1, so this means even the smallest microbatch OOMs.
      std::fprintf(stderr,
                   "%s: even microbatch 1 does not fit under the caching probe on %s — this "
                   "model/config combination cannot run on the Fig. 8 testbed\n",
                   setup.model, FormatBytes(kA800Capacity).c_str());
      return 1;
    }
    base.micro_batch_size = mb;

    sink.Printf("Fig. 8 %s — memory efficiency (%%), 8xA800, microbatch=%llu\n\n", setup.title,
                static_cast<unsigned long long>(mb));
    Json configs_json = Json::Array();
    TextTable table({"config", "Torch", "GMLake", "Torch ES", "VMM", "STAlloc"});
    for (const char* tag : {"N", "R", "V", "VR", "ZR", "ZOR"}) {
      ExperimentSpec spec;
      spec.axis = WorkloadAxis::kTrainRank;
      spec.model = setup.model;
      spec.train = ApplyConfigTag(base, tag);
      spec.train.micro_batch_size = mb;
      spec.options.capacity_bytes = kA800Capacity;
      Json results_json = Json::Array();
      std::vector<std::string> row = {tag};
      for (const std::string& allocator : PaperAllocators()) {
        // Worst boundary rank (first stage: deepest 1F1B stack; last: vocab-sized logits).
        RunRecord worst;
        bool first = true;
        for (int rank : BoundaryRanks(spec.train.parallel)) {
          spec.train.rank = rank;
          RunRecord r = session.RunOne(spec, allocator);
          if (first || WorseOutcome(!r.ok(), r.memory_efficiency, !worst.ok(),
                                    worst.memory_efficiency)) {
            worst = std::move(r);
          }
          first = false;
        }
        row.push_back(EffCell(*worst.train_rank));
        results_json.Add(ToJson(worst));
      }
      table.AddRow(std::move(row));
      Json config_json = Json::Object();
      config_json.Set("config", tag);
      config_json.Set("results", std::move(results_json));
      configs_json.Add(std::move(config_json));
    }
    sink.Print(table);
    Json setup_json = Json::Object();
    setup_json.Set("model", setup.model);
    setup_json.Set("microbatch", mb);
    setup_json.Set("configs", std::move(configs_json));
    setups_json.Add(std::move(setup_json));
  }
  sink.Meta("setups", std::move(setups_json));
  return sink.Finish();
}
