// Shared helpers for the evaluation-reproduction benches (one binary per paper table/figure).

#ifndef BENCH_BENCH_UTIL_H_
#define BENCH_BENCH_UTIL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/api/session.h"
#include "src/common/table.h"
#include "src/common/units.h"
#include "src/trainsim/model_config.h"
#include "src/trainsim/workload.h"

namespace stalloc {

// GPU memory capacities of the paper's testbeds (§9.1).
inline constexpr uint64_t kA800Capacity = 80ull * GiB;
inline constexpr uint64_t kH200Capacity = 141ull * GiB;
inline constexpr uint64_t kMI210Capacity = 64ull * GiB;

// The pipeline ranks whose memory behaviour bounds the job: the first stage carries the deepest
// 1F1B in-flight activation stack, the last stage carries the vocabulary-sized logits tensors.
inline std::vector<int> BoundaryRanks(const ParallelConfig& parallel) {
  if (parallel.pp <= 1) {
    return {0};
  }
  return {0, parallel.pp - 1};
}

// The single worst-outcome policy for per-rank aggregation: failures beat successes, then the
// lower memory efficiency wins. Shared by RunWorstRank and the Session-based bench loops so the
// probed feasibility and the measured cells can never apply different tie-breaking.
inline bool WorseOutcome(bool candidate_failed, double candidate_efficiency, bool worst_failed,
                         double worst_efficiency) {
  if (candidate_failed != worst_failed) {
    return candidate_failed;
  }
  return candidate_efficiency < worst_efficiency;
}

// Runs (model, config) under `allocator` on every boundary rank and returns the worst outcome:
// training OOMs if any rank OOMs, and the per-job memory efficiency is set by the worst GPU.
// `model` is a preset name (ModelByName).
inline ExperimentResult RunWorstRank(const std::string& model, const TrainConfig& config,
                                     const std::string& allocator, const ExperimentOptions& opt) {
  ExperimentSpec spec;
  spec.model = model;
  spec.train = config;
  spec.options = opt;
  Session session;
  ExperimentResult worst;
  bool first = true;
  for (int rank : BoundaryRanks(config.parallel)) {
    spec.train.rank = rank;
    ExperimentResult r = *session.RunOne(spec, allocator).train_rank;
    if (first || WorseOutcome(r.oom || r.infeasible, r.memory_efficiency,
                              worst.oom || worst.infeasible, worst.memory_efficiency)) {
      worst = r;
    }
    first = false;
  }
  return worst;
}

// Largest power-of-two microbatch size (up to `max_mb`) for which one iteration completes under
// `probe` on every boundary rank of a device of `capacity` — the paper's "maximum feasible size
// that will not cause OOM" selection (§9.2). Returns 0 when even mb=1 does not fit. With
// `linear` the search steps by 1 instead of doubling, landing right at the feasibility edge
// (used by the OOM-sensitive experiments).
inline uint64_t MaxFeasibleMicrobatch(const std::string& model, TrainConfig config,
                                      const std::string& probe, uint64_t capacity,
                                      uint64_t max_mb = 128, bool linear = false) {
  uint64_t best = 0;
  for (uint64_t mb = 1; mb <= max_mb; mb = linear ? mb + 1 : mb * 2) {
    config.micro_batch_size = mb;
    ExperimentOptions opt;
    opt.capacity_bytes = capacity;
    ExperimentResult r = RunWorstRank(model, config, probe, opt);
    if (r.oom || r.infeasible) {
      break;
    }
    best = mb;
  }
  return best;
}

// Formats an efficiency cell: "97.3" or "OOM" / "infeasible".
inline std::string EffCell(const ExperimentResult& r) {
  if (r.infeasible) {
    return "inf.";
  }
  if (r.oom) {
    return "OOM";
  }
  return StrFormat("%.1f", r.memory_efficiency * 100.0);
}

inline std::string ReservedCell(const ExperimentResult& r) {
  if (r.oom || r.infeasible) {
    return "-";
  }
  return FormatBytes(r.reserved_peak);
}

// The allocator line-up of Fig. 8 (our caching allocator stands in for both Torch 2.0 and 2.3;
// the paper's two versions differ only marginally on these workloads), extended with the VMM
// remap allocator — the in-tree upper bound on what handle-level defragmentation buys.
inline std::vector<std::string> PaperAllocators() {
  return {"torch-caching", "gmlake", "torch-expandable", "vmm", "stalloc"};
}

}  // namespace stalloc

#endif  // BENCH_BENCH_UTIL_H_
