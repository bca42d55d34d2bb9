// Job-level experiments: run one allocator over every pipeline rank of a training job and
// aggregate with job semantics — the job OOMs if any rank OOMs, its footprint is the worst
// rank's reservation, and its reported efficiency is the worst rank's.

#ifndef SRC_DRIVER_JOB_H_
#define SRC_DRIVER_JOB_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/driver/experiment.h"

namespace stalloc {

struct JobResult {
  std::vector<ExperimentResult> ranks;  // indexed by pipeline rank
  bool oom = false;                     // any rank OOMed
  bool infeasible = false;              // any rank theoretically exceeds capacity
  double worst_efficiency = 1.0;
  uint64_t max_reserved = 0;            // the memory-limiting rank's reservation
  uint64_t total_reserved = 0;          // sum over ranks (job-wide GPU memory)
  uint64_t max_release_calls = 0;       // thrash indicator (worst rank)

  int limiting_rank = 0;  // rank with the largest reservation

  std::string Summary() const;
};

// Runs (model, config) under `allocator` on all pp ranks. `config.rank` is ignored.
JobResult RunJob(const ModelConfig& model, TrainConfig config, std::string_view allocator,
                 const ExperimentOptions& options = ExperimentOptions{});

}  // namespace stalloc

#endif  // SRC_DRIVER_JOB_H_
