#include "src/driver/job.h"

#include <algorithm>
#include <string>
#include <utility>

#include "src/common/table.h"
#include "src/common/units.h"
#include "src/trainsim/workload.h"

namespace stalloc {

std::string JobResult::Summary() const {
  if (infeasible) {
    return "infeasible";
  }
  if (oom) {
    return "OOM";
  }
  return StrFormat("worst E=%.1f%%  max Mr=%s (rank %d)  total Mr=%s  releases=%llu",
                   worst_efficiency * 100.0, FormatBytes(max_reserved).c_str(), limiting_rank,
                   FormatBytes(total_reserved).c_str(),
                   static_cast<unsigned long long>(max_release_calls));
}

JobResult RunJob(const ModelConfig& model, TrainConfig config, std::string_view allocator,
                 const ExperimentOptions& options) {
  JobResult job;
  for (int rank = 0; rank < config.parallel.pp; ++rank) {
    config.rank = rank;
    WorkloadBuilder workload(model, config);
    ExperimentResult r = RunExperiment(workload, allocator, options);
    job.oom |= r.oom;
    job.infeasible |= r.infeasible;
    job.worst_efficiency = std::min(job.worst_efficiency, r.memory_efficiency);
    if (r.reserved_peak > job.max_reserved) {
      job.max_reserved = r.reserved_peak;
      job.limiting_rank = rank;
    }
    job.total_reserved += r.reserved_peak;
    job.max_release_calls = std::max(job.max_release_calls, r.device_release_calls);
    job.ranks.push_back(std::move(r));
  }
  return job;
}

}  // namespace stalloc
