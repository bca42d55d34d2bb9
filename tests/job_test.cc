// Job axis through Session::RunOne: one allocator over every pipeline rank, aggregated with job
// semantics.

#include <algorithm>
#include <cstdint>
#include <string>

#include <gtest/gtest.h>

#include "src/api/session.h"
#include "src/common/units.h"

namespace stalloc {
namespace {

TrainConfig SmallConfig() {
  TrainConfig c;
  c.parallel.pp = 2;
  c.parallel.dp = 2;
  c.num_microbatches = 4;
  c.micro_batch_size = 4;
  return c;
}

JobResult RunSmallJob(const char* allocator,
                      const ExperimentOptions& options = ExperimentOptions{}) {
  ExperimentSpec spec;
  spec.axis = WorkloadAxis::kTrainJob;
  spec.model = "gpt2";
  spec.train = SmallConfig();
  spec.options = options;
  return *Session().RunOne(spec, allocator).job;
}

TEST(Job, RunsEveryPipelineRank) {
  JobResult job = RunSmallJob("torch-caching");
  ASSERT_EQ(job.ranks.size(), 2u);
  EXPECT_FALSE(job.oom);
  EXPECT_GT(job.max_reserved, 0u);
  EXPECT_GE(job.total_reserved, job.max_reserved);
  EXPECT_LE(job.worst_efficiency, job.ranks[0].memory_efficiency + 1e-12);
}

TEST(Job, WorstMetricsAggregate) {
  JobResult job = RunSmallJob("torch-caching");
  double min_eff = 1.0;
  uint64_t max_mr = 0;
  uint64_t total = 0;
  for (const auto& r : job.ranks) {
    min_eff = std::min(min_eff, r.memory_efficiency);
    max_mr = std::max(max_mr, r.reserved_peak);
    total += r.reserved_peak;
  }
  EXPECT_DOUBLE_EQ(job.worst_efficiency, min_eff);
  EXPECT_EQ(job.max_reserved, max_mr);
  EXPECT_EQ(job.total_reserved, total);
  EXPECT_EQ(job.ranks[static_cast<size_t>(job.limiting_rank)].reserved_peak, max_mr);
}

TEST(Job, OomOnAnyRankMarksJob) {
  ExperimentOptions opt;
  opt.capacity_bytes = 1 * GiB;  // too small
  JobResult job = RunSmallJob("torch-caching", opt);
  EXPECT_TRUE(job.oom);
  EXPECT_NE(job.Summary().find("OOM"), std::string::npos);
}

TEST(Job, StallocBeatsCachingJobWide) {
  JobResult torch = RunSmallJob("torch-caching");
  JobResult st = RunSmallJob("stalloc");
  ASSERT_FALSE(torch.oom || st.oom);
  EXPECT_GE(st.worst_efficiency, torch.worst_efficiency);
  EXPECT_LE(st.total_reserved, torch.total_reserved);
}

TEST(Job, SummaryFormats) {
  JobResult job = RunSmallJob("stalloc");
  const std::string s = job.Summary();
  EXPECT_NE(s.find("worst E="), std::string::npos);
  EXPECT_NE(s.find("rank"), std::string::npos);
}

}  // namespace
}  // namespace stalloc
