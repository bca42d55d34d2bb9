// Coverage for src/cluster/scheduler.* and src/cluster/fleet.*: placement policies on
// hand-built device views, end-to-end fleet days over mixed workloads, the OOM
// requeue-or-reject discipline, and the plan-aware-vs-first-fit admission split that motivates
// the whole layer (a job first-fit admits and OOMs, plan-aware rejects up front).

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/cluster/cluster_workload.h"
#include "src/cluster/fleet.h"
#include "src/cluster/scheduler.h"
#include "src/common/units.h"
#include "src/telemetry/metrics.h"
#include "src/telemetry/telemetry.h"
#include "src/trace/trace_stats.h"
#include "src/trainsim/model_config.h"
#include "src/trainsim/workload.h"

namespace stalloc {
namespace {

DeviceView View(int index, uint64_t capacity, uint64_t claimed, uint64_t used) {
  DeviceView v;
  v.index = index;
  v.capacity = capacity;
  v.claimed = claimed;
  v.physical_used = used;
  return v;
}

// --- scheduler policies on hand-built views ---

TEST(Scheduler, FirstFitPicksLowestIndexWithUnclaimedRoom) {
  auto s = MakeScheduler(SchedulerPolicy::kFirstFit);
  std::vector<DeviceView> views = {View(0, 10 * GiB, 9 * GiB, 0), View(1, 10 * GiB, 2 * GiB, 0),
                                   View(2, 10 * GiB, 0, 0)};
  auto placed = s->Place({4 * GiB}, views);
  ASSERT_TRUE(placed.has_value());
  EXPECT_EQ(*placed, (std::vector<int>{1}));  // device 0 is too claimed, 1 is first that fits
}

TEST(Scheduler, BestFitUsesLiveTelemetryAndTightestSlack) {
  auto s = MakeScheduler(SchedulerPolicy::kBestFit);
  // Claims say device 1 is full, but live bytes say it is the tightest feasible fit: best-fit
  // schedules on telemetry and overcommits it anyway.
  std::vector<DeviceView> views = {View(0, 16 * GiB, 0, 2 * GiB),
                                   View(1, 16 * GiB, 16 * GiB, 11 * GiB)};
  auto placed = s->Place({4 * GiB}, views);
  ASSERT_TRUE(placed.has_value());
  EXPECT_EQ(*placed, (std::vector<int>{1}));
}

TEST(Scheduler, PlanAwareBestFitsByClaims) {
  auto s = MakeScheduler(SchedulerPolicy::kPlanAware);
  std::vector<DeviceView> views = {View(0, 16 * GiB, 0, 0), View(1, 16 * GiB, 10 * GiB, 0)};
  auto placed = s->Place({4 * GiB}, views);
  ASSERT_TRUE(placed.has_value());
  EXPECT_EQ(*placed, (std::vector<int>{1}));  // 6 GiB slack beats 16 GiB slack
}

TEST(Scheduler, MultiRankPlacementUsesDistinctDevices) {
  for (SchedulerPolicy policy : AllSchedulerPolicies()) {
    auto s = MakeScheduler(policy);
    std::vector<DeviceView> views = {View(0, 16 * GiB, 0, 0), View(1, 16 * GiB, 0, 0)};
    auto placed = s->Place({4 * GiB, 4 * GiB}, views);
    ASSERT_TRUE(placed.has_value()) << SchedulerPolicyName(policy);
    EXPECT_NE((*placed)[0], (*placed)[1]) << SchedulerPolicyName(policy);
    // Three ranks over two devices can never be placed.
    EXPECT_FALSE(s->Place({GiB, GiB, GiB}, views).has_value()) << SchedulerPolicyName(policy);
  }
}

TEST(Scheduler, AllOrNothingWhenOneRankCannotFit) {
  auto s = MakeScheduler(SchedulerPolicy::kFirstFit);
  std::vector<DeviceView> views = {View(0, 16 * GiB, 0, 0), View(1, 8 * GiB, 7 * GiB, 0)};
  EXPECT_FALSE(s->Place({4 * GiB, 4 * GiB}, views).has_value());
}

TEST(Scheduler, NamesRoundTrip) {
  for (SchedulerPolicy policy : AllSchedulerPolicies()) {
    EXPECT_EQ(SchedulerPolicyByName(SchedulerPolicyName(policy)), policy);
    EXPECT_EQ(MakeScheduler(policy)->policy(), policy);
  }
}

// --- admission estimates ---

TEST(Scheduler, NaiveTrainingEstimateIgnoresActivations) {
  const ModelConfig model = ModelByName("gpt2");
  TrainConfig small = ApplyConfigTag(TrainConfig{}, "N");
  small.micro_batch_size = 1;
  small.num_microbatches = 2;
  TrainConfig big = small;
  big.micro_batch_size = 8;
  big.num_microbatches = 8;
  // The naive "model states" heuristic does not move with batch shape...
  EXPECT_EQ(NaiveTrainingEstimate(model, small, 0), NaiveTrainingEstimate(model, big, 0));
  // ...but the actual footprint does, which is exactly the admission gap the fleet measures.
  const uint64_t naive = NaiveTrainingEstimate(model, big, 0);
  big.rank = 0;
  const Trace trace = WorkloadBuilder(model, big).Build(1);
  EXPECT_GT(PlanPredictedReservation(trace), naive);
}

TEST(Scheduler, PlanPredictedReservationCoversTheTracePeak) {
  const ModelConfig model = ModelByName("gpt2");
  TrainConfig config = ApplyConfigTag(TrainConfig{}, "R");
  config.micro_batch_size = 2;
  config.num_microbatches = 2;
  const Trace trace = WorkloadBuilder(model, config).Build(3);
  uint64_t worst_phase = 0;
  for (const PhasePeak& p : PhasePeakBreakdown(trace)) {
    worst_phase = std::max(worst_phase, p.peak_live);
  }
  EXPECT_GE(PlanPredictedReservation(trace), worst_phase);
}

// --- fleet end-to-end ---

ClusterWorkloadConfig MixedWorkload() {
  ClusterWorkloadConfig config;
  config.num_jobs = 6;
  config.train_fraction = 0.5;
  config.mean_interarrival = 800;
  config.micro_batches = {1, 2};
  config.num_microbatches = 2;
  config.max_pp = 2;
  config.min_iterations = 1;
  config.max_iterations = 2;
  config.serve_requests = 12;
  config.kv_budget_bytes = 1 * GiB;
  return config;
}

FleetConfig SmallFleet(SchedulerPolicy policy, const std::string& allocator) {
  FleetConfig fleet;
  fleet.device_capacities = {16 * GiB, 16 * GiB};
  fleet.policy = policy;
  fleet.allocator = allocator;
  return fleet;
}

TEST(Fleet, MixedDayCompletesOnEveryPolicy) {
  const auto jobs = GenerateClusterWorkload(MixedWorkload(), 21);
  for (SchedulerPolicy policy : AllSchedulerPolicies()) {
    ClusterResult r = RunCluster(SmallFleet(policy, "torch-caching"), jobs);
    EXPECT_EQ(r.num_jobs, jobs.size()) << SchedulerPolicyName(policy);
    EXPECT_EQ(r.completed, jobs.size()) << SchedulerPolicyName(policy);
    EXPECT_EQ(r.oom_events, 0u) << SchedulerPolicyName(policy);
    EXPECT_GT(r.makespan, 0u);
    EXPECT_GT(r.fleet_avg_utilization, 0.0);
    ASSERT_EQ(r.devices.size(), 2u);
    for (const DeviceMetrics& d : r.devices) {
      EXPECT_GT(d.avg_utilization, 0.0);
      EXPECT_LE(d.peak_used, d.capacity);
    }
    for (const JobOutcome& o : r.jobs) {
      EXPECT_EQ(o.status, JobStatus::kCompleted);
      EXPECT_GT(o.actual_peak, 0u);
      EXPECT_GE(o.finish_time, o.admit_time);
      if (o.type == ClusterJobType::kServing) {
        EXPECT_GE(o.slo_attainment, 0.0);
        EXPECT_LE(o.slo_attainment, 1.0);
      }
    }
  }
}

TEST(Fleet, DeterministicForFixedInputs) {
  const auto jobs = GenerateClusterWorkload(MixedWorkload(), 9);
  const FleetConfig fleet = SmallFleet(SchedulerPolicy::kBestFit, "torch-caching");
  ClusterResult a = RunCluster(fleet, jobs);
  ClusterResult b = RunCluster(fleet, jobs);
  EXPECT_EQ(a.Summary(), b.Summary());
  EXPECT_EQ(a.makespan, b.makespan);
  ASSERT_EQ(a.jobs.size(), b.jobs.size());
  for (size_t i = 0; i < a.jobs.size(); ++i) {
    EXPECT_EQ(a.jobs[i].admit_time, b.jobs[i].admit_time);
    EXPECT_EQ(a.jobs[i].finish_time, b.jobs[i].finish_time);
    EXPECT_EQ(a.jobs[i].actual_peak, b.jobs[i].actual_peak);
  }
}

TEST(Fleet, RunsOnEveryFleetAllocator) {
  ClusterWorkloadConfig wl = MixedWorkload();
  wl.num_jobs = 3;
  const auto jobs = GenerateClusterWorkload(wl, 4);
  const auto kinds = AllocatorRegistry::Global().Names(/*include_plan_kinds=*/false);
  EXPECT_GE(kinds.size(), 3u);
  for (const std::string& kind : kinds) {
    EXPECT_NE(kind, "stalloc");
    EXPECT_NE(kind, "stalloc-noreuse");
    ClusterResult r = RunCluster(SmallFleet(SchedulerPolicy::kFirstFit, kind), jobs);
    EXPECT_EQ(r.completed + r.rejected_oom + r.rejected_upfront + r.starved, jobs.size())
        << kind;
  }
}

// The acceptance scenario of the cluster layer: a training job whose activation-heavy footprint
// exceeds device capacity. The naive model-size estimate says it fits, so first-fit admits it
// and the job OOMs at runtime (requeue, OOM again, reject). The plan-aware scheduler predicts
// the real reservation from the profiled trace and rejects it up front — no device time wasted.
ClusterJob OversizedTrainingJob() {
  ClusterJob job;
  job.id = 0;
  job.type = ClusterJobType::kTraining;
  job.submit_time = 1;
  job.model = "gpt2";
  job.seed = 5;
  TrainConfig config;
  config.num_microbatches = 8;
  config.micro_batch_size = 8;
  job.train = ApplyConfigTag(config, "N");  // no recompute: ~14 GiB peak vs ~5.5 GiB naive
  job.iterations = 1;
  return job;
}

TEST(Fleet, PlanAwareRejectsUpfrontWhatFirstFitAdmitsIntoOom) {
  const std::vector<ClusterJob> jobs = {OversizedTrainingJob()};
  FleetConfig fleet = SmallFleet(SchedulerPolicy::kFirstFit, "torch-caching");
  fleet.device_capacities = {12 * GiB, 12 * GiB};
  fleet.max_oom_retries = 1;

  ClusterResult first_fit = RunCluster(fleet, jobs);
  EXPECT_EQ(first_fit.admitted, 1u);
  EXPECT_GT(first_fit.oom_events, 0u);
  EXPECT_EQ(first_fit.requeues, 1u);  // one retry, then reject
  EXPECT_EQ(first_fit.rejected_oom, 1u);
  EXPECT_EQ(first_fit.jobs[0].status, JobStatus::kRejectedOom);
  EXPECT_GT(first_fit.jobs[0].actual_peak, first_fit.jobs[0].estimate);

  fleet.policy = SchedulerPolicy::kPlanAware;
  ClusterResult plan_aware = RunCluster(fleet, jobs);
  EXPECT_EQ(plan_aware.admitted, 0u);
  EXPECT_EQ(plan_aware.oom_events, 0u);
  EXPECT_EQ(plan_aware.rejected_upfront, 1u);
  EXPECT_EQ(plan_aware.jobs[0].status, JobStatus::kRejectedUpfront);
  // The plan-predicted estimate exceeds what any 12 GiB device could hold.
  EXPECT_GT(plan_aware.jobs[0].estimate, 12 * GiB);
}

TEST(Fleet, RequeueSucceedsWhenMemoryFreesUp) {
  // Two sequential admissions of the same footprint fit one after the other: the second job
  // waits in the queue (first-fit claims block it) and admits once the first completes.
  ClusterJob a = OversizedTrainingJob();
  a.train.micro_batch_size = 2;
  a.train.num_microbatches = 2;
  ClusterJob b = a;
  b.id = 1;
  b.submit_time = 2;
  b.seed = 6;
  FleetConfig fleet = SmallFleet(SchedulerPolicy::kFirstFit, "torch-caching");
  fleet.device_capacities = {9 * GiB};  // one device: jobs must serialize
  ClusterResult r = RunCluster(fleet, {a, b});
  EXPECT_EQ(r.completed, 2u);
  EXPECT_EQ(r.oom_events, 0u);
  EXPECT_GT(r.jobs[1].queue_wait, 0.0);
  EXPECT_GE(r.queue_wait_p99, r.queue_wait_p50);
}

// Regression for the requeue-after-partial-placement path through the shared OOM-policy
// observer: a two-rank job lands on an asymmetric fleet — rank 0 on a roomy device allocates
// happily, rank 1 on a device whose capacity the naive estimate says suffices (3.4 GiB claimed,
// 5.8 GiB actual) OOMs mid-stream. The whole tenant gang must unwind (including the healthy,
// partially-placed rank 0), release both devices' claims, requeue through the fleet scheduler,
// burn its retry on the same deterministic placement and get rejected — after which a later job
// must still admit and complete on the same devices, proving the unwinds left no stuck claims
// or leaked blocks.
TEST(Fleet, RequeueAfterPartialPlacementUnwindsBothDevices) {
  ClusterJob pipelined;
  pipelined.id = 0;
  pipelined.type = ClusterJobType::kTraining;
  pipelined.submit_time = 1;
  pipelined.model = "gpt2";
  pipelined.seed = 8;
  TrainConfig config;
  config.parallel.pp = 2;
  config.num_microbatches = 4;
  config.micro_batch_size = 4;
  pipelined.train = ApplyConfigTag(config, "N");  // rank peaks 6.6 / 5.8 GiB vs 3.4 GiB naive
  pipelined.iterations = 1;

  ClusterJob later;  // a job that fits the roomy device, submitted after the rejection settles
  later.id = 1;
  later.type = ClusterJobType::kTraining;
  later.submit_time = 20000;
  later.model = "gpt2";
  later.seed = 3;
  TrainConfig small;
  small.num_microbatches = 2;
  small.micro_batch_size = 1;
  later.train = ApplyConfigTag(small, "N");
  later.iterations = 1;

  FleetConfig fleet = SmallFleet(SchedulerPolicy::kFirstFit, "torch-caching");
  fleet.device_capacities = {16 * GiB, 5 * GiB};
  fleet.max_oom_retries = 1;
  ClusterResult r = RunCluster(fleet, {pipelined, later});

  // Attempt 1: rank 1 OOMs on the 5 GiB device while rank 0 holds live memory on the 16 GiB
  // one; the gang unwinds and requeues. Attempt 2 repeats the placement, OOMs again, and the
  // retry budget rejects the job.
  const JobOutcome& out = r.jobs[0];
  EXPECT_EQ(out.status, JobStatus::kRejectedOom);
  EXPECT_EQ(out.attempts, 2u);
  EXPECT_EQ(out.oom_count, 2);
  EXPECT_EQ(r.requeues, 1u);
  EXPECT_GT(out.actual_peak, 0u);  // rank 0 really had memory placed before the unwind
  ASSERT_EQ(out.devices.size(), 2u);
  EXPECT_NE(out.devices[0], out.devices[1]);
  EXPECT_GE(r.oom_events, 2u);

  // The devices survive the partial-placement unwinds with claims and blocks fully released:
  // the later job admits immediately and completes.
  EXPECT_EQ(r.completed, 1u);
  EXPECT_EQ(r.jobs[1].status, JobStatus::kCompleted);
  EXPECT_EQ(r.jobs[1].queue_wait, 0.0);
  for (const DeviceMetrics& d : r.devices) {
    EXPECT_LE(d.peak_used, d.capacity);
  }
}

TEST(Fleet, TooManyRanksForTheFleetIsRejectedUpfront) {
  ClusterJob job = OversizedTrainingJob();
  job.train.micro_batch_size = 1;
  job.train.num_microbatches = 2;
  job.train.parallel.pp = 3;
  ClusterResult r =
      RunCluster(SmallFleet(SchedulerPolicy::kFirstFit, "torch-caching"), {job});
  EXPECT_EQ(r.rejected_upfront, 1u);
  EXPECT_EQ(r.jobs[0].status, JobStatus::kRejectedUpfront);
}

TEST(Fleet, ServingSloDegradesToZeroForFailedInstances) {
  ClusterJob serve;
  serve.id = 0;
  serve.type = ClusterJobType::kServing;
  serve.submit_time = 1;
  serve.model = "gpt2";
  serve.seed = 3;
  serve.scenario = ScenarioByName("chat");
  serve.scenario.num_requests = 8;
  serve.engine.kv_budget_bytes = 64 * GiB;  // naive estimate can never fit: rejected up front
  ClusterResult r =
      RunCluster(SmallFleet(SchedulerPolicy::kFirstFit, "torch-caching"), {serve});
  EXPECT_EQ(r.serving_jobs, 1u);
  EXPECT_EQ(r.rejected_upfront, 1u);
  EXPECT_EQ(r.serve_slo_attainment, 0.0);
}

// --- admission estimates: one computation per distinct input ---

// The estimate a job gets with no sharing at all: the worst rank's direct estimate under the
// fleet's policy.
uint64_t DirectEstimate(const ClusterJob& job, const FleetConfig& fleet) {
  const ModelConfig model = ModelByName(job.model);
  const bool plan_aware = fleet.policy == SchedulerPolicy::kPlanAware;
  if (job.type == ClusterJobType::kServing) {
    return plan_aware ? PlanPredictedReservation(
                            BuildServeTrace(model, job.scenario, job.engine, fleet.profile_seed)
                                .trace)
                      : NaiveServingEstimate(model, job.engine);
  }
  uint64_t worst = 0;
  for (int rank = 0; rank < job.train.parallel.pp; ++rank) {
    TrainConfig per_rank = job.train;
    per_rank.rank = rank;
    worst = std::max(worst, plan_aware ? PlanPredictedReservation(WorkloadBuilder(model, per_rank)
                                                                      .Build(fleet.profile_seed))
                                       : NaiveTrainingEstimate(model, job.train, rank));
  }
  return worst;
}

ClusterJob SmallServingJob() {
  ClusterJob job;
  job.type = ClusterJobType::kServing;
  job.model = "gpt2";
  job.seed = 3;
  job.scenario = ScenarioByName("chat");
  job.scenario.num_requests = 8;
  job.engine.kv_budget_bytes = 1 * GiB;
  return job;
}

ClusterJob SmallTrainingJob() {
  ClusterJob job = OversizedTrainingJob();
  job.train.micro_batch_size = 1;
  job.train.num_microbatches = 2;
  return job;
}

// A mixed day closed by lookalike jobs that a sloppy key would conflate or split: serving jobs
// that share a scenario name but not a request count, and training jobs that differ only in
// their run seed, or only in the config's own seed (which the naive estimate reads).
std::vector<ClusterJob> DayWithLookalikes() {
  std::vector<ClusterJob> jobs = GenerateClusterWorkload(MixedWorkload(), 21);
  ClusterJob serve = SmallServingJob();
  ClusterJob more_requests = serve;
  more_requests.scenario.num_requests = 24;
  ClusterJob train = SmallTrainingJob();
  train.train.parallel.pp = 2;
  ClusterJob reseeded = train;
  reseeded.seed = train.seed + 1;
  ClusterJob config_reseeded = train;
  config_reseeded.train.seed = train.train.seed + 1;
  for (ClusterJob job : {serve, more_requests, train, reseeded, config_reseeded}) {
    job.id = jobs.size();
    job.submit_time = jobs.back().submit_time + 1;
    jobs.push_back(std::move(job));
  }
  return jobs;
}

TEST(Fleet, SharedEstimatesEqualDirectPerRankCalls) {
  const std::vector<ClusterJob> jobs = DayWithLookalikes();
  const size_t n = jobs.size();
  for (SchedulerPolicy policy : {SchedulerPolicy::kPlanAware, SchedulerPolicy::kFirstFit}) {
    const FleetConfig fleet = SmallFleet(policy, "torch-caching");
    const ClusterResult r = RunCluster(fleet, jobs);
    ASSERT_EQ(r.jobs.size(), n);
    for (size_t i = 0; i < n; ++i) {
      EXPECT_EQ(r.jobs[i].estimate, DirectEstimate(jobs[i], fleet))
          << SchedulerPolicyName(policy) << " " << jobs[i].Describe();
    }
    // Same scenario name, more requests: a key on the name alone would reuse the smaller plan.
    if (policy == SchedulerPolicy::kPlanAware) {
      EXPECT_NE(r.jobs[n - 5].estimate, r.jobs[n - 4].estimate);
    }
    // The run seed never enters an estimate.
    EXPECT_EQ(r.jobs[n - 3].estimate, r.jobs[n - 2].estimate) << SchedulerPolicyName(policy);
  }
}

#if STALLOC_TELEMETRY
// Gives `jobs` dense ids and strictly increasing submit times.
std::vector<ClusterJob> Queued(std::vector<ClusterJob> jobs) {
  for (size_t i = 0; i < jobs.size(); ++i) {
    jobs[i].id = i;
    jobs[i].submit_time = i + 1;
  }
  return jobs;
}

// Plans synthesized over one plan-aware day of `jobs`, queued in order.
uint64_t PlansSynthesized(const std::vector<ClusterJob>& jobs) {
  telemetry::Counter* plans =
      telemetry::MetricsRegistry::Global().GetCounter("planner.plans_synthesized");
  telemetry::SetEnabled(true);
  const uint64_t before = plans->value();
  RunCluster(SmallFleet(SchedulerPolicy::kPlanAware, "torch-caching"), Queued(jobs));
  telemetry::SetEnabled(false);
  return plans->value() - before;
}

using Perturbation = std::pair<const char*, std::function<void(ClusterJob&)>>;

// Key-completeness guard. Each perturbation changes one field a plan-aware estimate reads, so
// the perturbed job must get plans of its own — one per rank — next to the base job's single
// plan. Fields the estimate does not read must share the base plan.
TEST(Fleet, EveryKeyedFieldSeparatesPlans) {
  // Census of the keyed structs: a new field breaks these bindings. Give it a perturbation
  // below and a place in the estimate key (src/cluster/fleet.cc), then extend them.
  [[maybe_unused]] const auto& [parallel, opt, micro_batch_size, num_microbatches, rank, seed] =
      TrainConfig{};
  [[maybe_unused]] const auto& [tp, pp, dp, ep, vpp_chunks] = ParallelConfig{};
  [[maybe_unused]] const auto& [recompute, zero, offload, schedule] = OptimizationConfig{};
  [[maybe_unused]] const auto& [name, arrival, num_requests, mean_interarrival_steps,
                                burst_factor, burst_on_steps, burst_off_steps, prompt_dist,
                                output_dist] = ServeScenario{};
  [[maybe_unused]] const auto& [lo, hi, weight] = LengthBucket{};
  [[maybe_unused]] const auto& [kv_block_tokens, max_batch, kv_budget_bytes, max_steps,
                                emit_weights] = EngineConfig{};

  // One ULP apart: doubles must be keyed by bit pattern, not by a rounded rendering.
  auto bump = [](double& v) { v = std::nextafter(v, v + 1); };
  const std::vector<Perturbation> training = {
      // An alias of the same model: the key compares names, so this splits harmlessly.
      {"model", [](ClusterJob& j) { j.model = "gpt2-345m"; }},
      {"tp", [](ClusterJob& j) { j.train.parallel.tp = 2; }},
      {"pp", [](ClusterJob& j) { j.train.parallel.pp = 2; }},  // and rank: 2 ranks, 2 plans
      {"dp", [](ClusterJob& j) { j.train.parallel.dp = 2; }},
      {"ep", [](ClusterJob& j) { j.train.parallel.ep = 2; }},
      {"vpp_chunks", [](ClusterJob& j) { j.train.parallel.vpp_chunks = 2; }},
      {"recompute", [](ClusterJob& j) { j.train.opt.recompute = RecomputeMode::kSelective; }},
      {"zero", [](ClusterJob& j) { j.train.opt.zero = ZeroStage::kStage1; }},
      {"offload", [](ClusterJob& j) { j.train.opt.offload = true; }},
      {"schedule", [](ClusterJob& j) { j.train.opt.schedule = PipelineSchedule::kGPipe; }},
      {"micro_batch_size", [](ClusterJob& j) { j.train.micro_batch_size = 2; }},
      {"num_microbatches", [](ClusterJob& j) { j.train.num_microbatches = 3; }},
  };
  const std::vector<Perturbation> serving = {
      {"model", [](ClusterJob& j) { j.model = "gpt2-345m"; }},
      {"name", [](ClusterJob& j) { j.scenario.name = "chat-copy"; }},
      {"arrival", [](ClusterJob& j) { j.scenario.arrival = ArrivalProcess::kBursty; }},
      {"num_requests", [](ClusterJob& j) { j.scenario.num_requests = 9; }},
      {"mean_interarrival_steps",
       [bump](ClusterJob& j) { bump(j.scenario.mean_interarrival_steps); }},
      {"burst_factor", [bump](ClusterJob& j) { bump(j.scenario.burst_factor); }},
      {"burst_on_steps", [bump](ClusterJob& j) { bump(j.scenario.burst_on_steps); }},
      {"burst_off_steps", [bump](ClusterJob& j) { bump(j.scenario.burst_off_steps); }},
      {"prompt_dist.lo", [](ClusterJob& j) { ++j.scenario.prompt_dist[0].lo; }},
      {"prompt_dist.hi", [](ClusterJob& j) { ++j.scenario.prompt_dist[0].hi; }},
      {"prompt_dist.weight", [bump](ClusterJob& j) { bump(j.scenario.prompt_dist[0].weight); }},
      {"prompt_dist.size", [](ClusterJob& j) { j.scenario.prompt_dist.pop_back(); }},
      {"output_dist.lo", [](ClusterJob& j) { ++j.scenario.output_dist[0].lo; }},
      {"output_dist.hi", [](ClusterJob& j) { ++j.scenario.output_dist[0].hi; }},
      {"output_dist.weight", [bump](ClusterJob& j) { bump(j.scenario.output_dist[0].weight); }},
      {"output_dist.size", [](ClusterJob& j) { j.scenario.output_dist.pop_back(); }},
      {"kv_block_tokens", [](ClusterJob& j) { j.engine.kv_block_tokens = 32; }},
      {"max_batch", [](ClusterJob& j) { j.engine.max_batch = 16; }},
      {"kv_budget_bytes", [](ClusterJob& j) { j.engine.kv_budget_bytes += MiB; }},
      {"max_steps", [](ClusterJob& j) { j.engine.max_steps = 99999; }},
      {"emit_weights", [](ClusterJob& j) { j.engine.emit_weights = false; }},
  };
  // Not read by a plan-aware estimate: the run seed, the iteration count, and the config's own
  // seed (the fleet's profile seed replaces it).
  const std::vector<Perturbation> unkeyed = {
      {"seed", [](ClusterJob& j) { j.seed += 1; }},
      {"iterations", [](ClusterJob& j) { j.iterations += 1; }},
      {"train.seed", [](ClusterJob& j) { j.train.seed += 1; }},
  };

  for (const ClusterJob& base : {SmallTrainingJob(), SmallServingJob()}) {
    const bool is_training = base.type == ClusterJobType::kTraining;
    EXPECT_EQ(PlansSynthesized({base, base}), 1u);
    for (const auto& [field, perturb] : is_training ? training : serving) {
      ClusterJob other = base;
      perturb(other);
      EXPECT_EQ(PlansSynthesized({base, other}), 1u + static_cast<uint64_t>(other.ranks()))
          << (is_training ? "training " : "serving ") << field;
    }
    for (const auto& [field, perturb] : unkeyed) {
      ClusterJob other = base;
      perturb(other);
      EXPECT_EQ(PlansSynthesized({base, other}), 1u)
          << (is_training ? "training " : "serving ") << field;
    }
  }
}
#endif  // STALLOC_TELEMETRY

}  // namespace
}  // namespace stalloc
