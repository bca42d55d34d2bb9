// The determinism harness for the device-parallel fleet (src/cluster/fleet.cc).
//
// The contract under test: RunCluster's ClusterResult is bit-identical — every utilization and
// fragmentation integral, queue-wait percentile, SLO attainment, per-device OOM count and
// per-job outcome — no matter how many workers step the devices. The comparison runs through
// ClusterResult::Digest(), which hashes doubles by bit pattern, so even a one-ULP divergence
// fails. A serial golden digest is pinned first so a refactor that perturbs serial behavior
// fails loudly before any parallel comparison runs.

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/cluster/cluster_workload.h"
#include "src/cluster/fleet.h"
#include "src/cluster/scheduler.h"
#include "src/common/rng.h"
#include "src/common/units.h"
#include "src/servesim/request_gen.h"
#include "src/telemetry/metrics.h"
#include "src/telemetry/telemetry.h"
#include "src/trainsim/train_config.h"

namespace stalloc {
namespace {

ClusterWorkloadConfig SmallMixedWorkload() {
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

FleetConfig Fleet(SchedulerPolicy policy, std::vector<uint64_t> capacities, int workers) {
  FleetConfig fleet;
  fleet.device_capacities = std::move(capacities);
  fleet.policy = policy;
  fleet.allocator = "torch-caching";
  fleet.workers = workers;
  return fleet;
}

// The serial reference digest for a fixed (workload, fleet) pair. Any change to this value is
// a behavior change of the simulator itself and must be deliberate: update the golden below
// only alongside a CHANGES.md note saying the serial fleet semantics moved.
TEST(ShardedFleet, SerialGoldenDigest) {
  const auto jobs = GenerateClusterWorkload(SmallMixedWorkload(), 21);
  const ClusterResult r =
      RunCluster(Fleet(SchedulerPolicy::kFirstFit, {16 * GiB, 16 * GiB}, 0), jobs);
  EXPECT_EQ(r.completed, jobs.size());
  EXPECT_EQ(r.Digest(), "d6986ffe96219217");
}

// The tentpole assertion: serial and 1/2/8-worker runs are bit-identical on all three
// admission policies.
TEST(ShardedFleet, BitIdenticalAcrossWorkerCountsOnEveryPolicy) {
  const auto jobs = GenerateClusterWorkload(SmallMixedWorkload(), 21);
  for (SchedulerPolicy policy : AllSchedulerPolicies()) {
    const ClusterResult serial =
        RunCluster(Fleet(policy, {16 * GiB, 16 * GiB, 16 * GiB}, 0), jobs);
    const std::string want = serial.Digest();
    for (int workers : {1, 2, 8}) {
      const ClusterResult parallel =
          RunCluster(Fleet(policy, {16 * GiB, 16 * GiB, 16 * GiB}, workers), jobs);
      EXPECT_EQ(parallel.Digest(), want)
          << SchedulerPolicyName(policy) << " diverged at workers=" << workers << "\nserial:   "
          << serial.Summary() << "\nparallel: " << parallel.Summary();
      // Digest inequality is opaque; spot-check the headline fields too so a failure names
      // what moved.
      EXPECT_EQ(parallel.makespan, serial.makespan);
      EXPECT_EQ(parallel.oom_events, serial.oom_events);
      EXPECT_EQ(parallel.ops_replayed, serial.ops_replayed);
      EXPECT_EQ(parallel.fleet_avg_utilization, serial.fleet_avg_utilization);
      EXPECT_EQ(parallel.queue_wait_p99, serial.queue_wait_p99);
      EXPECT_EQ(parallel.serve_slo_attainment, serial.serve_slo_attainment);
      ASSERT_EQ(parallel.devices.size(), serial.devices.size());
      for (size_t d = 0; d < serial.devices.size(); ++d) {
        EXPECT_EQ(parallel.devices[d].avg_utilization, serial.devices[d].avg_utilization) << d;
        EXPECT_EQ(parallel.devices[d].avg_external_frag, serial.devices[d].avg_external_frag)
            << d;
        EXPECT_EQ(parallel.devices[d].oom_events, serial.devices[d].oom_events) << d;
      }
    }
  }
}

// Determinism is easiest to break on the OOM path (parked sources, deferred unwinds, requeue
// ordering), so force it: a tight two-device fleet where pipelined training jobs OOM, requeue
// and get rejected. The digests must still agree — and the scenario must actually exercise
// OOMs, or the test is vacuous.
TEST(ShardedFleet, BitIdenticalUnderOomPressure) {
  ClusterJob heavy;
  heavy.id = 0;
  heavy.type = ClusterJobType::kTraining;
  heavy.submit_time = 1;
  heavy.model = "gpt2";
  heavy.seed = 8;
  TrainConfig config;
  config.parallel.pp = 2;
  config.num_microbatches = 4;
  config.micro_batch_size = 4;
  heavy.train = ApplyConfigTag(config, "N");  // per-rank peak far above the naive estimate
  heavy.iterations = 1;

  ClusterJob second = heavy;
  second.id = 1;
  second.submit_time = 5;
  second.seed = 9;

  ClusterJob small;  // completes after the heavies burn out, over the same devices
  small.id = 2;
  small.type = ClusterJobType::kTraining;
  small.submit_time = 30000;
  small.model = "gpt2";
  small.seed = 3;
  TrainConfig tiny;
  tiny.num_microbatches = 2;
  tiny.micro_batch_size = 1;
  small.train = ApplyConfigTag(tiny, "N");
  small.iterations = 1;

  const std::vector<ClusterJob> jobs = {heavy, second, small};
  FleetConfig serial = Fleet(SchedulerPolicy::kFirstFit, {16 * GiB, 5 * GiB}, 0);
  serial.max_oom_retries = 1;
  const ClusterResult base = RunCluster(serial, jobs);
  EXPECT_GT(base.oom_events, 0u) << "scenario lost its OOM pressure: " << base.Summary();
  EXPECT_GT(base.rejected_oom, 0u);
  EXPECT_EQ(base.completed, 1u);
  for (int workers : {2, 8}) {
    FleetConfig fleet = serial;
    fleet.workers = workers;
    EXPECT_EQ(RunCluster(fleet, jobs).Digest(), base.Digest()) << "workers=" << workers;
  }
}

// Colliding submit ticks (min_interarrival = 0) are exactly where a sloppy event merge would
// tie-break on device or thread order; the (submit_time, id) total order must hold instead.
TEST(ShardedFleet, CollidingSubmitTimesStayDeterministic) {
  ClusterWorkloadConfig wl = SmallMixedWorkload();
  wl.num_jobs = 8;
  wl.mean_interarrival = 1;  // dense arrivals...
  wl.min_interarrival = 0;   // ...with zero-gap ties allowed
  const auto jobs = GenerateClusterWorkload(wl, 5);
  bool has_tie = false;
  for (size_t i = 1; i < jobs.size(); ++i) {
    ASSERT_LE(jobs[i - 1].submit_time, jobs[i].submit_time);
    ASSERT_LT(jobs[i - 1].id, jobs[i].id);
    has_tie |= jobs[i - 1].submit_time == jobs[i].submit_time;
  }
  EXPECT_TRUE(has_tie) << "workload no longer produces colliding submit times";

  const std::string want =
      RunCluster(Fleet(SchedulerPolicy::kFirstFit, {16 * GiB, 16 * GiB}, 0), jobs).Digest();
  for (int workers : {2, 8}) {
    EXPECT_EQ(
        RunCluster(Fleet(SchedulerPolicy::kFirstFit, {16 * GiB, 16 * GiB}, workers), jobs)
            .Digest(),
        want)
        << "workers=" << workers;
  }
}

// Seeded randomized stress: random workloads (ties allowed), random tight-ish fleets, random
// policies, and for each a random worker count, all pinned against the serial run of the same
// inputs.
TEST(ShardedFleet, RandomizedWorkerCountStress) {
  Rng rng(123);
  for (int round = 0; round < 4; ++round) {
    ClusterWorkloadConfig wl = SmallMixedWorkload();
    wl.num_jobs = 4 + static_cast<int>(rng.NextBelow(4));
    wl.mean_interarrival = 1 + static_cast<double>(rng.NextBelow(1200));
    wl.min_interarrival = rng.NextBelow(2);  // half the rounds allow ties
    const auto jobs = GenerateClusterWorkload(wl, rng.Next());

    const size_t num_devices = 2 + rng.NextBelow(3);
    std::vector<uint64_t> caps;
    for (size_t d = 0; d < num_devices; ++d) {
      caps.push_back((5 + rng.NextBelow(12)) * GiB);  // tight enough that some rounds OOM
    }
    const auto policies = AllSchedulerPolicies();
    const SchedulerPolicy policy = policies[rng.NextBelow(policies.size())];

    FleetConfig serial = Fleet(policy, caps, 0);
    const ClusterResult base = RunCluster(serial, jobs);

    const FleetConfig fleet = Fleet(policy, caps, 2 + static_cast<int>(rng.NextBelow(7)));
    const ClusterResult parallel = RunCluster(fleet, jobs);
    EXPECT_EQ(parallel.Digest(), base.Digest())
        << "round " << round << " workers=" << fleet.workers << "\nserial:   " << base.Summary()
        << "\nparallel: " << parallel.Summary();
  }
}

// Repeated parallel runs of one configuration agree with themselves — no run-to-run thread
// scheduling leak.
TEST(ShardedFleet, ParallelRunsAreReproducible) {
  const auto jobs = GenerateClusterWorkload(SmallMixedWorkload(), 42);
  const FleetConfig fleet = Fleet(SchedulerPolicy::kPlanAware, {16 * GiB, 16 * GiB}, 4);
  const std::string first = RunCluster(fleet, jobs).Digest();
  for (int i = 0; i < 2; ++i) {
    EXPECT_EQ(RunCluster(fleet, jobs).Digest(), first);
  }
}

#if STALLOC_TELEMETRY
// Admission estimates are computed once per distinct input per day. K training jobs of one
// shape (pp=2, distinct run seeds) and K serving jobs of one shape need exactly three plans —
// one per training rank, one for the serving shape — at every worker count, and sharing them
// leaves the day bit-identical across worker counts.
TEST(ShardedFleet, IdenticalShapesSharePlansAtEveryWorkerCount) {
  constexpr int kPerShape = 4;
  std::vector<ClusterJob> jobs;
  for (int i = 0; i < 2 * kPerShape; ++i) {
    ClusterJob job;
    job.id = static_cast<uint64_t>(i);
    job.submit_time = 1 + 300 * static_cast<uint64_t>(i);
    job.model = "gpt2";
    job.seed = 100 + static_cast<uint64_t>(i);
    if (i % 2 == 0) {
      job.type = ClusterJobType::kTraining;
      TrainConfig config;
      config.parallel.pp = 2;
      config.micro_batch_size = 1;
      config.num_microbatches = 2;
      job.train = ApplyConfigTag(config, "R");
    } else {
      job.type = ClusterJobType::kServing;
      job.scenario = ScenarioByName("chat");
      job.scenario.num_requests = 8;
      job.engine.kv_budget_bytes = 1 * GiB;
    }
    jobs.push_back(job);
  }

  telemetry::Counter* plans =
      telemetry::MetricsRegistry::Global().GetCounter("planner.plans_synthesized");
  telemetry::SetEnabled(true);
  std::string want;
  for (int workers : {0, 2, 8}) {
    const uint64_t before = plans->value();
    const ClusterResult r =
        RunCluster(Fleet(SchedulerPolicy::kPlanAware, {16 * GiB, 16 * GiB, 16 * GiB}, workers),
                   jobs);
    EXPECT_EQ(plans->value() - before, 3u) << "workers=" << workers;
    EXPECT_EQ(r.completed, jobs.size()) << "workers=" << workers;
    if (want.empty()) {
      want = r.Digest();
    }
    EXPECT_EQ(r.Digest(), want) << "workers=" << workers;
  }
  telemetry::SetEnabled(false);
}
#endif  // STALLOC_TELEMETRY

}  // namespace
}  // namespace stalloc
