// Session/ExperimentSpec: every spec axis runs through the session and reproduces a pinned
// outcome bit-for-bit on identical seeds; the spec shorthands (config tags, repeats) equal the
// explicit specs they stand for; bad specs fail validation instead of aborting.

#include "src/api/session.h"

#include <cmath>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/api/report.h"
#include "src/api/serializers.h"
#include "src/api/spec.h"
#include "src/cluster/cluster_workload.h"
#include "src/cluster/fleet.h"
#include "src/common/table.h"
#include "src/common/units.h"
#include "src/gpu/sim_device.h"
#include "src/servesim/request_gen.h"
#include "src/trace/synthetic.h"
#include "src/trainsim/model_config.h"
#include "src/trainsim/workload.h"
#include "tests/support/scoped_verify.h"

namespace stalloc {
namespace {

TrainConfig SmallTrain() {
  TrainConfig c;
  c.parallel.pp = 2;
  c.num_microbatches = 4;
  c.micro_batch_size = 2;
  return c;
}

ExperimentOptions SmallOptions() {
  ExperimentOptions opt;
  opt.capacity_bytes = 16ull * GiB;
  return opt;
}

void ExpectBitIdentical(const ExperimentResult& a, const ExperimentResult& b) {
  EXPECT_EQ(a.allocator, b.allocator);
  EXPECT_EQ(a.oom, b.oom);
  EXPECT_EQ(a.infeasible, b.infeasible);
  EXPECT_EQ(a.allocated_peak, b.allocated_peak);
  EXPECT_EQ(a.reserved_peak, b.reserved_peak);
  EXPECT_EQ(a.memory_efficiency, b.memory_efficiency);  // bitwise: same replay, same division
  EXPECT_EQ(a.fragmentation_bytes, b.fragmentation_bytes);
  EXPECT_EQ(a.device_api_calls, b.device_api_calls);
  EXPECT_EQ(a.device_release_calls, b.device_release_calls);
  EXPECT_EQ(a.Summary(), b.Summary());
}

TEST(Session, ConfigTagMatchesApplyConfigTag) {
  ExperimentSpec spec;
  spec.axis = WorkloadAxis::kTrainRank;
  spec.model = "gpt2";
  spec.train = SmallTrain();
  spec.config_tag = "R";
  spec.options = SmallOptions();

  Session session;
  RunRecord rec = session.RunOne(spec, "torch-caching");

  ExperimentSpec explicit_spec = spec;
  explicit_spec.config_tag.clear();
  explicit_spec.train = ApplyConfigTag(SmallTrain(), "R");
  RunRecord direct = session.RunOne(explicit_spec, "torch-caching");
  ASSERT_TRUE(rec.train_rank.has_value());
  ASSERT_TRUE(direct.train_rank.has_value());
  ExpectBitIdentical(*rec.train_rank, *direct.train_rank);
}

TEST(Session, ClusterMatchesRunClusterBitForBit) {
  ExperimentSpec spec;
  spec.axis = WorkloadAxis::kCluster;
  spec.devices = 2;
  spec.policy = "first-fit";
  spec.options.capacity_bytes = 16ull * GiB;
  spec.options.run_seed = 7;
  spec.cluster.num_jobs = 4;
  spec.cluster.serve_requests = 16;

  Session session;
  RunRecord rec = session.RunOne(spec, "torch-caching");

  FleetConfig fleet;
  fleet.device_capacities = {16ull * GiB, 16ull * GiB};
  fleet.policy = SchedulerPolicy::kFirstFit;
  fleet.allocator = "torch-caching";
  const std::vector<ClusterJob> jobs = GenerateClusterWorkload(spec.cluster, 7);
  ClusterResult direct = RunCluster(fleet, jobs);

  ASSERT_TRUE(rec.cluster.has_value());
  const ClusterResult& via = *rec.cluster;
  EXPECT_EQ(via.num_jobs, direct.num_jobs);
  EXPECT_EQ(via.completed, direct.completed);
  EXPECT_EQ(via.rejected_upfront, direct.rejected_upfront);
  EXPECT_EQ(via.rejected_oom, direct.rejected_oom);
  EXPECT_EQ(via.oom_events, direct.oom_events);
  EXPECT_EQ(via.requeues, direct.requeues);
  EXPECT_EQ(via.makespan, direct.makespan);
  EXPECT_EQ(via.queue_wait_p99, direct.queue_wait_p99);
  EXPECT_EQ(via.fleet_avg_utilization, direct.fleet_avg_utilization);
  EXPECT_EQ(via.serve_slo_attainment, direct.serve_slo_attainment);
  ASSERT_EQ(via.devices.size(), direct.devices.size());
  for (size_t d = 0; d < direct.devices.size(); ++d) {
    EXPECT_EQ(via.devices[d].peak_used, direct.devices[d].peak_used);
    EXPECT_EQ(via.devices[d].memory_efficiency, direct.devices[d].memory_efficiency);
    EXPECT_EQ(via.devices[d].device_api_calls, direct.devices[d].device_api_calls);
  }
  EXPECT_EQ(via.Summary(), direct.Summary());
  EXPECT_EQ(rec.oom_events, direct.oom_events);
  EXPECT_EQ(rec.slo_attainment, direct.serve_slo_attainment);
}

// A per-device capacity list builds exactly the fleet RunCluster gets from the same list.
TEST(Session, ClusterCapacityListMatchesRunCluster) {
  ExperimentSpec spec;
  spec.axis = WorkloadAxis::kCluster;
  spec.devices = 2;
  spec.device_capacities = {16 * GiB, 5 * GiB};
  spec.policy = "first-fit";
  spec.options.run_seed = 7;
  spec.cluster.num_jobs = 4;
  spec.cluster.serve_requests = 16;

  Session session;
  const RunRecord rec = session.RunOne(spec, "torch-caching");

  FleetConfig fleet;
  fleet.device_capacities = {16 * GiB, 5 * GiB};
  fleet.policy = SchedulerPolicy::kFirstFit;
  fleet.allocator = "torch-caching";
  const ClusterResult direct = RunCluster(fleet, GenerateClusterWorkload(spec.cluster, 7));

  ASSERT_TRUE(rec.cluster.has_value());
  EXPECT_EQ(rec.cluster->Digest(), direct.Digest());
  ASSERT_EQ(rec.cluster->devices.size(), 2u);
  EXPECT_EQ(rec.cluster->devices[1].capacity, 5 * GiB);
}

TEST(Session, RepeatBumpsRunSeedOnly) {
  ExperimentSpec spec;
  spec.axis = WorkloadAxis::kTrainRank;
  spec.model = "qwen1.5-moe";  // MoE: run-seed changes routed expert sizes, so seeds matter
  spec.train = SmallTrain();
  spec.train.parallel.ep = 4;
  spec.options = SmallOptions();
  spec.options.capacity_bytes = 32ull * GiB;

  Session session;
  RunRecord r1 = session.RunOne(spec, "torch-caching", /*repeat=*/1);
  EXPECT_EQ(r1.run_seed, spec.options.run_seed + 1);
  EXPECT_EQ(r1.profile_seed, spec.options.profile_seed);

  ExperimentSpec bumped = spec;
  bumped.options.run_seed += 1;
  RunRecord direct = session.RunOne(bumped, "torch-caching");
  ASSERT_TRUE(r1.train_rank.has_value());
  ASSERT_TRUE(direct.train_rank.has_value());
  ExpectBitIdentical(*r1.train_rank, *direct.train_rank);
}

TEST(Session, RunCoversAllocatorsTimesRepeats) {
  ExperimentSpec spec;
  spec.axis = WorkloadAxis::kTrainRank;
  spec.model = "gpt2";
  spec.train = SmallTrain();
  spec.train.num_microbatches = 2;
  spec.options = SmallOptions();
  spec.allocators = {"torch-caching", "native"};
  spec.repeats = 2;

  Session session;
  const std::vector<RunRecord> records = session.Run(spec);
  ASSERT_EQ(records.size(), 4u);
  EXPECT_EQ(records[0].allocator, "torch-caching");
  EXPECT_EQ(records[0].repeat, 0);
  EXPECT_EQ(records[1].allocator, "torch-caching");
  EXPECT_EQ(records[1].repeat, 1);
  EXPECT_EQ(records[2].allocator, "native");
  EXPECT_EQ(records[3].run_seed, spec.options.run_seed + 1);
}

TEST(Session, ValidateRejectsBadSpecs) {
  std::string error;
  ExperimentSpec spec;
  spec.allocators = {"no-such-allocator"};
  EXPECT_FALSE(Session::Validate(spec, &error));
  EXPECT_NE(error.find("no-such-allocator"), std::string::npos);

  spec = ExperimentSpec{};
  spec.model = "no-such-model";
  EXPECT_FALSE(Session::Validate(spec, &error));

  spec = ExperimentSpec{};
  spec.axis = WorkloadAxis::kServing;
  spec.scenario = "no-such-scenario";
  EXPECT_FALSE(Session::Validate(spec, &error));

  spec = ExperimentSpec{};
  spec.axis = WorkloadAxis::kCluster;
  spec.policy = "no-such-policy";
  EXPECT_FALSE(Session::Validate(spec, &error));

  // STAlloc cannot front a shared cluster device — the scheduler is its cluster entry point.
  spec = ExperimentSpec{};
  spec.axis = WorkloadAxis::kCluster;
  spec.allocators = {"stalloc"};
  EXPECT_FALSE(Session::Validate(spec, &error));
  EXPECT_NE(error.find("plan"), std::string::npos);

  // Training-shape typos must fail here, not CHECK-abort inside the workload builder.
  spec = ExperimentSpec{};
  spec.train.parallel.pp = 0;
  EXPECT_FALSE(Session::Validate(spec, &error));

  spec = ExperimentSpec{};
  spec.train.num_microbatches = -1;
  EXPECT_FALSE(Session::Validate(spec, &error));

  spec = ExperimentSpec{};
  spec.axis = WorkloadAxis::kTrainRank;
  spec.train.rank = 5;  // pp defaults to 1
  EXPECT_FALSE(Session::Validate(spec, &error));

  spec = ExperimentSpec{};
  spec.config_tag = "XX";
  EXPECT_FALSE(Session::Validate(spec, &error));

  spec = ExperimentSpec{};
  spec.repeats = 0;
  EXPECT_FALSE(Session::Validate(spec, &error));

  // Cluster-shape typos must fail here, not CHECK-abort inside GenerateClusterWorkload (or, for
  // the train fraction, silently run an all-serving or all-training day).
  const auto bad_cluster = [&](auto mutate) {
    ExperimentSpec s;
    s.axis = WorkloadAxis::kCluster;
    mutate(s.cluster);
    return !Session::Validate(s, &error);
  };
  EXPECT_TRUE(bad_cluster([](ClusterWorkloadConfig& c) { c.num_jobs = -1; }));
  EXPECT_TRUE(bad_cluster([](ClusterWorkloadConfig& c) { c.train_fraction = -5; }));
  EXPECT_TRUE(bad_cluster([](ClusterWorkloadConfig& c) { c.train_fraction = 1.5; }));
  EXPECT_TRUE(bad_cluster([](ClusterWorkloadConfig& c) { c.train_fraction = std::nan(""); }));
  EXPECT_TRUE(bad_cluster([](ClusterWorkloadConfig& c) { c.max_pp = 0; }));
  EXPECT_TRUE(bad_cluster([](ClusterWorkloadConfig& c) { c.min_iterations = 0; }));
  EXPECT_TRUE(bad_cluster([](ClusterWorkloadConfig& c) {
    c.min_iterations = 3;
    c.max_iterations = 2;
  }));
  EXPECT_TRUE(bad_cluster([](ClusterWorkloadConfig& c) { c.train_tags.clear(); }));
  EXPECT_TRUE(bad_cluster([](ClusterWorkloadConfig& c) { c.micro_batches.clear(); }));
  EXPECT_TRUE(bad_cluster([](ClusterWorkloadConfig& c) { c.serve_scenarios.clear(); }));
  // The boundaries stay valid.
  EXPECT_FALSE(bad_cluster([](ClusterWorkloadConfig& c) {
    c.num_jobs = 0;
    c.train_fraction = 0;
  }));
  EXPECT_FALSE(bad_cluster([](ClusterWorkloadConfig& c) { c.train_fraction = 1; }));

  // Fleet shape: a capacity list names every device, and only the cluster axis has devices.
  spec = ExperimentSpec{};
  spec.axis = WorkloadAxis::kCluster;
  spec.devices = 2;
  spec.device_capacities = {16 * GiB, 16 * GiB, 24 * GiB};
  EXPECT_FALSE(Session::Validate(spec, &error));
  EXPECT_NE(error.find("2-device"), std::string::npos) << error;
  spec.devices = 3;
  EXPECT_TRUE(Session::Validate(spec, &error)) << error;
  spec.axis = WorkloadAxis::kTrainRank;
  EXPECT_FALSE(Session::Validate(spec, &error));

  // Each worker is a thread: a huge count is refused before any starts.
  spec = ExperimentSpec{};
  spec.axis = WorkloadAxis::kCluster;
  spec.workers = 257;
  EXPECT_FALSE(Session::Validate(spec, &error));
  spec.workers = 256;
  EXPECT_TRUE(Session::Validate(spec, &error)) << error;

  // Training shapes the workload builder cannot split must fail here too: layers over pp x vpp
  // (gpt2 has 24 layers), interleaved microbatches over pp, experts over ep.
  const auto bad_train = [&](WorkloadAxis axis, const char* model, const char* tag, int pp,
                             int ep) {
    ExperimentSpec s;
    s.axis = axis;
    s.model = model;
    s.config_tag = tag;
    s.train.parallel.pp = pp;
    s.train.parallel.ep = ep;
    return !Session::Validate(s, &error);
  };
  EXPECT_TRUE(bad_train(WorkloadAxis::kTrainRank, "gpt2", "", 5, 1));
  EXPECT_NE(error.find("layers"), std::string::npos) << error;
  EXPECT_TRUE(bad_train(WorkloadAxis::kTrainJob, "gpt2", "", 7, 1));
  EXPECT_TRUE(bad_train(WorkloadAxis::kTrainRank, "gpt2", "V", 3, 1));
  EXPECT_NE(error.find("divisible by pp"), std::string::npos) << error;
  EXPECT_TRUE(bad_train(WorkloadAxis::kTrainRank, "qwen1.5-moe", "", 1, 7));
  EXPECT_NE(error.find("experts"), std::string::npos) << error;
  EXPECT_FALSE(bad_train(WorkloadAxis::kTrainRank, "gpt2", "", 3, 1));
  EXPECT_FALSE(bad_train(WorkloadAxis::kTrainJob, "gpt2", "V", 4, 1));
  EXPECT_FALSE(bad_train(WorkloadAxis::kTrainRank, "qwen1.5-moe", "", 1, 4));

  // Serving-engine shapes BuildServeTrace cannot run: an empty batch, a KV budget below one
  // block.
  const auto bad_engine = [&](auto mutate) {
    ExperimentSpec s;
    s.axis = WorkloadAxis::kServing;
    mutate(s.engine);
    return !Session::Validate(s, &error);
  };
  EXPECT_TRUE(bad_engine([](EngineConfig& e) { e.max_batch = 0; }));
  EXPECT_TRUE(bad_engine([](EngineConfig& e) { e.max_batch = -1; }));
  EXPECT_TRUE(bad_engine([](EngineConfig& e) { e.kv_block_tokens = 0; }));
  EXPECT_TRUE(bad_engine([](EngineConfig& e) { e.kv_budget_bytes = 1 * KiB; }));
  EXPECT_NE(error.find("KV budget"), std::string::npos) << error;
  EXPECT_FALSE(bad_engine([](EngineConfig& e) { e.max_batch = 1; }));
  EXPECT_FALSE(bad_engine([](EngineConfig& e) {
    e.kv_budget_bytes = KvBlockBytes(ModelByName("gpt2"), e);
  }));

  // A capacity whose device address range would run past 2^64 (SimDevice aborts on it), on
  // the shared capacity and in a cluster's per-device list.
  spec = ExperimentSpec{};
  spec.options.capacity_bytes = ~uint64_t{0};
  EXPECT_FALSE(Session::Validate(spec, &error));
  EXPECT_NE(error.find("device capacity"), std::string::npos) << error;
  spec.options.capacity_bytes = 0;
  EXPECT_FALSE(Session::Validate(spec, &error));
  spec.options.capacity_bytes = SimDevice::kMaxCapacity;
  EXPECT_TRUE(Session::Validate(spec, &error)) << error;
  spec = ExperimentSpec{};
  spec.axis = WorkloadAxis::kCluster;
  spec.devices = 2;
  spec.device_capacities = {16 * GiB, SimDevice::kMaxCapacity + 1};
  EXPECT_FALSE(Session::Validate(spec, &error));
  EXPECT_NE(error.find("device capacity"), std::string::npos) << error;

  // And the defaults are valid for every axis.
  for (WorkloadAxis axis : AllWorkloadAxes()) {
    spec = ExperimentSpec{};
    spec.axis = axis;
    EXPECT_TRUE(Session::Validate(spec, &error)) << WorkloadAxisName(axis) << ": " << error;
  }
}

// Registers an extra kind into the Global() registry; declared after every test whose
// expectations could observe it (none here enumerate the registry, but keep it late anyway).
TEST(Session, ExternalAllocatorsRunThroughEveryDriver) {
  const char* kExternal = "session-test-caching";
  if (AllocatorRegistry::Global().Find(kExternal) == nullptr) {  // --gtest_repeat safe
    AllocatorRegistry::Global().Register(
        {kExternal, /*requires_plan=*/false,
         [](SimDevice* device, const AllocatorOptions& options) {
           return AllocatorRegistry::Global().Create("torch-caching", device, options);
         },
         /*options_help=*/""});
  }
  Session session;

  // Rank axis: the wrapper replays exactly as the kind it wraps.
  ExperimentSpec rank;
  rank.axis = WorkloadAxis::kTrainRank;
  rank.model = "gpt2";
  rank.train = SmallTrain();
  rank.options = SmallOptions();
  const RunRecord ext_rank = session.RunOne(rank, kExternal);
  const RunRecord ref_rank = session.RunOne(rank, "torch-caching");
  ASSERT_EQ(ext_rank.status, RunStatus::kOk);
  ASSERT_TRUE(ext_rank.train_rank.has_value());
  EXPECT_EQ(ext_rank.train_rank->allocator, kExternal);
  EXPECT_EQ(ext_rank.allocated_peak, ref_rank.allocated_peak);
  EXPECT_EQ(ext_rank.reserved_peak, ref_rank.reserved_peak);

  // Cluster axis: every fleet device is fronted by the external kind.
  ExperimentSpec day;
  day.axis = WorkloadAxis::kCluster;
  day.devices = 2;
  day.options.capacity_bytes = 16ull * GiB;
  day.cluster.num_jobs = 4;
  day.cluster.serve_requests = 16;
  const std::vector<ClusterJob> jobs = GenerateClusterWorkload(day.cluster, 7);
  const RunRecord ext_day = session.RunClusterJobs(day, kExternal, jobs);
  const RunRecord ref_day = session.RunClusterJobs(day, "torch-caching", jobs);
  ASSERT_TRUE(ext_day.cluster.has_value());
  ASSERT_TRUE(ref_day.cluster.has_value());
  EXPECT_EQ(ext_day.cluster->allocator, kExternal);
  EXPECT_GT(ext_day.cluster->completed, 0u);
  EXPECT_EQ(ext_day.reserved_peak, ref_day.reserved_peak);
  ASSERT_EQ(ext_day.cluster->devices.size(), ref_day.cluster->devices.size());
  for (size_t d = 0; d < ref_day.cluster->devices.size(); ++d) {
    EXPECT_EQ(ext_day.cluster->devices[d].peak_used, ref_day.cluster->devices[d].peak_used);
  }
}

// A record's JSON without its host-time fields (phase timings, the fleet day's wall clock):
// what is left is a pure function of the spec and the seeds.
Json WithoutHostTime(const Json& record) {
  Json out = Json::Object();
  for (const auto& [key, value] : record.items()) {
    if (key == "phases") {
      continue;
    }
    if (key == "cluster") {
      Json cluster = Json::Object();
      for (const auto& [ckey, cvalue] : value.items()) {
        if (ckey != "wall_seconds") {
          cluster.Set(ckey, cvalue);
        }
      }
      out.Set(key, std::move(cluster));
      continue;
    }
    out.Set(key, value);
  }
  return out;
}

uint64_t Fnv1a(uint64_t hash, const std::string& bytes) {
  for (unsigned char c : bytes) {
    hash ^= c;
    hash *= 1099511628211ull;
  }
  return hash;
}

// Pins the outcome of every run shape the session executes — rank (simulated and preloaded
// trace), job, serve and cluster, baseline and plan kinds, ok and infeasible — to one digest
// over each record's JSON (host time removed) and its Summary(). Any change to what a run
// computes or reports moves the digest.
std::string PinnedOutcomeDigest() {
  Session session;
  uint64_t digest = 14695981039346656037ull;
  int runs = 0;
  const auto add = [&](const RunRecord& rec) {
    digest = Fnv1a(digest, WithoutHostTime(ToJson(rec)).Dump(0));
    digest = Fnv1a(digest, rec.Summary());
    ++runs;
  };

  ExperimentSpec rank;
  rank.axis = WorkloadAxis::kTrainRank;
  rank.model = "gpt2";
  rank.train = SmallTrain();
  rank.options = SmallOptions();
  for (int r : {0, 1}) {
    rank.train.rank = r;
    for (const char* alloc : {"torch-caching", "stalloc", "stalloc-noreuse"}) {
      const RunRecord rec = session.RunOne(rank, alloc);
      EXPECT_EQ(rec.status, RunStatus::kOk) << alloc << " rank " << r;
      add(rec);
    }
  }
  ExperimentSpec tight = rank;
  tight.train.rank = 0;
  tight.options.capacity_bytes = 2ull * GiB;
  const RunRecord native = session.RunOne(tight, "native");
  EXPECT_EQ(native.status, RunStatus::kInfeasible);
  add(native);

  ExperimentSpec job = rank;
  job.axis = WorkloadAxis::kTrainJob;
  job.train.rank = 0;
  for (const char* alloc : {"torch-caching", "stalloc"}) {
    add(session.RunOne(job, alloc));
  }

  ExperimentSpec serve;
  serve.axis = WorkloadAxis::kServing;
  serve.model = "gpt2";
  serve.scenario = "chat";
  serve.serve_requests = 24;
  serve.options = SmallOptions();
  serve.engine.kv_budget_bytes = 2ull * GiB;
  for (const char* alloc : {"paged-kv", "stalloc", "torch-caching"}) {
    add(session.RunOne(serve, alloc));
  }

  const Trace trained = WorkloadBuilder(ModelByName("gpt2"), SmallTrain()).Build(2002);
  SyntheticSpec storm;
  storm.num_ops = 20000;
  storm.seed = 42;
  const Trace phaseless = BuildSyntheticTrace(storm);
  ExperimentSpec replay;
  replay.axis = WorkloadAxis::kTrainRank;
  replay.trace_file = "pinned.v2";
  replay.options = SmallOptions();
  for (const Trace* trace : {&trained, &phaseless}) {
    session.SetReplayTrace(trace);
    for (const char* alloc : {"torch-caching", "stalloc"}) {
      const RunRecord rec = session.RunOne(replay, alloc);
      // Each trace plans itself; the phaseless stream plans as one phase group.
      EXPECT_EQ(rec.status, RunStatus::kOk) << alloc;
      add(rec);
    }
  }
  session.SetReplayTrace(static_cast<const Trace*>(nullptr));

  ExperimentSpec day;
  day.axis = WorkloadAxis::kCluster;
  day.devices = 2;
  day.options.capacity_bytes = 16ull * GiB;
  day.options.run_seed = 7;
  day.cluster.num_jobs = 4;
  day.cluster.serve_requests = 16;
  for (const char* policy : {"first-fit", "plan-aware"}) {
    day.policy = policy;
    add(session.RunOne(day, "torch-caching"));
  }

  EXPECT_EQ(runs, 18);
  return StrFormat("%016llx", static_cast<unsigned long long>(digest));
}

// Verify mode adds checks, never decisions: the digest holds with it on and off.
TEST(Session, PinnedOutcomeDigestCoversEveryAxis) {
  for (const bool verify : {true, false}) {
    ScopedVerify mode(verify);
    EXPECT_EQ(PinnedOutcomeDigest(), "97925b1abdc69d9d") << "verify " << verify;
  }
}

TEST(Session, AxisNameRoundTrip) {
  for (WorkloadAxis axis : AllWorkloadAxes()) {
    const auto parsed = ParseWorkloadAxis(WorkloadAxisName(axis));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, axis);
  }
  EXPECT_EQ(ParseWorkloadAxis("no-such-axis"), std::nullopt);
}

}  // namespace
}  // namespace stalloc
