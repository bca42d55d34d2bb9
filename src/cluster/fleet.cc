// The fleet simulator behind RunCluster (src/cluster/fleet.h): windowed and device-parallel.
//
// Every device owns one ReplayEngine over the sources placed on it. Simulated time is cut into
// windows whose boundaries are *precomputable* from coordinator state alone: the next job
// arrival and the earliest possible source completion (SourceEndTime is a pure function of the
// admission schedule). Inside a window every device replays its own ops with no shared state —
// OOMs park the failing source in place (OomAction::kParkSource) and completions are buffered,
// never acted on. At the boundary the coordinator drains every device's event buffer, merges it
// in the total order (time, job, kind, rank), and reacts single-threaded: unwinds OOMed
// tenants, requeues or rejects them, records completions, admits arrivals, samples
// fragmentation and runs one scheduling pass.
//
// Because window edges and the merged event order are independent of which thread stepped
// which device, the whole ClusterResult — every integral, percentile and per-job outcome — is
// bit-identical across worker counts. Serial mode (workers <= 1) is the same code path with the
// pool degenerating to an inline loop, so the determinism tests can pin serial-vs-parallel
// equality byte for byte.
//
// An OOM's unwind lands at the next boundary, not at the failing op's tick, and other sources
// replay their ops inside the window regardless: a self-consistent discipline that is
// parallelizable by construction.

#include "src/cluster/fleet.h"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <deque>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/common/check.h"
#include "src/common/stopwatch.h"
#include "src/common/table.h"
#include "src/common/worker_pool.h"
#include "src/gpu/sim_device.h"
#include "src/metrics/throughput_model.h"
#include "src/replay/replay_engine.h"
#include "src/telemetry/metrics.h"
#include "src/telemetry/telemetry.h"
#include "src/telemetry/tracer.h"
#include "src/trainsim/model_config.h"
#include "src/trainsim/workload.h"

namespace stalloc {

namespace {

constexpr uint64_t kNever = std::numeric_limits<uint64_t>::max();

class ClusterSim;

// Per-device replay observer. During windows it runs on the thread stepping its device and
// touches only that device's state: metric fields, source list and event buffer.
// OnSourceAborted additionally runs at boundaries (from the coordinator's AbortTenant), where
// everything is single-threaded.
class DeviceObserver final : public ReplayObserver {
 public:
  DeviceObserver(ClusterSim* sim, int device) : sim_(sim), device_(device) {}

  void BeforeOp(ReplayEngine& engine, const ReplayOpView& op) override;
  void AfterMalloc(ReplayEngine& engine, const ReplayOpView& op, uint64_t addr) override;
  void AfterFree(ReplayEngine& engine, const ReplayOpView& op, uint64_t addr) override;
  OomAction OnOom(ReplayEngine& engine, const ReplayOpView& op) override;
  void OnSourceAborted(ReplayEngine& engine, size_t source, uint64_t now) override;
  void OnSourceDone(ReplayEngine& engine, size_t source, uint64_t now) override;

 private:
  // Buffers an OOM or completion event of `source` for the next boundary.
  void Emit(uint8_t kind, size_t source, uint64_t time);

  ClusterSim* sim_;
  int device_;
};

// Rank-placement bookkeeping, one entry per device engine source id. Every admission —
// including post-OOM re-admissions — appends fresh entries in lockstep with AddSource.
struct SourceInfo {
  size_t job = 0;
  int rank = 0;
  uint64_t estimate = 0;
  bool released = false;  // claim returned (completion or unwind)
};

// Events crossing the device -> coordinator seam. Kind values double as the merge tiebreak:
// an OOM and a completion of the same job at the same tick must abort-first, or the job would
// read as completed and unwound at once.
enum : uint8_t { kOomEvent = 0, kDoneEvent = 1 };

struct FleetEvent {
  uint64_t time = 0;
  uint64_t job = 0;  // index into jobs_
  uint8_t kind = kOomEvent;
  int rank = 0;
  int device = 0;
  size_t source = 0;  // the device engine's source id
};

struct DeviceState {
  std::unique_ptr<SimDevice> device;
  std::unique_ptr<Allocator> alloc;
  std::unique_ptr<DeviceObserver> observer;
  std::unique_ptr<ReplayEngine> engine;
  std::vector<SourceInfo> sources;  // indexed by engine source id
  std::vector<FleetEvent> events;   // buffered during the window, drained at boundaries
  uint64_t claimed = 0;  // sum of resident placements' admission estimates

  // Utilization is integrated exactly (on every op); external fragmentation is sampled at
  // boundaries and time-weighted between samples. During a window only the thread stepping
  // this device touches these fields; at boundaries only the coordinator does.
  uint64_t last_util_time = 0;
  double util_integral = 0;  // bytes * ticks
  uint64_t last_frag_time = 0;
  double frag_value = 0;
  double frag_integral = 0;
  double peak_frag = 0;
  uint64_t peak_used = 0;
  uint64_t placements = 0;
};

struct JobState {
  const ClusterJob* spec = nullptr;
  JobOutcome outcome;
  ModelConfig model;
  std::vector<Trace> traces;        // one per rank
  std::vector<uint64_t> estimates;  // per-rank admission estimate
  ServeSimStats serve_stats;        // serving jobs only
  int live_ranks = 0;
};

// The total merge order: (time, job, kind, rank) reads no engine-local value, so scheduler
// decisions do not depend on which thread stepped which device.
bool EventBefore(const FleetEvent& a, const FleetEvent& b) {
  return std::tie(a.time, a.job, a.kind, a.rank) < std::tie(b.time, b.job, b.kind, b.rank);
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  const size_t rank = static_cast<size_t>(p * static_cast<double>(values.size() - 1) + 0.5);
  return values[std::min(rank, values.size() - 1)];
}

// Exact identity of an admission estimate's input: an injective byte encoding of every field
// the estimate reads, so two keys are equal iff their inputs are — no hash is trusted.
// Scalars are copied raw (doubles by bit pattern); strings and lists are length-prefixed.
class EstimateKey {
 public:
  template <typename T>
  void Add(T value) {
    static_assert(std::is_arithmetic_v<T> || std::is_enum_v<T>);
    bytes_.append(reinterpret_cast<const char*>(&value), sizeof(T));
  }
  void Add(const std::string& s) {
    Add(s.size());
    bytes_ += s;
  }
  void Add(const std::vector<LengthBucket>& buckets) {
    Add(buckets.size());
    for (const auto& [lo, hi, weight] : buckets) {
      Add(lo);
      Add(hi);
      Add(weight);
    }
  }
  std::string Take() { return std::move(bytes_); }

 private:
  std::string bytes_;
};

// The structured bindings below stop compiling when TrainConfig, ServeScenario or EngineConfig
// gains a field, so a new field must be keyed (or deliberately skipped) before two jobs that
// differ in it can share an estimate.
//
// Training: the whole TrainConfig except its rank and seed, which are replaced by the rank
// being estimated (`train.rank` is ignored) and the seed the estimate builds its trace with.
// The job's run seed is never read.
std::string TrainingEstimateKey(const ClusterJob& job, int rank, uint64_t estimate_seed) {
  [[maybe_unused]] const auto& [parallel, opt, micro_batch_size, num_microbatches, job_rank,
                                config_seed] = job.train;
  const auto& [tp, pp, dp, ep, vpp_chunks] = parallel;
  const auto& [recompute, zero, offload, schedule] = opt;
  EstimateKey key;
  key.Add(ClusterJobType::kTraining);
  key.Add(job.model);
  for (int v : {tp, pp, dp, ep, vpp_chunks}) {
    key.Add(v);
  }
  key.Add(recompute);
  key.Add(zero);
  key.Add(offload);
  key.Add(schedule);
  key.Add(micro_batch_size);
  key.Add(num_microbatches);
  key.Add(rank);
  key.Add(estimate_seed);
  return key.Take();
}

// Serving: the model, every scenario field and every engine field.
std::string ServingEstimateKey(const ClusterJob& job) {
  const auto& [name, arrival, num_requests, mean_interarrival_steps, burst_factor,
               burst_on_steps, burst_off_steps, prompt_dist, output_dist] = job.scenario;
  const auto& [kv_block_tokens, max_batch, kv_budget_bytes, max_steps, emit_weights] =
      job.engine;
  EstimateKey key;
  key.Add(ClusterJobType::kServing);
  key.Add(job.model);
  key.Add(name);
  key.Add(arrival);
  key.Add(num_requests);
  for (double v : {mean_interarrival_steps, burst_factor, burst_on_steps, burst_off_steps}) {
    key.Add(v);
  }
  key.Add(prompt_dist);
  key.Add(output_dist);
  key.Add(kv_block_tokens);
  key.Add(max_batch);
  key.Add(kv_budget_bytes);
  key.Add(max_steps);
  key.Add(emit_weights);
  return key.Take();
}

// The day's admission estimates, one per distinct input: slots[job][rank] indexes values.
struct AdmissionEstimates {
  std::vector<std::vector<size_t>> slots;
  std::vector<uint64_t> values;
};

class ClusterSim {
 public:
  ClusterSim(const FleetConfig& config, const std::vector<ClusterJob>& specs)
      : config_(config),
        scheduler_(MakeScheduler(config.policy)),
        pool_(config.workers) {
    STALLOC_CHECK(!config.device_capacities.empty(), << "fleet needs at least one device");
    const size_t num_devices = config.device_capacities.size();
    devices_.reserve(num_devices);
    for (size_t i = 0; i < num_devices; ++i) {
      DeviceState d;
      d.device = std::make_unique<SimDevice>(config.device_capacities[i]);
      d.alloc = AllocatorRegistry::Global().Create(config.allocator, d.device.get(),
                                                   config.allocator_options);
      STALLOC_CHECK(d.alloc != nullptr,
                    << "allocator '" << config.allocator
                    << "' cannot front a shared fleet device (unknown, or a plan kind that needs "
                       "a per-job plan)");
      // Per-device heap-map label. Set here — the single construction point for serial and
      // parallel runs alike — so the label set is identical across worker counts and the
      // drained heap timeline stays bit-identical.
      d.alloc->SetHeapLabel(std::string(d.alloc->name()) +
                            StrFormat("@dev%03zu", i));
      d.observer = std::make_unique<DeviceObserver>(this, static_cast<int>(i));
      d.engine = std::make_unique<ReplayEngine>(d.observer.get());
      max_capacity_ = std::max(max_capacity_, d.device->capacity());
      devices_.push_back(std::move(d));
    }

    jobs_.reserve(specs.size());
    for (const ClusterJob& spec : specs) {
      JobState job;
      job.spec = &spec;
      job.outcome.id = spec.id;
      job.outcome.type = spec.type;
      job.outcome.submit_time = spec.submit_time;
      jobs_.push_back(std::move(job));
    }
    oomed_now_.assign(jobs_.size(), 0);
  }

  ClusterResult Run() {
    Stopwatch timer;
    telemetry::ScopedSpan run_span(telemetry::kCatFleet, "cluster.run");
    run_span.Arg("jobs", static_cast<unsigned long long>(jobs_.size()));
    run_span.Arg("devices", static_cast<unsigned long long>(devices_.size()));
    // Trace synthesis and admission estimates are pure functions of the job — the single
    // biggest CPU cost at fleet scale — so they fan out over the same pool as the windows.
    // The results are identical whether built here or lazily at submission.
    const AdmissionEstimates estimates = ComputeAdmissionEstimates();
    pool_.ParallelFor(jobs_.size(),
                      [this, &estimates](size_t i) { BuildJobInputs(i, estimates); });

    size_t next_arrival = 0;
    while (true) {
      const uint64_t t_arr =
          next_arrival < jobs_.size() ? jobs_[next_arrival].spec->submit_time : kNever;
      uint64_t t_end = kNever;
      for (const DeviceState& d : devices_) {
        t_end = std::min(t_end, d.engine->MinActiveEndTime());
      }
      if (t_arr == kNever && t_end == kNever) {
        // Nothing arriving and nothing active; leftover events (every source parked on OOM)
        // still need their boundary, which may re-admit and reactivate.
        if (!AnyBufferedEvents()) {
          break;
        }
        ProcessEvents(CollectEvents());
        BoundaryScheduleLoop();
        continue;
      }
      if (t_arr <= t_end) {
        // Arrival boundary. Arrivals at tick t are processed before ops at tick t (the
        // historical fleet ordering), so the window stops strictly below t_arr.
        RunWindow(t_arr);
        ProcessEvents(CollectEvents());
        now_ = std::max(now_, t_arr);
        while (next_arrival < jobs_.size() &&
               jobs_[next_arrival].spec->submit_time == t_arr) {
          Submit(next_arrival++);
        }
        BoundaryScheduleLoop();
      } else {
        // Completion boundary: the earliest active source end. The +1 lets its final ops (at
        // exactly t_end) execute inside this window so the completion event is in the drain.
        RunWindow(t_end + 1);
        ProcessEvents(CollectEvents());
        BoundaryScheduleLoop();
      }
    }
    // Whatever is still queued can no longer be unblocked: no running job, no future arrival.
    for (size_t idx : queue_) {
      jobs_[idx].outcome.status = JobStatus::kStarved;
      jobs_[idx].outcome.finish_time = now_;
    }
    queue_.clear();
    return Finalize(timer);
  }

 private:
  friend class DeviceObserver;

  // --- window execution ---

  void RunWindow(uint64_t horizon_excl) {
    if (telemetry::Enabled()) {
      static telemetry::Counter* windows =
          telemetry::MetricsRegistry::Global().GetCounter("cluster.windows");
      windows->Add();
      // Each device's window runs on whichever pool thread picked it up, so the span lands on
      // that thread's track; the device index travels in the name/args as its shard number.
      pool_.ParallelFor(devices_.size(), [this, horizon_excl](size_t s) {
        auto& tracer = telemetry::Tracer::Global();
        ReplayEngine& engine = *devices_[s].engine;
        const uint64_t ops_before = engine.result().ops_replayed;
        const uint64_t t0 = tracer.NowUs();
        engine.StepUntil(horizon_excl);
        const uint64_t ops = engine.result().ops_replayed - ops_before;
        if (ops > 0) {
          const uint64_t t1 = tracer.NowUs();
          Json args = Json::Object();
          args.Set("shard", static_cast<unsigned long long>(s));
          args.Set("horizon", horizon_excl);
          args.Set("ops", ops);
          tracer.ThreadTrack()->Complete("shard " + std::to_string(s) + " window",
                                         telemetry::kCatShard, t0, t1 > t0 ? t1 - t0 : 0,
                                         std::move(args));
        }
      });
      return;
    }
    pool_.ParallelFor(devices_.size(), [this, horizon_excl](size_t s) {
      devices_[s].engine->StepUntil(horizon_excl);
    });
  }

  bool AnyBufferedEvents() const {
    for (const DeviceState& d : devices_) {
      if (!d.events.empty()) {
        return true;
      }
    }
    return false;
  }

  std::vector<FleetEvent> CollectEvents() {
    std::vector<FleetEvent> all;
    for (DeviceState& d : devices_) {
      all.insert(all.end(), d.events.begin(), d.events.end());
      d.events.clear();
    }
    std::sort(all.begin(), all.end(), EventBefore);
    return all;
  }

  // --- boundary processing (single-threaded) ---

  // Drains the merged event stream: releases claims, records completions, unwinds OOMed
  // tenants once each and decides requeue vs reject.
  void ProcessEvents(std::vector<FleetEvent> events) {
    if (events.empty()) {
      return;
    }
    std::vector<std::pair<uint64_t, size_t>> oomed;  // (first OOM tick, job), merge order
    for (const FleetEvent& e : events) {
      now_ = std::max(now_, e.time);
      if (e.kind == kOomEvent) {
        if (oomed_now_[e.job] != 0) {
          continue;  // the tenant was already unwound at this boundary
        }
        oomed_now_[e.job] = 1;
        oomed.emplace_back(e.time, static_cast<size_t>(e.job));
        AbortJob(static_cast<size_t>(e.job));
      } else {
        if (devices_[static_cast<size_t>(e.device)].sources[e.source].released) {
          continue;  // already released by this boundary's unwind
        }
        FinishRank(e.device, e.source);
      }
    }
    for (const auto& [first_oom, idx] : oomed) {
      oomed_now_[idx] = 0;
      JobState& job = jobs_[idx];
      ++job.outcome.oom_count;
      const bool rejected = job.outcome.oom_count > config_.max_oom_retries;
      if (rejected) {
        job.outcome.status = JobStatus::kRejectedOom;
        job.outcome.finish_time = first_oom;
      } else {
        queue_.push_back(idx);
      }
      if (telemetry::Enabled()) {
        auto& registry = telemetry::MetricsRegistry::Global();
        static telemetry::Counter* requeues = registry.GetCounter("scheduler.oom_requeues");
        static telemetry::Counter* rejects = registry.GetCounter("scheduler.rejected_oom");
        (rejected ? rejects : requeues)->Add();
        auto& tracer = telemetry::Tracer::Global();
        Json args = Json::Object();
        args.Set("job", job.outcome.id);
        args.Set("oom_count", job.outcome.oom_count);
        args.Set("sim_time", first_oom);
        tracer.ThreadTrack()->Instant(rejected ? "reject job (oom)" : "requeue job (oom)",
                                      telemetry::kCatScheduler, tracer.NowUs(), std::move(args));
      }
    }
  }

  // Samples fragmentation and runs scheduling passes until admissions stop generating events
  // (zero-op sources complete synchronously inside Admit).
  void BoundaryScheduleLoop() {
    for (;;) {
      SampleFrag();
      SchedulePass();
      std::vector<FleetEvent> events = CollectEvents();
      if (events.empty()) {
        break;
      }
      ProcessEvents(std::move(events));
    }
  }

  // Unwinds every live (active or parked) source of the job. Its ranks sit on distinct
  // devices, so each device engine aborts the tenant once, in rank order. The per-source claim
  // release runs through OnSourceAborted -> ReleaseRank.
  void AbortJob(size_t idx) {
    for (int dev : jobs_[idx].outcome.devices) {
      devices_[static_cast<size_t>(dev)].engine->AbortTenant(idx);
    }
  }

  // --- shared metric plumbing ---

  // Clamped utilization integration: windows advance devices past boundary event times, and
  // the integrand (physical_used) is piecewise-constant, so an already-covered span is a no-op.
  void AdvanceUtilTo(DeviceState& d, uint64_t t) {
    if (t <= d.last_util_time) {
      return;
    }
    d.util_integral += static_cast<double>(d.device->physical_used()) *
                       static_cast<double>(t - d.last_util_time);
    d.last_util_time = t;
  }

  // Sampled for every device in every decision window: the free total is O(1), and the largest
  // free range reads only the arena index's chunk summary (one entry per chunk of up to 128 free
  // ranges), never a walk over all free ranges.
  static double CurrentFrag(const DeviceState& d) {
    const uint64_t free_total = d.device->classic_free_total();
    if (free_total == 0) {
      return 0;
    }
    return 1.0 - static_cast<double>(d.device->classic_largest_free()) /
                     static_cast<double>(free_total);
  }

  void SampleFrag() {
    for (DeviceState& d : devices_) {
      d.frag_integral += d.frag_value * static_cast<double>(now_ - d.last_frag_time);
      d.frag_value = CurrentFrag(d);
      d.peak_frag = std::max(d.peak_frag, d.frag_value);
      d.last_frag_time = now_;
    }
  }

  // --- job lifecycle ---

  // An estimate is a pure function of the job's shape: every rank shares the policy's profile
  // seed, and the naive training estimate reads only the config's own seed. So the day's
  // (job, rank) inputs are deduped serially into slots in first-appearance order — identical
  // for every worker count — and each distinct slot is computed once over the pool.
  AdmissionEstimates ComputeAdmissionEstimates() {
    telemetry::ScopedSpan span(telemetry::kCatFleet, "admission estimates");
    const bool plan_aware = config_.policy == SchedulerPolicy::kPlanAware;
    AdmissionEstimates out;
    out.slots.resize(jobs_.size());
    std::vector<std::pair<const ClusterJob*, int>> inputs;  // (job, rank) per slot
    std::map<std::string, size_t> slot_of;
    size_t estimates = 0;
    for (size_t idx = 0; idx < jobs_.size(); ++idx) {
      const ClusterJob& spec = *jobs_[idx].spec;
      for (int rank = 0; rank < spec.ranks(); ++rank) {
        std::string key =
            spec.type == ClusterJobType::kTraining
                ? TrainingEstimateKey(spec, rank,
                                      plan_aware ? config_.profile_seed : spec.train.seed)
                : ServingEstimateKey(spec);
        const auto [it, inserted] = slot_of.emplace(std::move(key), inputs.size());
        if (inserted) {
          inputs.emplace_back(&spec, rank);
        }
        out.slots[idx].push_back(it->second);
        ++estimates;
      }
    }
    out.values.resize(inputs.size());
    pool_.ParallelFor(inputs.size(), [this, &inputs, &out](size_t s) {
      out.values[s] = ComputeEstimate(*inputs[s].first, inputs[s].second);
    });
    span.Arg("estimates", static_cast<unsigned long long>(estimates));
    span.Arg("distinct", static_cast<unsigned long long>(inputs.size()));
    return out;
  }

  // One rank's admission estimate under the fleet's policy.
  uint64_t ComputeEstimate(const ClusterJob& spec, int rank) const {
    const ModelConfig model = ModelByName(spec.model);
    const bool plan_aware = config_.policy == SchedulerPolicy::kPlanAware;
    if (spec.type == ClusterJobType::kTraining) {
      if (!plan_aware) {
        return NaiveTrainingEstimate(model, spec.train, rank);
      }
      TrainConfig per_rank = spec.train;
      per_rank.rank = rank;
      return PlanPredictedReservation(
          WorkloadBuilder(model, per_rank).Build(config_.profile_seed));
    }
    if (!plan_aware) {
      return NaiveServingEstimate(model, spec.engine);
    }
    return PlanPredictedReservation(
        BuildServeTrace(model, spec.scenario, spec.engine, config_.profile_seed).trace);
  }

  // Builds the job's run traces and copies its per-rank admission estimates out of the day's
  // table. Pure per-job work, safe to run in parallel across jobs.
  void BuildJobInputs(size_t idx, const AdmissionEstimates& estimates) {
    JobState& job = jobs_[idx];
    const ClusterJob& spec = *job.spec;
    job.model = ModelByName(spec.model);
    if (spec.type == ClusterJobType::kTraining) {
      TrainConfig per_rank = spec.train;
      for (int rank = 0; rank < spec.train.parallel.pp; ++rank) {
        per_rank.rank = rank;
        job.traces.push_back(WorkloadBuilder(job.model, per_rank).Build(spec.seed));
      }
    } else {
      ServeTraceResult run = BuildServeTrace(job.model, spec.scenario, spec.engine, spec.seed);
      job.serve_stats = std::move(run.stats);
      job.traces.push_back(std::move(run.trace));
    }
    for (size_t slot : estimates.slots[idx]) {
      job.estimates.push_back(estimates.values[slot]);
    }
    job.outcome.estimate = *std::max_element(job.estimates.begin(), job.estimates.end());
  }

  // Decides up-front rejection and enqueues. Called at the job's arrival boundary.
  void Submit(size_t idx) {
    JobState& job = jobs_[idx];
    if (job.traces.size() > devices_.size() || job.outcome.estimate > max_capacity_) {
      job.outcome.status = JobStatus::kRejectedUpfront;
      job.outcome.finish_time = now_;
      if (telemetry::Enabled()) {
        static telemetry::Counter* rejects =
            telemetry::MetricsRegistry::Global().GetCounter("scheduler.rejected_upfront");
        rejects->Add();
        auto& tracer = telemetry::Tracer::Global();
        Json args = Json::Object();
        args.Set("job", job.outcome.id);
        args.Set("estimate", job.outcome.estimate);
        args.Set("sim_time", now_);
        tracer.ThreadTrack()->Instant("reject job (upfront)", telemetry::kCatScheduler,
                                      tracer.NowUs(), std::move(args));
      }
      return;
    }
    queue_.push_back(idx);
  }

  std::vector<DeviceView> BuildViews() const {
    std::vector<DeviceView> views;
    views.reserve(devices_.size());
    for (size_t d = 0; d < devices_.size(); ++d) {
      DeviceView v;
      v.index = static_cast<int>(d);
      v.capacity = devices_[d].device->capacity();
      v.claimed = devices_[d].claimed;
      v.physical_used = devices_[d].device->physical_used();
      views.push_back(v);
    }
    return views;
  }

  // FCFS with backfill: scan the queue in order, admit every job that fits right now; restart
  // after each admission because claims changed. The view snapshot is loop-invariant within a
  // scan (claims only move on admission, which restarts it), so it is built once per scan —
  // at fleet scale rebuilding it per queued job dominated the whole run.
  void SchedulePass() {
    // Boundary processing is single-threaded, so the pass span lands on the driving thread's
    // track. Empty-queue passes are not traced — they would drown the decision windows.
    const bool traced = telemetry::Enabled() && !queue_.empty();
    const size_t queued_before = queue_.size();
    uint64_t t0 = 0;
    if (traced) {
      t0 = telemetry::Tracer::Global().NowUs();
    }
    size_t admitted = 0;
    bool progress = true;
    while (progress) {
      progress = false;
      const std::vector<DeviceView> views = BuildViews();
      for (auto it = queue_.begin(); it != queue_.end(); ++it) {
        JobState& job = jobs_[*it];
        auto placed = scheduler_->Place(job.estimates, views);
        if (placed.has_value()) {
          Admit(*it, *placed);
          queue_.erase(it);
          progress = true;
          ++admitted;
          break;
        }
      }
    }
    if (traced) {
      static telemetry::Counter* passes =
          telemetry::MetricsRegistry::Global().GetCounter("scheduler.passes");
      passes->Add();
      auto& tracer = telemetry::Tracer::Global();
      const uint64_t t1 = tracer.NowUs();
      Json args = Json::Object();
      args.Set("queued", static_cast<unsigned long long>(queued_before));
      args.Set("admitted", static_cast<unsigned long long>(admitted));
      args.Set("sim_time", now_);
      tracer.ThreadTrack()->Complete("schedule pass", telemetry::kCatScheduler, t0,
                                     t1 > t0 ? t1 - t0 : 0, std::move(args));
    }
  }

  // Hands every rank of the job to its device's engine; the ranks form one tenant gang.
  void Admit(size_t idx, const std::vector<int>& chosen) {
    JobState& job = jobs_[idx];
    ++job.outcome.attempts;
    if (telemetry::Enabled()) {
      static telemetry::Counter* admissions =
          telemetry::MetricsRegistry::Global().GetCounter("scheduler.admissions");
      admissions->Add();
      auto& tracer = telemetry::Tracer::Global();
      Json args = Json::Object();
      args.Set("job", job.outcome.id);
      args.Set("ranks", static_cast<unsigned long long>(job.traces.size()));
      args.Set("attempt", job.outcome.attempts);
      args.Set("sim_time", now_);
      tracer.ThreadTrack()->Instant("admit job", telemetry::kCatScheduler, tracer.NowUs(),
                                    std::move(args));
    }
    if (job.outcome.attempts == 1) {
      job.outcome.admit_time = now_;
      job.outcome.queue_wait = static_cast<double>(now_ - job.outcome.submit_time);
    } else {
      ++requeue_admissions_;
    }
    job.outcome.devices = chosen;
    job.live_ranks = static_cast<int>(job.traces.size());
    for (size_t rank = 0; rank < job.traces.size(); ++rank) {
      DeviceState& dev = devices_[static_cast<size_t>(chosen[rank])];
      dev.claimed += job.estimates[rank];
      ++dev.placements;

      SourceInfo info;
      info.job = idx;
      info.rank = static_cast<int>(rank);
      info.estimate = job.estimates[rank];
      dev.sources.push_back(info);  // before AddSource: a zero-op source completes inside it

      ReplaySource src;
      src.trace = job.traces[rank].Cursor();
      src.alloc = dev.alloc.get();
      src.start = now_;
      src.iterations = job.spec->type == ClusterJobType::kTraining ? job.spec->iterations : 1;
      src.tenant = idx;
      const size_t sid = dev.engine->AddSource(src);
      STALLOC_CHECK_EQ(sid, dev.sources.size() - 1);
    }
  }

  // A rank finished or was unwound: release its claim and record its peak.
  void ReleaseRank(int device, size_t source, uint64_t t) {
    DeviceState& dev = devices_[static_cast<size_t>(device)];
    SourceInfo& info = dev.sources[source];
    STALLOC_CHECK(!info.released);
    info.released = true;
    AdvanceUtilTo(dev, std::max(now_, t));
    dev.claimed -= info.estimate;
    JobState& job = jobs_[info.job];
    job.outcome.actual_peak =
        std::max(job.outcome.actual_peak, dev.engine->progress(source).peak_live_bytes);
    --job.live_ranks;
  }

  void FinishRank(int device, size_t source) {
    ReleaseRank(device, source, now_);
    const size_t idx = devices_[static_cast<size_t>(device)].sources[source].job;
    JobState& job = jobs_[idx];
    if (job.live_ranks > 0 || oomed_now_[idx] != 0) {
      return;  // more ranks outstanding, or the tenant OOMed at this very boundary
    }
    job.outcome.status = JobStatus::kCompleted;
    job.outcome.finish_time = now_;
    if (job.spec->type == ClusterJobType::kServing) {
      // Cluster queue wait delays every request of the instance: convert ticks to engine
      // steps through the trace's own tick density and fold it into the latency model.
      const double ticks_per_step =
          job.serve_stats.engine_steps > 0
              ? static_cast<double>(job.traces[0].end_time()) /
                    static_cast<double>(job.serve_stats.engine_steps)
              : 1.0;
      // The latency model is an A800 at the default SLO slack.
      ServeSloOptions slo;
      slo.extra_latency_steps = job.outcome.queue_wait / ticks_per_step;
      job.outcome.slo_attainment =
          EstimateServeSlo(job.model, GpuSpec::A800(), job.serve_stats, slo).attainment;
    }
  }

  ClusterResult Finalize(const Stopwatch& timer) {
    for (const DeviceState& d : devices_) {
      now_ = std::max(now_, d.engine->now());
    }
    for (DeviceState& d : devices_) {
      AdvanceUtilTo(d, now_);
    }
    SampleFrag();

    ClusterResult result;
    result.policy = config_.policy;
    result.allocator = config_.allocator;
    result.num_jobs = jobs_.size();
    result.makespan = now_;
    result.requeues = requeue_admissions_;

    double util_sum = 0;
    double capacity_ticks = 0;
    for (const DeviceState& d : devices_) {
      result.oom_events += d.engine->result().oom_events;
      result.ops_replayed += d.engine->result().ops_replayed;
      DeviceMetrics m;
      m.capacity = d.device->capacity();
      m.peak_used = d.peak_used;
      if (now_ > 0) {
        m.avg_utilization = d.util_integral / (static_cast<double>(m.capacity) *
                                               static_cast<double>(now_));
        m.avg_external_frag = d.frag_integral / static_cast<double>(now_);
      }
      m.peak_external_frag = d.peak_frag;
      m.placements = d.placements;
      m.oom_events = d.alloc->stats().num_oom;
      m.memory_efficiency = d.alloc->stats().MemoryEfficiency();
      m.bytes_moved = d.alloc->stats().bytes_allocated_total;
      m.device_api_calls = d.device->counters().TotalCalls();
      m.device_api_cost_us = d.device->counters().total_cost_us;
      util_sum += d.util_integral;
      capacity_ticks += static_cast<double>(m.capacity) * static_cast<double>(now_);
      result.devices.push_back(m);
    }
    result.fleet_avg_utilization = capacity_ticks > 0 ? util_sum / capacity_ticks : 0;

    std::vector<double> waits;
    double slo_sum = 0;
    for (JobState& job : jobs_) {
      const JobOutcome& o = job.outcome;
      if (o.attempts > 0) {
        ++result.admitted;
        waits.push_back(o.queue_wait);
      }
      switch (o.status) {
        case JobStatus::kCompleted:
          ++result.completed;
          break;
        case JobStatus::kRejectedUpfront:
          ++result.rejected_upfront;
          break;
        case JobStatus::kRejectedOom:
          ++result.rejected_oom;
          break;
        case JobStatus::kStarved:
          ++result.starved;
          break;
        case JobStatus::kQueued:
          break;
      }
      if (o.type == ClusterJobType::kServing) {
        ++result.serving_jobs;
        // A serving instance that never ran served nobody: it attains 0 of its SLO.
        slo_sum += o.status == JobStatus::kCompleted && o.slo_attainment >= 0
                       ? o.slo_attainment
                       : 0.0;
      }
      result.jobs.push_back(std::move(job.outcome));
    }
    result.queue_wait_p50 = Percentile(waits, 0.50);
    result.queue_wait_p90 = Percentile(waits, 0.90);
    result.queue_wait_p99 = Percentile(waits, 0.99);
    result.serve_slo_attainment =
        result.serving_jobs > 0 ? slo_sum / static_cast<double>(result.serving_jobs) : 1.0;
    result.wall_seconds = timer.ElapsedSeconds();
    return result;
  }

  const FleetConfig& config_;
  std::unique_ptr<Scheduler> scheduler_;
  WorkerPool pool_;
  std::vector<DeviceState> devices_;
  std::vector<JobState> jobs_;
  std::deque<size_t> queue_;        // indices into jobs_, FCFS order
  std::vector<char> oomed_now_;     // per-job "unwound at this boundary" marks
  uint64_t max_capacity_ = 0;
  uint64_t now_ = 0;
  uint64_t requeue_admissions_ = 0;
};

void DeviceObserver::BeforeOp(ReplayEngine& engine, const ReplayOpView& op) {
  (void)engine;
  sim_->AdvanceUtilTo(sim_->devices_[static_cast<size_t>(device_)], op.time);
}

void DeviceObserver::AfterMalloc(ReplayEngine& engine, const ReplayOpView& op, uint64_t addr) {
  (void)engine;
  (void)op;
  (void)addr;
  DeviceState& dev = sim_->devices_[static_cast<size_t>(device_)];
  dev.peak_used = std::max(dev.peak_used, dev.device->physical_used());
}

void DeviceObserver::AfterFree(ReplayEngine& engine, const ReplayOpView& op, uint64_t addr) {
  (void)engine;
  (void)op;
  (void)addr;
  DeviceState& dev = sim_->devices_[static_cast<size_t>(device_)];
  dev.peak_used = std::max(dev.peak_used, dev.device->physical_used());
}

OomAction DeviceObserver::OnOom(ReplayEngine& engine, const ReplayOpView& op) {
  (void)engine;
  Emit(kOomEvent, op.source, op.time);
  return OomAction::kParkSource;  // the unwind decision belongs to the boundary
}

void DeviceObserver::OnSourceDone(ReplayEngine& engine, size_t source, uint64_t now) {
  (void)engine;
  Emit(kDoneEvent, source, now);
}

void DeviceObserver::OnSourceAborted(ReplayEngine& engine, size_t source, uint64_t now) {
  (void)engine;
  // Only reachable from the coordinator's AbortTenant at a boundary — single-threaded.
  sim_->ReleaseRank(device_, source, now);
}

void DeviceObserver::Emit(uint8_t kind, size_t source, uint64_t time) {
  DeviceState& dev = sim_->devices_[static_cast<size_t>(device_)];
  const SourceInfo& info = dev.sources[source];
  FleetEvent e;
  e.time = time;
  e.job = info.job;
  e.kind = kind;
  e.rank = info.rank;
  e.device = device_;
  e.source = source;
  dev.events.push_back(e);
}

}  // namespace

const char* JobStatusName(JobStatus status) {
  switch (status) {
    case JobStatus::kQueued:
      return "queued";
    case JobStatus::kCompleted:
      return "completed";
    case JobStatus::kRejectedUpfront:
      return "rejected-upfront";
    case JobStatus::kRejectedOom:
      return "rejected-oom";
    case JobStatus::kStarved:
      return "starved";
  }
  return "?";
}

std::string ClusterResult::Summary() const {
  return StrFormat(
      "policy=%s alloc=%s jobs=%llu completed=%llu rejected(up=%llu oom=%llu) starved=%llu "
      "ooms=%llu util=%.1f%% slo=%.2f wait_p50=%.0f p99=%.0f",
      SchedulerPolicyName(policy), allocator.c_str(),
      static_cast<unsigned long long>(num_jobs), static_cast<unsigned long long>(completed),
      static_cast<unsigned long long>(rejected_upfront),
      static_cast<unsigned long long>(rejected_oom), static_cast<unsigned long long>(starved),
      static_cast<unsigned long long>(oom_events), fleet_avg_utilization * 100.0,
      serve_slo_attainment, queue_wait_p50, queue_wait_p99);
}

namespace {

// FNV-1a 64-bit over a canonical field walk. Doubles are hashed by bit pattern, so the digest
// detects any FP divergence, not just "visibly different" values. The offset basis below,
// 1469598103934665603, is not FNV-1a's standard 14695981039346656037 (the one
// PlacementDigestObserver uses): it is one digit short. It stays, because every pinned cluster
// digest depends on it: the golden d6986ffe96219217 in the tests and CI's d16a7e567c65d3b4 and
// 67562a2eefc01221.
class ResultHasher {
 public:
  void Mix(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (v >> (8 * i)) & 0xffu;
      hash_ *= 1099511628211ull;
    }
  }
  void MixDouble(double d) {
    uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(d), "double must be 64-bit");
    std::memcpy(&bits, &d, sizeof(bits));
    Mix(bits);
  }
  std::string Hex() const {
    static const char* kDigits = "0123456789abcdef";
    std::string out(16, '0');
    for (int i = 0; i < 16; ++i) {
      out[static_cast<size_t>(i)] = kDigits[(hash_ >> (60 - 4 * i)) & 0xfu];
    }
    return out;
  }

 private:
  uint64_t hash_ = 1469598103934665603ull;
};

}  // namespace

std::string ClusterResult::Digest() const {
  ResultHasher h;
  h.Mix(static_cast<uint64_t>(policy));
  // The allocator enters as its registry position: built-in kinds register in a fixed order,
  // so their positions (and the pinned digests) are stable.
  const auto& entries = AllocatorRegistry::Global().entries();
  uint64_t position = 0;
  while (position < entries.size() && entries[position].name != allocator) {
    ++position;
  }
  h.Mix(position);
  h.Mix(num_jobs);
  h.Mix(admitted);
  h.Mix(completed);
  h.Mix(rejected_upfront);
  h.Mix(rejected_oom);
  h.Mix(starved);
  h.Mix(oom_events);
  h.Mix(requeues);
  h.Mix(makespan);
  h.MixDouble(queue_wait_p50);
  h.MixDouble(queue_wait_p90);
  h.MixDouble(queue_wait_p99);
  h.MixDouble(fleet_avg_utilization);
  h.Mix(serving_jobs);
  h.MixDouble(serve_slo_attainment);
  h.Mix(ops_replayed);
  h.Mix(devices.size());
  for (const DeviceMetrics& m : devices) {
    h.Mix(m.capacity);
    h.Mix(m.peak_used);
    h.MixDouble(m.avg_utilization);
    h.MixDouble(m.avg_external_frag);
    h.MixDouble(m.peak_external_frag);
    h.Mix(m.placements);
    h.Mix(m.oom_events);
    h.MixDouble(m.memory_efficiency);
    h.Mix(m.bytes_moved);
    h.Mix(m.device_api_calls);
    h.MixDouble(m.device_api_cost_us);
  }
  h.Mix(jobs.size());
  for (const JobOutcome& o : jobs) {
    h.Mix(o.id);
    h.Mix(static_cast<uint64_t>(o.type));
    h.Mix(static_cast<uint64_t>(o.status));
    h.Mix(o.submit_time);
    h.Mix(o.admit_time);
    h.Mix(o.finish_time);
    h.Mix(static_cast<uint64_t>(o.attempts));
    h.Mix(static_cast<uint64_t>(o.oom_count));
    h.Mix(o.estimate);
    h.Mix(o.actual_peak);
    h.Mix(o.devices.size());
    for (int d : o.devices) {
      h.Mix(static_cast<uint64_t>(d));
    }
    h.MixDouble(o.queue_wait);
    h.MixDouble(o.slo_attainment);
  }
  return h.Hex();
}

ClusterResult RunCluster(const FleetConfig& config, const std::vector<ClusterJob>& jobs) {
  // Arrival order must be total so every execution mode sees the same queue: nondecreasing
  // (submit_time, id). Jobs tying on both are processed in vector order, which is then the
  // caller's explicit choice.
  for (size_t i = 1; i < jobs.size(); ++i) {
    STALLOC_CHECK(std::tie(jobs[i - 1].submit_time, jobs[i - 1].id) <=
                      std::tie(jobs[i].submit_time, jobs[i].id),
                  << "cluster jobs must be sorted by (submit_time, id)");
  }
  return ClusterSim(config, jobs).Run();
}

}  // namespace stalloc
