#include "src/cluster/fleet.h"

#include <cstdint>
#include <cstring>
#include <string>
#include <tuple>
#include <vector>

#include "src/cluster/sharded_fleet.h"
#include "src/common/check.h"
#include "src/common/table.h"

namespace stalloc {

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
// detects any FP divergence, not just "visibly different" values.
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
  return RunShardedCluster(config, jobs);
}

}  // namespace stalloc
