// Measurement harness shared by the perfbench workloads: pass timing, layer spans taken from
// the benchmark's own code around calls into the simulator, output checks, and the result
// line. Nothing here reads a clock inside the simulator: telemetry stays disabled, because its
// per-op clock reads inside AllocatorBase would distort the replay layers being measured.

#ifndef PERFBENCH_SRC_HARNESS_H_
#define PERFBENCH_SRC_HARNESS_H_

#include <cstdint>
#include <map>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/common/stopwatch.h"
#include "src/driver/replay.h"
#include "src/gpu/sim_device.h"

namespace perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 10;
  bool trace = false;  // report per-layer metrics from traced passes instead of end-to-end
  bool smoke = false;  // tiny sizes: exercises every code path in seconds
  std::string scratch_dir;  // where generated input files go (inside the checkout)
};

// The six allocator kinds that replay without an offline plan, in registry order.
const std::vector<std::string>& UnplannedKinds();

double Median(std::vector<double> values);

// num / den, or 0 when nothing was counted.
inline double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

// The process's peak resident set (VmHWM), in bytes.
uint64_t PeakRssBytes();

// Runs `pass` back to back, at least once, until `seconds` of wall time have passed.
template <typename F>
void RepeatFor(double seconds, F&& pass) {
  stalloc::Stopwatch clock;
  do {
    pass();
  } while (clock.ElapsedSeconds() < seconds);
}

// Host milliseconds per layer within one traced pass. Each span wraps one call into a layer's
// public functions, made from the benchmark's own code.
class LayerClock {
 public:
  template <typename F>
  decltype(auto) Time(const std::string& layer, F&& call) {
    stalloc::Stopwatch clock;
    if constexpr (std::is_void_v<std::invoke_result_t<F>>) {
      call();
      ms_[layer] += clock.ElapsedMillis();
    } else {
      auto result = call();
      ms_[layer] += clock.ElapsedMillis();
      return result;
    }
  }

  // 0 for a layer this pass never entered.
  double Ms(const std::string& layer) const;

 private:
  std::map<std::string, double> ms_;
};

// One run's metrics and checks. Every metric is recorded as per-pass samples and reported as
// their median; the result line carries the end-to-end metrics (untraced run) or the
// per-layer metrics (traced run), each named in BENCHMARK.json with its unit.
class Report {
 public:
  explicit Report(const Args& args) : args_(args) {}

  // Records one output check: counts toward attempted / failed and error_rate.
  void Check(bool ok, const std::string& what);

  // Adds a sample of a metric named in the end-to-end or per-layer table.
  void Sample(const std::string& name, double value);

  // Prints the end-to-end summary and the JSON result line; returns the process exit code.
  int Finish();

 private:
  bool HasSamples(const std::string& name) const;

  const Args& args_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  std::map<std::string, std::vector<double>> samples_;
};

// Metric names and units, the same lists BENCHMARK.json declares.
struct MetricSpec {
  std::string name;
  std::string unit;
};
const std::vector<MetricSpec>& EndToEndMetrics();
const std::vector<MetricSpec>& PerLayerMetrics();

// Host time and device outcome of one allocator kind's replays within a traced pass.
struct KindTally {
  double ms = 0;
  uint64_t ops = 0;
  uint64_t api_calls = 0;
  uint64_t release_calls = 0;
  double api_cost_us = 0;
  double frag_sum = 0;  // sum over replays of 1 - Ma/Mr
  int replays = 0;

  double NsPerOp() const { return ops == 0 ? 0 : ms * 1e6 / static_cast<double>(ops); }
};

// Replays `source` (an owned Trace or an mmap'd TraceView) into `alloc`, timing only the
// ReplayTrace call, and adds the outcome to `tally`. `device` is null for the stub allocators.
template <typename Source>
stalloc::ReplayResult TimedReplay(const Source& source, stalloc::Allocator* alloc,
                                  const stalloc::SimDevice* device, KindTally* tally) {
  stalloc::Stopwatch clock;
  stalloc::ReplayResult r = stalloc::ReplayTrace(source, alloc);
  tally->ms += clock.ElapsedMillis();
  tally->ops += r.num_mallocs + r.num_frees;
  tally->frag_sum += 1.0 - r.memory_efficiency;
  ++tally->replays;
  if (device != nullptr) {
    const stalloc::DeviceApiCounters& c = device->counters();
    tally->api_calls += c.TotalCalls();
    tally->release_calls += c.cuda_free + c.mem_unmap + c.mem_release;
    tally->api_cost_us += c.total_cost_us;
  }
  return r;
}

// Samples replay.ns_per_op.<kind>, alloc.<kind>.frag_ratio and gpu.<kind>.* for every tallied
// kind, and — when both stubs ran — the ledger and per-kind policy split:
//   replay.ledger_ns_per_op        = base-null - raw-null
//   alloc.policy_ns_per_op.<kind>  = <kind> - base-null
void SampleReplaySplit(const std::map<std::string, KindTally>& tallies, Report* report);

// Samples the traced-run meta metrics of one traced pass that took `traced_s`:
//   traced.overhead_pct      the traced pass against the untraced pass before it (`run_s`);
//   traced.unattributed_pct  the share of `run_s` not covered by the layer spans, `spans_ms`,
//                            that decompose it.
void SampleTracedMeta(double traced_s, double run_s, double spans_ms, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_HARNESS_H_
