// MetricsRegistry: process-wide string-keyed counters, gauges and fixed-bucket histograms.
//
// Design points:
//   * updates are single relaxed atomic RMWs — safe from any thread, including the WorkerPool
//     threads driving parallel fleet replay, with no lock on the hot path;
//   * instruments are never deallocated once registered (Reset() zeroes values in place), so
//     call sites may cache the returned Counter*/Gauge*/Histogram* in a function-local static
//     and skip the registry map lookup on every subsequent op;
//   * the snapshot serializes through the same Json layer as every other report
//     (`stalloc_run --metrics out.json`), names sorted for stable diffs.
//
// Naming convention: "<subsystem>.<what>[_<unit>]" — e.g. "alloc.malloc_latency_us",
// "scheduler.admissions", "replay.oom_events". Units in the suffix, dots for the hierarchy.

#ifndef SRC_TELEMETRY_METRICS_H_
#define SRC_TELEMETRY_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/api/report.h"

namespace stalloc {
namespace telemetry {

class Counter {
 public:
  void Add(uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  friend class MetricsRegistry;
  void Reset() { value_.store(0, std::memory_order_relaxed); }
  std::atomic<uint64_t> value_{0};
};

class Gauge {
 public:
  void Set(int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void Add(int64_t n) { value_.fetch_add(n, std::memory_order_relaxed); }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  friend class MetricsRegistry;
  void Reset() { value_.store(0, std::memory_order_relaxed); }
  std::atomic<int64_t> value_{0};
};

// Fixed-bucket histogram: `bounds` are ascending inclusive upper bounds; one implicit overflow
// bucket catches everything above the last bound. Record() is two relaxed RMWs plus a CAS loop
// for the double-valued sum.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  void Record(double v);

  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const;
  uint64_t BucketCount(size_t i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }
  const std::vector<double>& bounds() const { return bounds_; }

 private:
  friend class MetricsRegistry;
  void Reset();

  std::vector<double> bounds_;
  std::unique_ptr<std::atomic<uint64_t>[]> buckets_;  // bounds_.size() + 1 (overflow last)
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_bits_{0};  // bit-cast double, CAS-accumulated
};

// Default bucket bounds for microsecond latency histograms (sub-µs ops up to ms-scale tails).
const std::vector<double>& DefaultLatencyBoundsUs();

class MetricsRegistry {
 public:
  // The process-wide registry used by every emission point in the tree.
  static MetricsRegistry& Global();

  // Find-or-create. The returned pointer is valid for the life of the process.
  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  Histogram* GetHistogram(const std::string& name,
                          const std::vector<double>& bounds = DefaultLatencyBoundsUs());

  // Snapshot of every instrument:
  //   {"counters": {name: value, ...}, "gauges": {...},
  //    "histograms": {name: {"count", "sum", "buckets": [{"le", "count"}, ...]}}}
  // Names sorted; the last bucket's "le" is the string "+Inf".
  Json ToJson() const;

  // Zeroes every value in place; registered instruments (and cached pointers) stay valid.
  void Reset();

 private:
  mutable std::mutex mu_;
  // std::map for stable node addresses and sorted iteration.
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace telemetry
}  // namespace stalloc

#endif  // SRC_TELEMETRY_METRICS_H_
