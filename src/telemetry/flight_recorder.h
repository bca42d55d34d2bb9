// OOM flight recorder: the last N allocator operations plus a fragmentation snapshot,
// captured at the moment a Malloc fails, so post-mortems need no re-run.
//
// Each AllocatorBase keeps a FlightRing (lazily created the first time telemetry is enabled)
// that its own driving thread appends to — single-writer, no locking, a few stores per op.
// When an allocation fails, the allocator assembles an OomReport (failing size, occupancy,
// cumulative stats, the ring's recent ops) and hands it to the process-wide FlightRecorder,
// which is mutex-guarded because fleet devices OOM concurrently. Session::RunOne drains the recorder
// after each run and serializes the reports into the RunRecord envelope ("oom_flight").

#ifndef SRC_TELEMETRY_FLIGHT_RECORDER_H_
#define SRC_TELEMETRY_FLIGHT_RECORDER_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace stalloc {
namespace telemetry {

struct FlightOp {
  enum class Kind : uint8_t { kMalloc, kFree, kOom };
  Kind kind = Kind::kMalloc;
  uint64_t size = 0;             // requested bytes (freed bytes for kFree)
  uint64_t op_index = 0;         // num_mallocs + num_frees before this op
  uint64_t allocated_after = 0;  // live requested bytes after the op
  uint64_t reserved_after = 0;   // reserved bytes after the op
  double latency_us = 0;         // host wall time inside the op (0 when untimed)
};

const char* FlightOpKindName(FlightOp::Kind kind);

// Fixed-size ring of the most recent ops. Single-writer (the owning allocator's thread).
class FlightRing {
 public:
  explicit FlightRing(size_t capacity = kDefaultCapacity);

  void Push(const FlightOp& op);

  // Held ops, oldest first.
  std::vector<FlightOp> Snapshot() const;

  uint64_t total() const { return total_; }

  static constexpr size_t kDefaultCapacity = 64;

 private:
  size_t capacity_;
  std::vector<FlightOp> ring_;
  size_t next_ = 0;
  uint64_t total_ = 0;
};

// Everything worth knowing about one OOM, captured at the failure point.
struct OomReport {
  std::string allocator;     // Allocator::name() at failure
  uint64_t ts_us = 0;        // tracer clock at capture (host time)
  uint64_t failed_size = 0;  // bytes the failing Malloc asked for
  uint64_t allocated = 0;    // live requested bytes at failure
  uint64_t reserved = 0;     // reserved bytes at failure
  uint64_t num_mallocs = 0;
  uint64_t num_frees = 0;
  uint64_t num_oom = 0;          // including this one
  double fragmentation = 0;      // 1 - allocated/reserved at failure
  std::vector<FlightOp> recent;  // last N ops, oldest first
};

// Process-wide collector of OomReports. Thread-safe; bounded (oldest reports evicted past
// the limit so a thrashing fleet cannot grow memory without bound).
class FlightRecorder {
 public:
  static FlightRecorder& Global();

  void Report(OomReport report);

  // Moves out every pending report (oldest first) and clears the recorder.
  std::vector<OomReport> Drain();

  size_t pending() const;
  // Reports evicted because the pending list hit the limit.
  uint64_t evicted() const;

  void SetLimit(size_t max_reports);

 private:
  mutable std::mutex mu_;
  std::vector<OomReport> reports_;
  size_t limit_ = 32;
  uint64_t evicted_ = 0;
};

}  // namespace telemetry
}  // namespace stalloc

#endif  // SRC_TELEMETRY_FLIGHT_RECORDER_H_
