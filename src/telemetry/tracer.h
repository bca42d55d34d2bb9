// Tracer: span/event tracing into per-thread lock-free ring buffers, exported as
// Chrome-trace/Perfetto-compatible JSON (chrome://tracing, https://ui.perfetto.dev).
//
// Writer model — single-writer rings, keyed by thread:
//   every emitting thread owns exactly one TraceTrack (created on first use, cached in a
//   thread_local), so pushes are plain stores with no atomics or locks. Subsystem identity
//   travels in the event's category ("session", "scheduler", "shard", "replay", "alloc",
//   "planner", "fleet") rather than in track identity, because the fleet migrates work across
//   WorkerPool threads: one device's windows may run on different threads over time, and
//   plan-aware admission synthesizes plans on pool threads. Perfetto groups by category fine.
//
// Ring semantics: each track keeps the most recent `capacity` events; older events are
// overwritten and counted in dropped(). A post-mortem wants the newest window, not the oldest.
//
// Export is NOT concurrent-safe with emission — call ChromeTraceJson() after runs complete
// (worker pools joined). The pool barrier publishes ring contents to the exporting thread.
//
// Time base: microseconds since tracer construction (steady clock). Sim-time values belong in
// event args, not the ts field — traces show host execution, args carry simulator context.

#ifndef SRC_TELEMETRY_TRACER_H_
#define SRC_TELEMETRY_TRACER_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "src/api/report.h"
#include "src/telemetry/telemetry.h"

namespace stalloc {
namespace telemetry {

// Subsystem categories used across the tree (the Chrome-trace "cat" field). Constants rather
// than free strings so tests can enumerate coverage.
inline constexpr const char* kCatSession = "session";
inline constexpr const char* kCatScheduler = "scheduler";
inline constexpr const char* kCatShard = "shard";
inline constexpr const char* kCatReplay = "replay";
inline constexpr const char* kCatAlloc = "alloc";
inline constexpr const char* kCatPlanner = "planner";
inline constexpr const char* kCatFleet = "fleet";

struct TraceEvent {
  enum class Phase : uint8_t {
    kComplete,  // "X": a span with ts + dur
    kInstant,   // "i": a point event
    kCounter,   // "C": sampled values over time (args carry the series)
  };
  Phase phase = Phase::kInstant;
  std::string name;
  const char* category = "";  // one of the kCat* constants (static storage)
  uint64_t ts_us = 0;
  uint64_t dur_us = 0;  // kComplete only
  Json args;            // null when absent
};

// One thread's ring buffer. Only the owning thread may push; the Tracer reads it at export
// time after emitters have quiesced.
class TraceTrack {
 public:
  void Complete(std::string name, const char* category, uint64_t ts_us, uint64_t dur_us,
                Json args = Json());
  void Instant(std::string name, const char* category, uint64_t ts_us, Json args = Json());
  void CounterEvent(std::string name, const char* category, uint64_t ts_us, Json values);

  // Events currently held (<= capacity).
  size_t size() const { return total_ < capacity_ ? static_cast<size_t>(total_) : capacity_; }
  // Events overwritten by ring wraparound.
  uint64_t dropped() const { return total_ < capacity_ ? 0 : total_ - capacity_; }
  uint64_t total() const { return total_; }
  int tid() const { return tid_; }
  const std::string& thread_name() const { return thread_name_; }

 private:
  friend class Tracer;
  TraceTrack(int tid, std::string thread_name, size_t capacity);
  void Push(TraceEvent e);
  // Held events, oldest first.
  std::vector<const TraceEvent*> InOrder() const;
  void Clear();

  int tid_;
  std::string thread_name_;
  size_t capacity_;
  std::vector<TraceEvent> ring_;
  size_t next_ = 0;      // ring write cursor
  uint64_t total_ = 0;   // lifetime pushes
};

class Tracer {
 public:
  // The process-wide tracer used by every emission point in the tree.
  static Tracer& Global();

  // The calling thread's track, created (under a registration lock) on first use. Subsequent
  // calls are a thread_local read. The pointer stays valid for the life of the process.
  TraceTrack* ThreadTrack();

  // Names the calling thread's track in the exported trace ("worker 3", "main").
  void SetThreadName(const std::string& name);

  // Microseconds since tracer construction (steady clock).
  uint64_t NowUs() const;

  // Ring capacity (events per track) for tracks created after the call. Default 64Ki.
  void SetCapacity(size_t events_per_track);

  // Full Chrome-trace document: {"traceEvents": [...]} with per-track thread_name metadata
  // and a "droppedEvents" count. Call only after emitting threads have quiesced.
  Json ChromeTraceJson() const;

  // Resets every ring and drop counter in place (tracks persist; for tests).
  void Clear();

  // Sum of dropped() across tracks.
  uint64_t DroppedEvents() const;

  // Publishes the tracer's own health into the MetricsRegistry as gauges: total dropped
  // events ("trace.dropped_events"), track count ("trace.tracks"), and per-track ring
  // occupancy and drops ("trace.ring_used.<thread>", "trace.ring_dropped.<thread>") — so
  // trace truncation is visible in --metrics output, not only in the trace file itself.
  // Same quiesce requirement as ChromeTraceJson(): call after emitters have stopped.
  void PublishMetrics() const;

 private:
  Tracer();

  mutable std::mutex mu_;
  std::vector<std::unique_ptr<TraceTrack>> tracks_;
  size_t capacity_ = 1 << 16;
  std::chrono::steady_clock::time_point epoch_;
};

// RAII complete-span. Inert (and allocation-free) when telemetry is disabled at construction;
// otherwise records [construction, destruction) on the constructing thread's track. Construct
// and destroy on the same thread.
class ScopedSpan {
 public:
  ScopedSpan() = default;
  ScopedSpan(const char* category, std::string name, Json args = Json()) {
    if (Enabled()) Arm(category, std::move(name), std::move(args));
  }
  ~ScopedSpan() { Finish(); }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  // Attaches/overwrites an args key while the span is open (cheap no-op when inert).
  void Arg(const std::string& key, Json value);

  // Ends the span early (destructor becomes a no-op).
  void Finish();

 private:
  void Arm(const char* category, std::string name, Json args);

  TraceTrack* track_ = nullptr;
  const char* category_ = "";
  std::string name_;
  uint64_t start_us_ = 0;
  Json args_;
};

}  // namespace telemetry
}  // namespace stalloc

#endif  // SRC_TELEMETRY_TRACER_H_
