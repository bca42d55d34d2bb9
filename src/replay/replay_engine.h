// ReplayEngine: the single streaming replay core behind every run in this repository.
//
// ReplayTrace (one device: a training iteration, a serving day or a replayed trace, as
// Session runs them) and the sharded cluster fleet both replay through this one loop. The
// engine consumes a merged, timestamp-ordered stream of per-tenant trace ops (each *source* is
// one trace replayed `iterations` times back-to-back against one Allocator) and reports to an
// optional ReplayObserver. A failed malloc either aborts the run (the default: a training
// iteration that OOMs crashes) or parks the failing source until an external coordinator
// unwinds its tenant.
//
// Determinism: ops are processed in global (time, source-id) order; within one source, ops
// follow TraceOp order (frees before mallocs at equal ticks).

#ifndef SRC_REPLAY_REPLAY_ENGINE_H_
#define SRC_REPLAY_REPLAY_ENGINE_H_

#include <cstdint>
#include <map>
#include <queue>
#include <tuple>
#include <vector>

#include "src/allocators/allocator.h"
#include "src/trace/trace.h"

namespace stalloc {

class ReplayEngine;

// One op stream feeding the engine: a trace replayed `iterations` times back-to-back into
// `alloc`, offset to global tick `start`. `trace` is the cursor of an owned Trace or of an mmap'd
// v2 TraceView; the engine reads both the same way, so decisions are bit-identical. Sources
// sharing a `tenant` id form one gang (e.g. the pipeline ranks of a training job): an
// OOM-triggered unwind covers the whole tenant.
struct ReplaySource {
  TraceCursor trace;
  Allocator* alloc = nullptr;
  uint64_t start = 0;     // global tick of the source's local time 0
  int iterations = 1;     // back-to-back replays of the trace
  uint64_t period = 0;    // tick distance between iterations; 0 = the trace's end_time()
  uint64_t tenant = 0;    // gang id for OOM unwinding (defaults to one tenant per AddSource)
};

// Per-source replay state, exposed to observers and drivers.
struct ReplaySourceProgress {
  bool active = false;   // currently scheduled
  bool done = false;     // replayed every op of every iteration
  bool aborted = false;  // unwound: by AbortTenant, or by Run() cleanup of an unfinished source
  bool parked = false;   // OOMed and descheduled, live blocks still held (OomAction::kParkSource)
  uint64_t ops_replayed = 0;
  uint64_t num_mallocs = 0;      // attempted mallocs, including the failed one
  uint64_t num_frees = 0;        // successful replayed frees (unwinds not counted)
  uint64_t live_bytes = 0;       // requested bytes currently held by this source
  uint64_t peak_live_bytes = 0;  // high-water mark of live_bytes
};

// Aggregate outcome of a Run() (or of externally Step()-driven replay).
struct ReplayEngineResult {
  bool oom = false;      // at least one malloc failed
  bool aborted = false;  // an observer stopped the run (OomAction::kAbortRun)
  uint64_t first_failed_event = 0;  // event id of the first failed malloc (valid when oom)
  uint64_t oom_events = 0;          // failed mallocs across all sources
  uint64_t num_mallocs = 0;         // attempted mallocs across all sources
  uint64_t num_frees = 0;           // successful replayed frees
  uint64_t ops_replayed = 0;
  uint64_t end_time = 0;            // engine clock when the stream drained
  double wall_seconds = 0;          // host time spent inside Run()
};

// The view of one op handed to observers: the event's id and requested size, no other column.
// An observer that needs the whole event gathers it from its source's cursor:
// `engine.source(op.source).trace.Event(op.event_id)`.
struct ReplayOpView {
  size_t source = 0;
  uint64_t tenant = 0;
  uint64_t time = 0;  // global tick
  TraceOp::Kind kind = TraceOp::Kind::kMalloc;
  uint64_t event_id = 0;
  uint64_t size = 0;  // requested bytes
  Allocator* alloc = nullptr;
};

// What the engine does after a failed malloc.
enum class OomAction : uint8_t {
  kAbortRun,    // stop the whole engine (single-job replay: training would crash)
  kParkSource,  // deschedule the failing source, keep its live blocks: the unwind decision is
                // deferred to an external coordinator (sharded fleet boundaries). A parked
                // source is unwound by the next AbortTenant (or final Run() cleanup); the fleet
                // re-admits a requeued job as fresh sources via AddSource.
};

// Replay observer. All callbacks are optional; with no observer installed the engine aborts the
// run on the first OOM.
class ReplayObserver {
 public:
  virtual ~ReplayObserver() = default;

  // Called immediately before an op is applied.
  virtual void BeforeOp(ReplayEngine& /*engine*/, const ReplayOpView& /*op*/) {}
  // Called after a successful malloc / replayed free.
  virtual void AfterMalloc(ReplayEngine& /*engine*/, const ReplayOpView& /*op*/,
                           uint64_t /*addr*/) {}
  virtual void AfterFree(ReplayEngine& /*engine*/, const ReplayOpView& /*op*/,
                         uint64_t /*addr*/) {}
  // A malloc failed; decide the engine's reaction.
  virtual OomAction OnOom(ReplayEngine& /*engine*/, const ReplayOpView& /*op*/) {
    return OomAction::kAbortRun;
  }
  // A source is about to be unwound (its live blocks are still allocated): last chance to
  // sample per-device state before the frees land.
  virtual void OnSourceAborted(ReplayEngine& /*engine*/, size_t /*source*/, uint64_t /*now*/) {}
  // A source replayed its last op.
  virtual void OnSourceDone(ReplayEngine& /*engine*/, size_t /*source*/, uint64_t /*now*/) {}
};

class ReplayEngine {
 public:
  explicit ReplayEngine(ReplayObserver* observer = nullptr) : observer_(observer) {
    // The scheduling heap holds at most one entry per active source; reserving a handful of
    // slots up front keeps AddSource/Schedule allocation-free for every common fleet size.
    std::vector<HeapEntry> storage;
    storage.reserve(64);
    heap_ = HeapQueue(std::greater<HeapEntry>(), std::move(storage));
  }

  // Registers a source and schedules its first op. May be called mid-run from observer
  // callbacks (e.g. a scheduler admitting a queued job). Returns the dense source id.
  size_t AddSource(const ReplaySource& source);

  // Frees every live block of every active or parked source of `tenant` and deactivates them.
  // OnSourceAborted fires per source, before its frees.
  void AbortTenant(uint64_t tenant);

  // Processes the single earliest pending op. Returns false when nothing is pending.
  bool Step();

  // Drains every source (fast-pathing the single-source case), then unwinds whatever is still
  // live if the run was aborted. Accumulates into (and returns) result().
  const ReplayEngineResult& Run();

  // Global tick of the earliest pending op, or UINT64_MAX when drained. Lets external
  // event loops (the fleet scheduler) interleave their own events with the op stream.
  uint64_t NextOpTime();
  static constexpr uint64_t kNoPendingOp = ~uint64_t{0};

  // Processes every pending op with time strictly below `horizon_excl`. The windowed parallel
  // fleet advances each shard's engine with this between scheduler decision points.
  void StepUntil(uint64_t horizon_excl);

  // Global tick of source `sid`'s final op under its current schedule (start of the last
  // iteration plus the trace's last op offset); spec.start for empty sources. Only depends on
  // AddSource-time state, so it is precomputable before any op executes.
  uint64_t SourceEndTime(size_t sid) const;
  // Minimum SourceEndTime over active sources, or kNoPendingOp when none are active. An upper
  // bound for the next source-completion event: windows bounded by it cannot miss one.
  uint64_t MinActiveEndTime() const;

  bool HasPending() { return NextOpTime() != kNoPendingOp; }
  uint64_t now() const { return now_; }

  size_t active_sources() const { return active_sources_; }
  const ReplaySource& source(size_t id) const { return sources_[id].spec; }
  const ReplaySourceProgress& progress(size_t id) const { return sources_[id].progress; }
  const std::vector<size_t>& tenant_sources(uint64_t tenant) const;
  const ReplayEngineResult& result() const { return result_; }

 private:
  struct SourceState {
    ReplaySource spec;
    uint64_t period = 0;
    size_t cursor = 0;         // next op, in [0, num_ops * iterations]
    // cursor decomposed incrementally so the hot path never divides:
    // pos == cursor % num_ops, iter_base == spec.start + (cursor / num_ops) * period.
    uint64_t pos = 0;
    uint64_t iter_base = 0;
    uint64_t epoch = 0;        // bumped on park/abort; stale heap entries carry old epochs
    std::vector<uint64_t> addr_of;  // event id -> live address (kNoAddr when not live)
    ReplaySourceProgress progress;

    size_t TotalOps() const {
      return static_cast<size_t>(spec.trace.num_ops()) *
             static_cast<size_t>(spec.iterations > 0 ? spec.iterations : 0);
    }
    uint64_t NextOpTime() const { return iter_base + spec.trace.OpTime(pos); }
  };

  static constexpr uint64_t kNoAddr = ~uint64_t{0};
  // (time, source id, epoch); ordered by (time, source id) — the epoch only disambiguates stale
  // entries of one source against its own current schedule.
  using HeapEntry = std::tuple<uint64_t, size_t, uint64_t>;

  enum class OpOutcome : uint8_t {
    kContinue,
    kSourceDone,
    kSourceParked,
    kRunAborted,
  };

  // Applies the op at in-trace index `op_idx` (== sources_[sid].pos) and advances. The caller
  // owns scheduling.
  OpOutcome ApplyOp(size_t sid, uint64_t op_idx);
  void FinishSource(size_t sid);
  void UnwindSource(size_t sid);  // frees live blocks; does not fire observer callbacks
  void Schedule(SourceState& s, size_t sid) {
    heap_.emplace(s.NextOpTime(), sid, s.epoch);
  }
  void DropStaleHeapEntries();
  void RunSingleSourceFast();

  using HeapQueue =
      std::priority_queue<HeapEntry, std::vector<HeapEntry>, std::greater<HeapEntry>>;

  ReplayObserver* observer_ = nullptr;
  std::vector<SourceState> sources_;
  std::map<uint64_t, std::vector<size_t>> tenants_;  // tenant id -> source ids
  HeapQueue heap_;
  uint64_t now_ = 0;
  size_t active_sources_ = 0;
  bool run_aborted_ = false;
  ReplayEngineResult result_;
};

// Placement-digest observer: folds every placement decision — (op kind, event id, device
// address, size) — into an FNV-1a hash. Two replays produce the same digest iff the allocator
// made bit-identical decisions, which is the parity contract between the owned-Trace and
// mmap'd-TraceView cursors (and the pinned-seed goldens in tests/bench). OOM outcomes are not
// mixed in here; compare ReplayEngineResult for those.
class PlacementDigestObserver : public ReplayObserver {
 public:
  void AfterMalloc(ReplayEngine& engine, const ReplayOpView& op, uint64_t addr) override;
  void AfterFree(ReplayEngine& engine, const ReplayOpView& op, uint64_t addr) override;

  uint64_t digest() const { return digest_; }

 private:
  void Mix(uint64_t value);

  uint64_t digest_ = 14695981039346656037ull;  // FNV-1a 64-bit offset basis
};

}  // namespace stalloc

#endif  // SRC_REPLAY_REPLAY_ENGINE_H_
