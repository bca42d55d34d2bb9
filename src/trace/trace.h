// Trace: the complete record of one profiled training iteration — the output of the Allocation
// Profiler (§4) and the input of the Plan Synthesizer (§5).
//
// A Trace stores its events in the columns a v2 trace file holds (src/trace/trace_v2.h): one
// array per MemoryEvent field, indexed by event id, plus the op_time/op_ref columns that order
// every malloc and free for replay. Builders open each event at its malloc and close it at its
// free, the protocol TraceV2StreamWriter shares, so one generator can feed either. They then
// seal the trace once with Validate() (or Valid() for external input), which checks it and
// builds the op columns. A sealed trace gains no more events. TraceCursor is the one read-only
// view over these columns; an owned Trace and an mmap'd TraceView both hand it out.

#ifndef SRC_TRACE_TRACE_H_
#define SRC_TRACE_TRACE_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/common/check.h"
#include "src/trace/event.h"

namespace stalloc {

// One malloc or free op. Ops are ordered by time; at equal time frees come first (lifespans are
// half-open, so replay never double-counts memory handed over at a boundary), then by event id.
struct TraceOp {
  enum class Kind : uint8_t { kMalloc, kFree };
  Kind kind = Kind::kMalloc;
  LogicalTime time = 0;
  uint64_t event_id = 0;
};

// The op columns of a sealed trace, read as TraceOp rows.
struct TraceOps {
  const LogicalTime* time;
  const uint64_t* ref;  // (event_id << 1) | is_free
  size_t count;

  size_t size() const { return count; }
  TraceOp operator[](size_t i) const {
    return TraceOp{(ref[i] & 1) != 0 ? TraceOp::Kind::kFree : TraceOp::Kind::kMalloc, time[i],
                   ref[i] >> 1};
  }
};

// Orders the malloc and free ops of n events, given each one's alloc and free tick, by (time,
// frees first, event index) — the TraceOp order — in linear time with a stable radix sort.
// Returns the op refs, (index << 1) | is_free, and fills `op_time` (may be null) with each op's
// time. Sealing a Trace builds its op columns with it; planners order event subsets with it.
std::vector<uint64_t> OrderOps(const std::vector<LogicalTime>& ts,
                               const std::vector<LogicalTime>& te,
                               std::vector<LogicalTime>* op_time);

// Allocation-free read-only view over a sealed trace's columns: the one interface the replay
// engine, the trace statistics and the drivers read. Trace::Cursor() and TraceView::Cursor()
// hand it out. The cursor borrows: the trace or view must outlive it and stay where it is.
class TraceCursor {
 public:
  TraceCursor() = default;

  // False for a default-constructed cursor.
  bool valid() const { return phases_ != nullptr; }
  const std::string& name() const { return *name_; }
  const std::vector<PhaseInfo>& phases() const { return *phases_; }
  const std::vector<LayerInfo>& layers() const { return *layers_; }
  uint64_t num_events() const { return num_events_; }
  uint64_t num_ops() const { return num_events_ * 2; }
  LogicalTime end_time() const { return end_time_; }

  // --- op accessors, i in [0, num_ops()) ---
  bool OpIsFree(uint64_t i) const { return (op_ref_[i] & 1) != 0; }
  uint64_t OpEventId(uint64_t i) const { return op_ref_[i] >> 1; }
  LogicalTime OpTime(uint64_t i) const { return op_time_[i]; }

  // --- event accessors, id in [0, num_events()) ---
  uint64_t EventSize(uint64_t id) const { return size_[id]; }
  PhaseId EventPs(uint64_t id) const { return ps_[id]; }
  LayerId EventLs(uint64_t id) const { return ls_[id]; }
  LayerId EventLe(uint64_t id) const { return le_[id]; }
  bool EventDyn(uint64_t id) const { return (flags_[id] & 1) != 0; }
  StreamId EventStream(uint64_t id) const { return stream_[id]; }

  // Gathers one event from the columns (observer callbacks and planners; the replay hot loop
  // reads the columns directly).
  MemoryEvent Event(uint64_t id) const {
    MemoryEvent e;
    e.id = id;
    e.size = size_[id];
    e.ts = ts_[id];
    e.te = te_[id];
    e.ps = ps_[id];
    e.pe = pe_[id];
    e.dyn = (flags_[id] & 1) != 0;
    e.ls = ls_[id];
    e.le = le_[id];
    e.stream = stream_[id];
    return e;
  }

 private:
  friend class Trace;
  friend class TraceView;

  const std::string* name_ = nullptr;
  const std::vector<PhaseInfo>* phases_ = nullptr;
  const std::vector<LayerInfo>* layers_ = nullptr;
  uint64_t num_events_ = 0;
  LogicalTime end_time_ = 0;
  const uint64_t* op_time_ = nullptr;
  const uint64_t* op_ref_ = nullptr;
  const uint64_t* ts_ = nullptr;
  const uint64_t* te_ = nullptr;
  const uint64_t* size_ = nullptr;
  const int32_t* ps_ = nullptr;
  const int32_t* pe_ = nullptr;
  const int32_t* ls_ = nullptr;
  const int32_t* le_ = nullptr;
  const uint8_t* flags_ = nullptr;
  const uint8_t* stream_ = nullptr;
};

class Trace {
 public:
  Trace() = default;
  // A sealed copy of `source`'s columns. The op order is copied, not rebuilt.
  explicit Trace(const TraceCursor& source);

  // --- construction (used by the trace builders and readers) ---
  PhaseId AddPhase(PhaseInfo info);
  LayerId AddLayer(LayerInfo info);
  // Opens an event at its malloc tick `ts` and returns its id: dense, in open order. The trace
  // must not be sealed yet.
  uint64_t OpenEvent(uint64_t size, LogicalTime ts, PhaseId ps, LayerId ls, bool dyn,
                     StreamId stream);
  // Closes event `id` at its free tick `te`. Aborts unless the event is open and te > ts.
  void CloseEvent(uint64_t id, LogicalTime te, PhaseId pe, LayerId le);
  // Opens and closes an event at once (event.id is ignored); returns its id. For builders that
  // know the free tick when they add the event and number events in another order than their
  // mallocs (trainsim numbers them in free order).
  uint64_t AddEvent(const MemoryEvent& event);
  void set_name(std::string name) { name_ = std::move(name); }
  // Builders patch phase/layer windows as emission proceeds.
  PhaseInfo& MutablePhase(PhaseId id);
  LayerInfo& MutableLayer(LayerId id);

  // Seals the trace: checks its consistency (every event closed, positive sizes, valid phase
  // and layer references), then orders every op into the op columns. Validate() aborts on a
  // violation. Valid() is the variant for data read from disk: it returns false and fills
  // `error` (may be null) with the first violation, leaving the trace unsealed. Both re-check a
  // sealed trace without rebuilding its op columns.
  void Validate();
  bool Valid(std::string* error);
  bool sealed() const { return sealed_; }

  // --- accessors ---
  const std::string& name() const { return name_; }
  const std::vector<PhaseInfo>& phases() const { return phases_; }
  const std::vector<LayerInfo>& layers() const { return layers_; }
  const PhaseInfo& phase(PhaseId id) const;
  const LayerInfo& layer(LayerId id) const;
  size_t size() const { return ts_.size(); }
  bool empty() const { return ts_.empty(); }

  // One past the largest timestamp in the trace.
  LogicalTime end_time() const { return end_time_; }

  // Event columns, indexed by event id (the same layout TraceView maps from a v2 file).
  const uint64_t* ts() const { return ts_.data(); }
  const uint64_t* te() const { return te_.data(); }
  const uint64_t* sizes() const { return size_.data(); }
  const int32_t* ps() const { return ps_.data(); }
  const int32_t* pe() const { return pe_.data(); }
  const int32_t* ls() const { return ls_.data(); }
  const int32_t* le() const { return le_.data(); }
  const uint8_t* flags() const { return flags_.data(); }  // bit0 = dyn
  const uint8_t* stream() const { return stream_.data(); }
  // Op columns, filled when the trace is sealed: 2 * size() entries each, op_ref =
  // (event_id << 1) | is_free.
  const uint64_t* op_time() const { return op_time_.data(); }
  const uint64_t* op_ref() const { return op_ref_.data(); }

  // Gathers one event from the columns.
  MemoryEvent Event(uint64_t id) const {
    STALLOC_DCHECK_LT(id, size());
    return Columns().Event(id);
  }

  // Lifespan classification of one event per §2.3.
  LifespanClass Classify(const MemoryEvent& event) const;

  // The interleaved malloc/free operation stream of a sealed trace, in TraceOp order.
  TraceOps Ops() const;

  // The read-only view over a sealed trace.
  TraceCursor Cursor() const;

 private:
  // Points a cursor at the columns without the sealed check (op columns may be empty).
  TraceCursor Columns() const;
  void CheckSealed(const char* what) const;

  std::string name_;
  std::vector<PhaseInfo> phases_;
  std::vector<LayerInfo> layers_;
  LogicalTime end_time_ = 0;
  bool sealed_ = false;
  std::vector<uint64_t> ts_, te_, size_;  // te_ is 0 while the event is open
  std::vector<int32_t> ps_, pe_, ls_, le_;
  std::vector<uint8_t> flags_, stream_;
  std::vector<uint64_t> op_time_, op_ref_;
};

}  // namespace stalloc

#endif  // SRC_TRACE_TRACE_H_
