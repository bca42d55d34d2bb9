// Columnar binary trace format (v2) + mmap-streamed replay access.
//
// This is the repository's one binary trace format, and its columns are the in-memory layout of
// Trace (src/trace/trace.h) written to disk. CSV (src/trace/trace_io.h) is parsed row by row
// into an owned Trace; v2 is mapped and replayed in place, so the replay hot loop touches exactly
// the bytes it needs, straight out of an mmap'd file, with zero per-event heap allocation:
//
//   header   magic "STLC", version, num_events, end_time, footer offset
//   columns  per-field contiguous arrays, each section 64-byte aligned:
//              ts, te, size        u64[N]      event columns, indexed by event id
//              ps, pe, ls, le      i32[N]
//              flags (bit0 = dyn)  u8[N]
//              stream              u8[N]
//              op_time             u64[2N]     op columns, the presorted malloc/free stream
//              op_ref              u64[2N]     (event_id << 1) | is_free
//   footer   name + phase/layer string tables (hoisted out of the fixed-width sections),
//            terminated by a trailing magic so truncation is detectable
//
// The op columns persist TraceOp order — time ascending, frees before mallocs at equal time,
// event id ascending — so replay never sorts. op_time is redundant with ts/te by construction;
// it makes the hot loop's time reads sequential and doubles as a corruption cross-check when a
// view opens.
//
// Three access paths:
//   * TraceV2StreamWriter — O(1)-memory-per-event streaming writer for synthetic generators
//     (close-order columns are buffered at 16 bytes/event; everything else streams out).
//   * WriteTraceV2File    — writes a sealed Trace's columns as they are.
//   * TraceView           — mmap'd zero-copy reader, validated on open. Its Cursor() is the
//     same TraceCursor a Trace hands out, so replay decisions are bit-identical either way.

#ifndef SRC_TRACE_TRACE_V2_H_
#define SRC_TRACE_TRACE_V2_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/check.h"
#include "src/trace/trace.h"
#include "src/trace/trace_io.h"

namespace stalloc {

inline constexpr char kTraceV2Magic[4] = {'S', 'T', 'L', 'C'};
inline constexpr char kTraceV2TrailerMagic[4] = {'C', 'L', 'T', 'S'};
inline constexpr uint32_t kTraceV2Version = 2;
inline constexpr uint64_t kTraceV2Alignment = 64;

// Byte offsets of every column section, fully determined by the event count. Sections are
// 64-byte aligned (cache-line / vector-width friendly; also keeps every typed pointer into the
// mapping naturally aligned).
struct TraceV2Layout {
  uint64_t num_events = 0;
  uint64_t ts_off = 0;
  uint64_t te_off = 0;
  uint64_t size_off = 0;
  uint64_t ps_off = 0;
  uint64_t pe_off = 0;
  uint64_t ls_off = 0;
  uint64_t le_off = 0;
  uint64_t flags_off = 0;
  uint64_t stream_off = 0;
  uint64_t op_time_off = 0;
  uint64_t op_ref_off = 0;
  uint64_t columns_end = 0;  // first byte past the last column section

  static TraceV2Layout For(uint64_t num_events);
};

// Streaming v2 writer for deterministic generators: events are declared up front (num_events),
// opened in strictly op-sorted order and closed the same way; the writer enforces the op
// comparator incrementally. Memory stays O(chunk) for the streamed open-order columns plus
// 16 bytes/event for the close-order columns (te/pe/le), which arrive in close order but are
// stored in event-id order. Its AddPhase/AddLayer/MutablePhase/MutableLayer/OpenEvent/
// CloseEvent calls are Trace's, so the synthetic generators feed either one.
//
// API misuse (out-of-order ops, unclosed events, id reuse) is a programmer error and aborts via
// STALLOC_CHECK; I/O failures (disk full, unwritable path) surface through ok()/Finish().
class TraceV2StreamWriter {
 public:
  TraceV2StreamWriter(const std::string& path, uint64_t num_events, std::string name);
  ~TraceV2StreamWriter();
  TraceV2StreamWriter(const TraceV2StreamWriter&) = delete;
  TraceV2StreamWriter& operator=(const TraceV2StreamWriter&) = delete;

  // False when the output file could not be opened; every later call is then a no-op and
  // Finish() fails.
  bool ok() const { return fd_ >= 0; }

  PhaseId AddPhase(PhaseInfo info);
  LayerId AddLayer(LayerInfo info);
  // Builders patch phase/layer windows as emission proceeds.
  PhaseInfo& MutablePhase(PhaseId id);
  LayerInfo& MutableLayer(LayerId id);

  // Emits the malloc op of a new event at time `ts`; returns its event id (dense, in open
  // order). The (ts, malloc, id) op must not sort before any previously emitted op.
  uint64_t OpenEvent(uint64_t size, LogicalTime ts, PhaseId ps, LayerId ls, bool dyn,
                     StreamId stream);
  // Emits the free op of a previously opened event at time `te` (must sort after every
  // previously emitted op; te > ts follows from the ordering).
  void CloseEvent(uint64_t id, LogicalTime te, PhaseId pe, LayerId le);

  // Flushes everything, writes the close-order columns + footer, patches the header. All
  // declared events must have been opened and closed. Returns false on I/O failure.
  bool Finish();

 private:
  template <typename T>
  struct ColumnStream {
    uint64_t base_off = 0;    // file offset of the column section
    uint64_t flushed = 0;     // elements already written to the file
    std::vector<T> buf;       // pending chunk
  };

  template <typename T>
  void Append(ColumnStream<T>* col, T value);
  template <typename T>
  void FlushColumn(ColumnStream<T>* col);
  bool WriteAt(uint64_t off, const void* data, uint64_t bytes);
  void CheckOpOrder(LogicalTime time, uint64_t ref);

  std::string path_;
  int fd_ = -1;
  bool io_failed_ = false;
  TraceV2Layout layout_;
  std::string name_;
  std::vector<PhaseInfo> phases_;
  std::vector<LayerInfo> layers_;

  ColumnStream<uint64_t> ts_, size_, op_time_, op_ref_;
  ColumnStream<int32_t> ps_, ls_;
  ColumnStream<uint8_t> flags_, stream_;
  // Close-order columns: values arrive in free order but live at event-id positions, so they
  // are buffered whole (16 bytes/event) and written once at Finish.
  std::vector<uint64_t> te_ram_;
  std::vector<int32_t> pe_ram_, le_ram_;
  std::vector<uint8_t> closed_;

  uint64_t num_opened_ = 0;
  uint64_t num_closed_ = 0;
  uint64_t num_ops_emitted_ = 0;
  LogicalTime end_time_ = 0;
  // Last emitted op (time, op_ref), for incremental order enforcement.
  LogicalTime last_time_ = 0;
  uint64_t last_ref_ = 0;
};

// Writes a sealed in-memory Trace to a v2 file: its columns go to disk as they are, so event
// ids and op order are preserved and plans keyed by event id transfer across the conversion.
// Returns false on I/O failure.
bool WriteTraceV2File(const Trace& trace, const std::string& path);

// Cheap format sniff: true when the file starts with the v2 magic. No validation — callers
// that want the contents go through TraceView::Open (v2) or ReadTraceAnyFile (anything).
bool IsTraceV2File(const std::string& path);

// Zero-copy mmap'd view of a v2 trace file. Open() maps the file read-only and runs a full
// validation pass (header/footer integrity, column bounds, op-stream order, op/event
// cross-checks), so every later accessor is unchecked pointer arithmetic. The footer's
// phase/layer string tables are the only materialized state — O(phases + layers), never O(N).
class TraceView {
 public:
  TraceView() = default;
  ~TraceView();
  TraceView(TraceView&& other) noexcept;
  TraceView& operator=(TraceView&& other) noexcept;
  TraceView(const TraceView&) = delete;
  TraceView& operator=(const TraceView&) = delete;

  // Maps and validates `path`. On failure returns false, fills `err` (may be null) with a
  // message and byte offset, and leaves the view closed.
  bool Open(const std::string& path, TraceIoError* err);
  void Close();
  bool is_open() const { return data_ != nullptr; }

  const std::string& name() const { return name_; }
  uint64_t num_events() const { return layout_.num_events; }
  uint64_t num_ops() const { return layout_.num_events * 2; }
  LogicalTime end_time() const { return end_time_; }
  const std::vector<PhaseInfo>& phases() const { return phases_; }
  const std::vector<LayerInfo>& layers() const { return layers_; }
  uint64_t file_bytes() const { return bytes_; }

  // Raw column pointers (valid while the view is open).
  const uint64_t* ts() const { return Col<uint64_t>(layout_.ts_off); }
  const uint64_t* te() const { return Col<uint64_t>(layout_.te_off); }
  const uint64_t* sizes() const { return Col<uint64_t>(layout_.size_off); }
  const int32_t* ps() const { return Col<int32_t>(layout_.ps_off); }
  const int32_t* pe() const { return Col<int32_t>(layout_.pe_off); }
  const int32_t* ls() const { return Col<int32_t>(layout_.ls_off); }
  const int32_t* le() const { return Col<int32_t>(layout_.le_off); }
  const uint8_t* flags() const { return Col<uint8_t>(layout_.flags_off); }
  const uint8_t* stream() const { return Col<uint8_t>(layout_.stream_off); }
  const uint64_t* op_time() const { return Col<uint64_t>(layout_.op_time_off); }
  const uint64_t* op_ref() const { return Col<uint64_t>(layout_.op_ref_off); }

  // The read-only view the replay engine and the drivers read (valid while the view is open
  // and stays where it is).
  TraceCursor Cursor() const;

  // An owned, sealed copy of the columns with identical event ids and op order — for code that
  // keeps a trace past the mapping (plan synthesis, the CSV writer).
  Trace Materialize() const { return Trace(Cursor()); }

 private:
  template <typename T>
  const T* Col(uint64_t off) const {
    return reinterpret_cast<const T*>(static_cast<const char*>(data_) + off);
  }

  void* data_ = nullptr;
  uint64_t bytes_ = 0;
  TraceV2Layout layout_;
  LogicalTime end_time_ = 0;
  std::string name_;
  std::vector<PhaseInfo> phases_;
  std::vector<LayerInfo> layers_;
};

}  // namespace stalloc

#endif  // SRC_TRACE_TRACE_V2_H_
