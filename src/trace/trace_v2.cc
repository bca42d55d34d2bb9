#include "src/trace/trace_v2.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "src/common/check.h"

namespace stalloc {

namespace {

// Streamed-column chunk size (elements). 64K u64s = 512KiB per column buffer.
constexpr uint64_t kChunkElems = 1 << 16;

// magic(4) + version(4) + num_events(8) + end_time(8) + footer_offset(8).
constexpr uint64_t kHeaderBytes = 32;

// Minimum column bytes per event: 3*u64 + 4*i32 + 2*u8 + 2 ops * (u64 time + u64 ref).
constexpr uint64_t kMinBytesPerEvent = 74;

uint64_t Align64(uint64_t x) {
  return (x + (kTraceV2Alignment - 1)) & ~(kTraceV2Alignment - 1);
}

template <typename T>
void PutRaw(std::string* out, T v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(v));
}

void PutStr(std::string* out, const std::string& s) {
  PutRaw<uint32_t>(out, static_cast<uint32_t>(s.size()));
  out->append(s);
}

std::string BuildHeader(uint64_t num_events, LogicalTime end_time, uint64_t footer_offset) {
  std::string h;
  h.append(kTraceV2Magic, sizeof(kTraceV2Magic));
  PutRaw<uint32_t>(&h, kTraceV2Version);
  PutRaw<uint64_t>(&h, num_events);
  PutRaw<uint64_t>(&h, end_time);
  PutRaw<uint64_t>(&h, footer_offset);
  return h;
}

std::string BuildFooter(const std::string& name, const std::vector<PhaseInfo>& phases,
                        const std::vector<LayerInfo>& layers) {
  std::string f;
  PutStr(&f, name);
  PutRaw<uint32_t>(&f, static_cast<uint32_t>(phases.size()));
  for (const auto& p : phases) {
    PutRaw<uint8_t>(&f, static_cast<uint8_t>(p.kind));
    PutRaw<int32_t>(&f, p.microbatch);
    PutRaw<int32_t>(&f, p.chunk);
    PutRaw<uint64_t>(&f, p.start);
    PutRaw<uint64_t>(&f, p.end);
  }
  PutRaw<uint32_t>(&f, static_cast<uint32_t>(layers.size()));
  for (const auto& l : layers) {
    PutStr(&f, l.name);
    PutRaw<uint64_t>(&f, l.start);
    PutRaw<uint64_t>(&f, l.end);
  }
  f.append(kTraceV2TrailerMagic, sizeof(kTraceV2TrailerMagic));
  return f;
}

// pwrite the whole buffer; sections are sparse-written out of order, the gaps between aligned
// sections read back as zeros.
bool PwriteAll(int fd, uint64_t off, const void* data, uint64_t bytes) {
  const char* p = static_cast<const char*>(data);
  while (bytes > 0) {
    const ssize_t n = ::pwrite(fd, p, bytes, static_cast<off_t>(off));
    if (n <= 0) {
      return false;
    }
    p += n;
    off += static_cast<uint64_t>(n);
    bytes -= static_cast<uint64_t>(n);
  }
  return true;
}

// True when op (time, ref) may follow op (prev_time, prev_ref) in replay order: time
// ascending, frees before mallocs at equal time, then event id ascending.
bool OpFollows(LogicalTime prev_time, uint64_t prev_ref, LogicalTime time, uint64_t ref) {
  if (time != prev_time) {
    return time > prev_time;
  }
  if ((ref & 1) != (prev_ref & 1)) {
    return (prev_ref & 1) != 0;
  }
  return (ref >> 1) > (prev_ref >> 1);
}

void SetError(TraceIoError* err, std::string message, uint64_t byte_offset) {
  if (err != nullptr) {
    err->message = std::move(message);
    err->byte_offset = byte_offset;
  }
}

}  // namespace

TraceV2Layout TraceV2Layout::For(uint64_t num_events) {
  TraceV2Layout l;
  l.num_events = num_events;
  uint64_t off = Align64(kHeaderBytes);
  auto section = [&off](uint64_t bytes) {
    const uint64_t at = off;
    off = Align64(off + bytes);
    return at;
  };
  l.ts_off = section(num_events * 8);
  l.te_off = section(num_events * 8);
  l.size_off = section(num_events * 8);
  l.ps_off = section(num_events * 4);
  l.pe_off = section(num_events * 4);
  l.ls_off = section(num_events * 4);
  l.le_off = section(num_events * 4);
  l.flags_off = section(num_events);
  l.stream_off = section(num_events);
  l.op_time_off = section(num_events * 2 * 8);
  l.op_ref_off = section(num_events * 2 * 8);
  l.columns_end = off;
  return l;
}

// --- TraceV2StreamWriter ---

TraceV2StreamWriter::TraceV2StreamWriter(const std::string& path, uint64_t num_events,
                                         std::string name)
    : path_(path), layout_(TraceV2Layout::For(num_events)), name_(std::move(name)) {
  fd_ = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  ts_.base_off = layout_.ts_off;
  size_.base_off = layout_.size_off;
  ps_.base_off = layout_.ps_off;
  ls_.base_off = layout_.ls_off;
  flags_.base_off = layout_.flags_off;
  stream_.base_off = layout_.stream_off;
  op_time_.base_off = layout_.op_time_off;
  op_ref_.base_off = layout_.op_ref_off;
  te_ram_.resize(num_events, 0);
  pe_ram_.resize(num_events, kInvalidPhase);
  le_ram_.resize(num_events, kInvalidLayer);
  closed_.resize(num_events, 0);
}

TraceV2StreamWriter::~TraceV2StreamWriter() {
  if (fd_ >= 0) {
    ::close(fd_);
  }
}

PhaseId TraceV2StreamWriter::AddPhase(PhaseInfo info) {
  phases_.push_back(std::move(info));
  return static_cast<PhaseId>(phases_.size() - 1);
}

LayerId TraceV2StreamWriter::AddLayer(LayerInfo info) {
  layers_.push_back(std::move(info));
  return static_cast<LayerId>(layers_.size() - 1);
}

PhaseInfo& TraceV2StreamWriter::MutablePhase(PhaseId id) {
  STALLOC_CHECK(id >= 0 && static_cast<size_t>(id) < phases_.size());
  return phases_[static_cast<size_t>(id)];
}

LayerInfo& TraceV2StreamWriter::MutableLayer(LayerId id) {
  STALLOC_CHECK(id >= 0 && static_cast<size_t>(id) < layers_.size());
  return layers_[static_cast<size_t>(id)];
}

bool TraceV2StreamWriter::WriteAt(uint64_t off, const void* data, uint64_t bytes) {
  if (fd_ < 0 || io_failed_) {
    return false;
  }
  if (!PwriteAll(fd_, off, data, bytes)) {
    io_failed_ = true;
    return false;
  }
  return true;
}

template <typename T>
void TraceV2StreamWriter::FlushColumn(ColumnStream<T>* col) {
  if (col->buf.empty()) {
    return;
  }
  WriteAt(col->base_off + col->flushed * sizeof(T), col->buf.data(),
          col->buf.size() * sizeof(T));
  col->flushed += col->buf.size();
  col->buf.clear();
}

template <typename T>
void TraceV2StreamWriter::Append(ColumnStream<T>* col, T value) {
  if (col->buf.capacity() == 0) {
    col->buf.reserve(kChunkElems);
  }
  col->buf.push_back(value);
  if (col->buf.size() >= kChunkElems) {
    FlushColumn(col);
  }
}

void TraceV2StreamWriter::CheckOpOrder(LogicalTime time, uint64_t ref) {
  STALLOC_CHECK(num_ops_emitted_ == 0 || OpFollows(last_time_, last_ref_, time, ref),
                << "v2 stream writer: op (t=" << time << " free=" << (ref & 1) << " eid="
                << (ref >> 1) << ") sorts before previous op (t=" << last_time_ << " free="
                << (last_ref_ & 1) << " eid=" << (last_ref_ >> 1) << ")");
  last_time_ = time;
  last_ref_ = ref;
  ++num_ops_emitted_;
}

uint64_t TraceV2StreamWriter::OpenEvent(uint64_t size, LogicalTime ts, PhaseId ps, LayerId ls,
                                        bool dyn, StreamId stream) {
  STALLOC_CHECK_LT(num_opened_, layout_.num_events,
                   << "v2 stream writer: more events than declared");
  STALLOC_CHECK_GT(size, 0u);
  const uint64_t id = num_opened_++;
  CheckOpOrder(ts, id << 1);
  Append(&ts_, ts);
  Append(&size_, size);
  Append(&ps_, ps);
  Append(&ls_, ls);
  Append(&flags_, static_cast<uint8_t>(dyn ? 1 : 0));
  Append(&stream_, stream);
  Append(&op_time_, ts);
  Append(&op_ref_, id << 1);
  return id;
}

void TraceV2StreamWriter::CloseEvent(uint64_t id, LogicalTime te, PhaseId pe, LayerId le) {
  STALLOC_CHECK_LT(id, num_opened_, << "v2 stream writer: closing unopened event");
  STALLOC_CHECK(closed_[id] == 0, << "v2 stream writer: event " << id << " closed twice");
  CheckOpOrder(te, (id << 1) | 1);
  te_ram_[id] = te;
  pe_ram_[id] = pe;
  le_ram_[id] = le;
  closed_[id] = 1;
  ++num_closed_;
  end_time_ = std::max(end_time_, te);
  Append(&op_time_, te);
  Append(&op_ref_, (id << 1) | 1);
}

bool TraceV2StreamWriter::Finish() {
  STALLOC_CHECK_EQ(num_opened_, layout_.num_events,
                   << "v2 stream writer: fewer events emitted than declared");
  STALLOC_CHECK_EQ(num_closed_, num_opened_, << "v2 stream writer: unclosed events remain");
  FlushColumn(&ts_);
  FlushColumn(&size_);
  FlushColumn(&ps_);
  FlushColumn(&ls_);
  FlushColumn(&flags_);
  FlushColumn(&stream_);
  FlushColumn(&op_time_);
  FlushColumn(&op_ref_);
  WriteAt(layout_.te_off, te_ram_.data(), te_ram_.size() * sizeof(uint64_t));
  WriteAt(layout_.pe_off, pe_ram_.data(), pe_ram_.size() * sizeof(int32_t));
  WriteAt(layout_.le_off, le_ram_.data(), le_ram_.size() * sizeof(int32_t));
  const std::string footer = BuildFooter(name_, phases_, layers_);
  WriteAt(layout_.columns_end, footer.data(), footer.size());
  const std::string header = BuildHeader(layout_.num_events, end_time_, layout_.columns_end);
  WriteAt(0, header.data(), header.size());
  if (fd_ >= 0) {
    if (::close(fd_) != 0) {
      io_failed_ = true;
    }
    fd_ = -1;
    return !io_failed_;
  }
  return false;
}

// --- bulk conversion ---

bool WriteTraceV2File(const Trace& trace, const std::string& path) {
  STALLOC_CHECK(trace.sealed(), << "WriteTraceV2File needs a sealed trace");
  const uint64_t n = trace.size();
  const TraceV2Layout layout = TraceV2Layout::For(n);
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    return false;
  }
  const std::string footer = BuildFooter(trace.name(), trace.phases(), trace.layers());
  const std::string header = BuildHeader(n, trace.end_time(), layout.columns_end);
  bool ok = PwriteAll(fd, layout.ts_off, trace.ts(), n * 8) &&
            PwriteAll(fd, layout.te_off, trace.te(), n * 8) &&
            PwriteAll(fd, layout.size_off, trace.sizes(), n * 8) &&
            PwriteAll(fd, layout.ps_off, trace.ps(), n * 4) &&
            PwriteAll(fd, layout.pe_off, trace.pe(), n * 4) &&
            PwriteAll(fd, layout.ls_off, trace.ls(), n * 4) &&
            PwriteAll(fd, layout.le_off, trace.le(), n * 4) &&
            PwriteAll(fd, layout.flags_off, trace.flags(), n) &&
            PwriteAll(fd, layout.stream_off, trace.stream(), n) &&
            PwriteAll(fd, layout.op_time_off, trace.op_time(), n * 2 * 8) &&
            PwriteAll(fd, layout.op_ref_off, trace.op_ref(), n * 2 * 8) &&
            PwriteAll(fd, layout.columns_end, footer.data(), footer.size()) &&
            PwriteAll(fd, 0, header.data(), header.size());
  if (::close(fd) != 0) {
    ok = false;
  }
  return ok;
}

bool IsTraceV2File(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    return false;
  }
  char magic[4] = {};
  const ssize_t got = ::read(fd, magic, sizeof(magic));
  ::close(fd);
  return got == 4 && std::memcmp(magic, kTraceV2Magic, 4) == 0;
}

// --- TraceView ---

namespace {

// Bounds-checked forward reader over the mapped footer region.
class FooterReader {
 public:
  FooterReader(const char* base, uint64_t begin, uint64_t end)
      : base_(base), off_(begin), end_(end) {}

  uint64_t offset() const { return off_; }
  bool failed() const { return failed_; }

  template <typename T>
  bool Get(T* out) {
    if (failed_ || end_ - off_ < sizeof(T)) {
      failed_ = true;
      return false;
    }
    std::memcpy(out, base_ + off_, sizeof(T));
    off_ += sizeof(T);
    return true;
  }

  bool GetString(std::string* out) {
    uint32_t len = 0;
    if (!Get(&len) || len > (1u << 20) || end_ - off_ < len) {
      failed_ = true;
      return false;
    }
    out->assign(base_ + off_, len);
    off_ += len;
    return true;
  }

 private:
  const char* base_;
  uint64_t off_;
  uint64_t end_;
  bool failed_ = false;
};

}  // namespace

TraceView::~TraceView() { Close(); }

TraceView::TraceView(TraceView&& other) noexcept
    : data_(other.data_),
      bytes_(other.bytes_),
      layout_(other.layout_),
      end_time_(other.end_time_),
      name_(std::move(other.name_)),
      phases_(std::move(other.phases_)),
      layers_(std::move(other.layers_)) {
  other.data_ = nullptr;
  other.bytes_ = 0;
}

TraceView& TraceView::operator=(TraceView&& other) noexcept {
  if (this != &other) {
    Close();
    data_ = other.data_;
    bytes_ = other.bytes_;
    layout_ = other.layout_;
    end_time_ = other.end_time_;
    name_ = std::move(other.name_);
    phases_ = std::move(other.phases_);
    layers_ = std::move(other.layers_);
    other.data_ = nullptr;
    other.bytes_ = 0;
  }
  return *this;
}

void TraceView::Close() {
  if (data_ != nullptr) {
    ::munmap(data_, bytes_);
    data_ = nullptr;
  }
  bytes_ = 0;
  layout_ = TraceV2Layout();
  end_time_ = 0;
  name_.clear();
  phases_.clear();
  layers_.clear();
}

bool TraceView::Open(const std::string& path, TraceIoError* err) {
  Close();
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    SetError(err, "cannot open trace file " + path, 0);
    return false;
  }
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    SetError(err, "cannot stat trace file " + path, 0);
    return false;
  }
  const uint64_t bytes = static_cast<uint64_t>(st.st_size);
  if (bytes < kHeaderBytes) {
    ::close(fd);
    SetError(err, "file too small for a v2 trace header", bytes);
    return false;
  }
  void* map = ::mmap(nullptr, bytes, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);  // the mapping keeps the file alive
  if (map == MAP_FAILED) {
    SetError(err, "mmap failed for trace file " + path, 0);
    return false;
  }
  // The validation pass below and replay itself both walk columns front to back.
  ::madvise(map, bytes, MADV_SEQUENTIAL);
  data_ = map;
  bytes_ = bytes;

  auto reject = [this, err](std::string message, uint64_t off) {
    SetError(err, std::move(message), off);
    Close();
    return false;
  };

  const char* base = static_cast<const char*>(data_);
  if (std::memcmp(base, kTraceV2Magic, sizeof(kTraceV2Magic)) != 0) {
    return reject("not a v2 columnar stalloc trace", 0);
  }
  uint32_t version = 0;
  std::memcpy(&version, base + 4, sizeof(version));
  if (version != kTraceV2Version) {
    return reject("unsupported v2 trace version " + std::to_string(version), 4);
  }
  uint64_t num_events = 0;
  uint64_t footer_off = 0;
  std::memcpy(&num_events, base + 8, sizeof(num_events));
  std::memcpy(&end_time_, base + 16, sizeof(end_time_));
  std::memcpy(&footer_off, base + 24, sizeof(footer_off));
  if (num_events != 0 && num_events > bytes / kMinBytesPerEvent) {
    return reject("implausible event count " + std::to_string(num_events), 8);
  }
  layout_ = TraceV2Layout::For(num_events);
  if (footer_off != layout_.columns_end) {
    return reject("footer offset does not match the column layout (truncated or corrupt)", 24);
  }
  // Smallest possible footer: empty name + empty tables + trailer.
  if (bytes < layout_.columns_end + 16) {
    return reject("file truncated before the footer", bytes);
  }
  if (std::memcmp(base + bytes - sizeof(kTraceV2TrailerMagic), kTraceV2TrailerMagic,
                  sizeof(kTraceV2TrailerMagic)) != 0) {
    return reject("missing trailer magic (file truncated?)", bytes - 4);
  }

  FooterReader fr(base, layout_.columns_end, bytes - sizeof(kTraceV2TrailerMagic));
  if (!fr.GetString(&name_)) {
    return reject("corrupt footer: trace name", fr.offset());
  }
  uint32_t num_phases = 0;
  if (!fr.Get(&num_phases)) {
    return reject("corrupt footer: phase count", fr.offset());
  }
  phases_.reserve(num_phases);
  for (uint32_t i = 0; i < num_phases; ++i) {
    PhaseInfo p;
    const uint64_t kind_off = fr.offset();
    uint8_t kind = 0;
    if (!fr.Get(&kind) || !fr.Get(&p.microbatch) || !fr.Get(&p.chunk) || !fr.Get(&p.start) ||
        !fr.Get(&p.end)) {
      return reject("corrupt footer: phase table", fr.offset());
    }
    if (kind > static_cast<uint8_t>(PhaseKind::kOptimizer)) {
      return reject("unknown phase kind " + std::to_string(kind) + " in phase " +
                        std::to_string(i),
                    kind_off);
    }
    p.kind = static_cast<PhaseKind>(kind);
    phases_.push_back(p);
  }
  uint32_t num_layers = 0;
  if (!fr.Get(&num_layers)) {
    return reject("corrupt footer: layer count", fr.offset());
  }
  layers_.reserve(num_layers);
  for (uint32_t i = 0; i < num_layers; ++i) {
    LayerInfo l;
    if (!fr.GetString(&l.name) || !fr.Get(&l.start) || !fr.Get(&l.end)) {
      return reject("corrupt footer: layer table", fr.offset());
    }
    layers_.push_back(std::move(l));
  }
  if (fr.offset() != bytes - sizeof(kTraceV2TrailerMagic)) {
    return reject("trailing garbage between footer and trailer magic", fr.offset());
  }

  // Full event/op validation scan: after this, every accessor is unchecked.
  const uint64_t* ts = this->ts();
  const uint64_t* te = this->te();
  const uint64_t* sz = this->sizes();
  const int32_t* ps = this->ps();
  const int32_t* pe = this->pe();
  const int32_t* ls = this->ls();
  const int32_t* le = this->le();
  const uint8_t* flags = this->flags();
  const int32_t np = static_cast<int32_t>(phases_.size());
  const int32_t nl = static_cast<int32_t>(layers_.size());
  LogicalTime max_te = 0;
  for (uint64_t i = 0; i < num_events; ++i) {
    if (sz[i] == 0) {
      return reject("zero-size event " + std::to_string(i), layout_.size_off + i * 8);
    }
    if (ts[i] >= te[i]) {
      return reject("event " + std::to_string(i) + " has non-positive lifespan",
                    layout_.ts_off + i * 8);
    }
    max_te = std::max(max_te, te[i]);
    if ((flags[i] & ~uint8_t{1}) != 0) {
      return reject("event " + std::to_string(i) + " has unknown flag bits",
                    layout_.flags_off + i);
    }
    if (ps[i] < kInvalidPhase || ps[i] >= np || pe[i] < kInvalidPhase || pe[i] >= np) {
      return reject("event " + std::to_string(i) + " references an invalid phase",
                    layout_.ps_off + i * 4);
    }
    if ((flags[i] & 1) != 0 &&
        (ls[i] < 0 || ls[i] >= nl || le[i] < 0 || le[i] >= nl)) {
      return reject("dynamic event " + std::to_string(i) + " references an invalid layer",
                    layout_.ls_off + i * 4);
    }
  }
  if (max_te != end_time_) {
    return reject("header end_time does not match the te column", 16);
  }

  const uint64_t* op_time = this->op_time();
  const uint64_t* op_ref = this->op_ref();
  const uint64_t num_ops = num_events * 2;
  std::vector<uint8_t> seen(num_events, 0);
  for (uint64_t i = 0; i < num_ops; ++i) {
    const uint64_t ref = op_ref[i];
    const uint64_t eid = ref >> 1;
    const bool is_free = (ref & 1) != 0;
    if (eid >= num_events) {
      return reject("op " + std::to_string(i) + " references event " + std::to_string(eid) +
                        " out of range",
                    layout_.op_ref_off + i * 8);
    }
    if (op_time[i] != (is_free ? te[eid] : ts[eid])) {
      return reject("op " + std::to_string(i) + " time disagrees with its event column",
                    layout_.op_time_off + i * 8);
    }
    if (i > 0 && !OpFollows(op_time[i - 1], op_ref[i - 1], op_time[i], ref)) {
      return reject("op stream out of replay order at op " + std::to_string(i),
                    layout_.op_ref_off + i * 8);
    }
    const uint8_t bit = is_free ? 2 : 1;
    if ((seen[eid] & bit) != 0) {
      return reject("duplicate " + std::string(is_free ? "free" : "malloc") + " op for event " +
                        std::to_string(eid),
                    layout_.op_ref_off + i * 8);
    }
    seen[eid] |= bit;
  }
  // 2N in-range ops with no duplicates pigeonhole into exactly one malloc + one free per event.
  return true;
}

TraceCursor TraceView::Cursor() const {
  TraceCursor c;
  c.name_ = &name_;
  c.phases_ = &phases_;
  c.layers_ = &layers_;
  c.num_events_ = num_events();
  c.end_time_ = end_time_;
  c.op_time_ = op_time();
  c.op_ref_ = op_ref();
  c.ts_ = ts();
  c.te_ = te();
  c.size_ = sizes();
  c.ps_ = ps();
  c.pe_ = pe();
  c.ls_ = ls();
  c.le_ = le();
  c.flags_ = flags();
  c.stream_ = stream();
  return c;
}

}  // namespace stalloc
