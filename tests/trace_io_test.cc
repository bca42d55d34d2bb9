// Round-trip coverage for src/trace/trace_io.* and the columnar v2 format: CSV and v2
// serialization must be lossless, and a write -> read -> re-write cycle must reproduce the first
// serialization byte-for-byte (the determinism contract external plan-synthesis tooling relies
// on, §8).

#include "src/trace/trace_io.h"

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "src/trace/trace_v2.h"

#include <gtest/gtest.h>

#include "src/servesim/engine.h"
#include "src/servesim/request_gen.h"
#include "src/trainsim/model_config.h"
#include "src/trainsim/workload.h"

namespace stalloc {
namespace {

Trace TinyTrace() {
  Trace t;
  t.set_name("tiny");
  PhaseId init = t.AddPhase(PhaseInfo{PhaseKind::kIterInit, -1, -1, 0, 2});
  PhaseId fwd = t.AddPhase(PhaseInfo{PhaseKind::kForward, 0, -1, 2, 5});
  LayerId layer = t.AddLayer(LayerInfo{"expert0", 2, 5});
  MemoryEvent weight;
  weight.size = 4096;
  weight.ts = 0;
  weight.te = 5;
  weight.ps = init;
  weight.pe = fwd;
  t.AddEvent(weight);
  MemoryEvent dyn;
  dyn.size = 1536;
  dyn.ts = 2;
  dyn.te = 4;
  dyn.ps = fwd;
  dyn.pe = fwd;
  dyn.dyn = true;
  dyn.ls = layer;
  dyn.le = layer;
  dyn.stream = kA2aStream;
  t.AddEvent(dyn);
  t.Validate();
  return t;
}

Trace TrainingTrace() {
  TrainConfig config;
  config.parallel.pp = 2;
  config.num_microbatches = 2;
  config.micro_batch_size = 2;
  return WorkloadBuilder(ModelByName("gpt2"), config).Build(7);
}

Trace ServingTrace() {
  ServeScenario scenario = ChatScenario();
  scenario.num_requests = 8;
  return BuildServeTrace(ModelByName("gpt2"), scenario, EngineConfig{}, 7).trace;
}

std::string CsvOf(const Trace& t) {
  std::ostringstream os;
  WriteTraceCsv(t, os);
  return os.str();
}

void ExpectTracesEqual(const Trace& a, const Trace& b) {
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(a.name(), b.name());
  ASSERT_EQ(a.phases().size(), b.phases().size());
  ASSERT_EQ(a.layers().size(), b.layers().size());
  for (size_t i = 0; i < a.size(); ++i) {
    const MemoryEvent ea = a.Event(i);
    const MemoryEvent eb = b.Event(i);
    EXPECT_EQ(ea.size, eb.size) << i;
    EXPECT_EQ(ea.ts, eb.ts) << i;
    EXPECT_EQ(ea.te, eb.te) << i;
    EXPECT_EQ(ea.ps, eb.ps) << i;
    EXPECT_EQ(ea.pe, eb.pe) << i;
    EXPECT_EQ(ea.dyn, eb.dyn) << i;
    EXPECT_EQ(ea.ls, eb.ls) << i;
    EXPECT_EQ(ea.le, eb.le) << i;
    EXPECT_EQ(ea.stream, eb.stream) << i;
  }
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  std::ostringstream os;
  os << is.rdbuf();
  return os.str();
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

TEST(TraceIo, CsvRoundTripIsByteIdentical) {
  for (const Trace& original : {TinyTrace(), TrainingTrace(), ServingTrace()}) {
    const std::string first = CsvOf(original);
    std::istringstream is(first);
    Trace reread;
    TraceIoError err;
    ASSERT_TRUE(ReadTraceCsv(is, &reread, &err)) << err.ToString();
    ExpectTracesEqual(original, reread);
    EXPECT_EQ(first, CsvOf(reread)) << "re-serialization must be byte-identical";
  }
}

TEST(TraceIo, WriteToUnwritablePathFails) {
  EXPECT_FALSE(WriteTraceCsvFile(TinyTrace(), "/nonexistent-dir/trace.csv"));
  EXPECT_FALSE(WriteTraceV2File(TinyTrace(), "/nonexistent-dir/trace.stlc"));
}

TEST(TraceIo, ReadersReportMissingFiles) {
  Trace out;
  TraceIoError err;
  EXPECT_FALSE(ReadTraceCsvFile("/nonexistent-dir/trace.csv", &out, &err));
  EXPECT_FALSE(ReadTraceAnyFile("/nonexistent-dir/trace.any", &out, &err));
  TraceView view;
  EXPECT_FALSE(view.Open("/nonexistent-dir/trace.stlc", &err));
}

TEST(TraceIo, CsvRejectsMalformedRowWithByteOffset) {
  const std::string good = CsvOf(TinyTrace());
  // Replace the last event row's size field with garbage; the reported offset must point at
  // the start of that row, not 0 and not EOF.
  const size_t header_end = good.find("id,size");
  const size_t row2 = good.find('\n', good.find('\n', header_end) + 1) + 1;
  std::string bad = good.substr(0, row2) + "1,notanumber,2,4,1,1,1,0,0,4\n";
  std::istringstream is(bad);
  Trace out;
  TraceIoError err;
  ASSERT_FALSE(ReadTraceCsv(is, &out, &err));
  EXPECT_NE(err.message.find("malformed"), std::string::npos) << err.message;
  EXPECT_EQ(err.byte_offset, row2);
}

TEST(TraceIo, CsvRejectsNonPositiveLifespan) {
  std::istringstream is("id,size,ts,te,ps,pe,dyn,ls,le,stream\n0,64,5,5,-1,-1,0,-1,-1,0\n");
  Trace out;
  TraceIoError err;
  ASSERT_FALSE(ReadTraceCsv(is, &out, &err));
  EXPECT_NE(err.message.find("lifespan"), std::string::npos) << err.message;
}

// Ids are positions everywhere downstream (plans, the C-ABI client, v2 columns), so a CSV whose
// index columns disagree with their row order must be rejected, not silently renumbered.
constexpr char kCsvHead[] = "# stalloc-trace v1\n# name,ordered\n";
constexpr char kCsvPhases[] = "# phase,0,1,0,-1,0,4\n# phase,1,2,0,-1,4,8\n";
constexpr char kCsvColumns[] = "id,size,ts,te,ps,pe,dyn,ls,le,stream\n";
constexpr char kCsvRows[] = "0,64,0,5,0,1,0,-1,-1,0\n1,64,1,3,0,0,0,-1,-1,0\n";

// Reads `csv` expecting a rejection whose message contains `what`, located at the start of
// the line `bad_line`.
void ExpectCsvRejected(const std::string& csv, const std::string& bad_line,
                       const std::string& what) {
  std::istringstream is(csv);
  Trace out;
  TraceIoError err;
  ASSERT_FALSE(ReadTraceCsv(is, &out, &err)) << csv;
  EXPECT_NE(err.message.find(what), std::string::npos) << err.message;
  EXPECT_EQ(err.byte_offset, csv.find(bad_line)) << err.message;
}

TEST(TraceIo, CsvAcceptsIndicesInRowOrder) {
  std::istringstream is(std::string(kCsvHead) + kCsvPhases + kCsvColumns + kCsvRows);
  Trace out;
  TraceIoError err;
  ASSERT_TRUE(ReadTraceCsv(is, &out, &err)) << err.ToString();
  EXPECT_EQ(out.size(), 2u);
  EXPECT_EQ(out.phase(1).kind, PhaseKind::kBackward);
}

TEST(TraceIo, CsvRejectsEventIdsOutOfRowOrder) {
  const std::string rows = "7,64,0,5,0,1,0,-1,-1,0\n3,64,1,3,0,0,0,-1,-1,0\n";
  ExpectCsvRejected(std::string(kCsvHead) + kCsvPhases + kCsvColumns + rows, "7,64",
                    "event id out of row order");
  // A later row out of place is caught at its own line.
  const std::string late = "0,64,0,5,0,1,0,-1,-1,0\n0,64,1,3,0,0,0,-1,-1,0\n";
  const std::string csv = std::string(kCsvHead) + kCsvPhases + kCsvColumns + late;
  ExpectCsvRejected(csv, csv.substr(csv.rfind("0,64,1")), "event id out of row order");
}

TEST(TraceIo, CsvRejectsPhaseAndLayerIndicesOutOfRowOrder) {
  const std::string swapped = "# phase,1,2,0,-1,4,8\n# phase,0,1,0,-1,0,4\n";
  ExpectCsvRejected(std::string(kCsvHead) + swapped + kCsvColumns + kCsvRows, "# phase,1",
                    "phase index out of row order");
  const std::string layers = "# layer,0,l0,0,4\n# layer,2,l1,4,8\n";
  ExpectCsvRejected(std::string(kCsvHead) + kCsvPhases + layers + kCsvColumns + kCsvRows,
                    "# layer,2", "layer index out of row order");
}

TEST(TraceIo, CsvRejectsUnknownPhaseKind) {
  for (const char* kind : {"9", "-1", "4"}) {
    const std::string bad_phase = std::string("# phase,0,") + kind + ",0,-1,0,4\n";
    ExpectCsvRejected(std::string(kCsvHead) + bad_phase + "# phase,1,2,0,-1,4,8\n" +
                          kCsvColumns + kCsvRows,
                      bad_phase, "unknown phase kind");
  }
}

TEST(TraceIo, CsvAndV2Agree) {
  const Trace original = TrainingTrace();
  const std::string path = ::testing::TempDir() + "/trace_io_agree.stlc";
  ASSERT_TRUE(WriteTraceV2File(original, path));
  TraceView view;
  TraceIoError err;
  ASSERT_TRUE(view.Open(path, &err)) << err.ToString();
  EXPECT_EQ(CsvOf(original), CsvOf(view.Materialize()));
  std::remove(path.c_str());
}

TEST(TraceIo, FileRoundTrip) {
  const Trace original = TinyTrace();
  const std::string csv_path = ::testing::TempDir() + "/trace_io_test.csv";
  const std::string v2_path = ::testing::TempDir() + "/trace_io_test.stlc";
  ASSERT_TRUE(WriteTraceCsvFile(original, csv_path));
  ASSERT_TRUE(WriteTraceV2File(original, v2_path));
  Trace from_csv;
  TraceIoError err;
  ASSERT_TRUE(ReadTraceCsvFile(csv_path, &from_csv, &err)) << err.ToString();
  TraceView view;
  ASSERT_TRUE(view.Open(v2_path, &err)) << err.ToString();
  ExpectTracesEqual(original, from_csv);
  ExpectTracesEqual(original, view.Materialize());
  std::remove(csv_path.c_str());
  std::remove(v2_path.c_str());
}

// An old "STLB" row-binary trace falls through to the CSV reader, whose header check turns it
// into an ordinary error — never an abort.
TEST(TraceIo, LegacyV1FileIsRejectedNotAborted) {
  const std::string path = ::testing::TempDir() + "/trace_io_legacy.bin";
  std::string v1("STLB\x01\0\0\0", 8);     // magic + version 1
  v1.append("\x04\0\0\0tiny", 8);          // name
  v1.append(std::string(4 + 4 + 8, '\0'));  // no phases, no layers, no events
  WriteFileBytes(path, v1);
  Trace out;
  TraceIoError err;
  EXPECT_FALSE(ReadTraceAnyFile(path, &out, &err));
  EXPECT_NE(err.message.find("unexpected trace CSV header: STLB"), std::string::npos)
      << err.message;
  EXPECT_EQ(err.byte_offset, 0u);
  std::remove(path.c_str());
}

// --- columnar v2 ---

TEST(TraceV2, BulkRoundTripMaterializesIdentically) {
  for (const Trace& original : {TinyTrace(), TrainingTrace(), ServingTrace()}) {
    const std::string path = ::testing::TempDir() + "/trace_v2_roundtrip.stlc";
    ASSERT_TRUE(WriteTraceV2File(original, path));
    TraceView view;
    TraceIoError err;
    ASSERT_TRUE(view.Open(path, &err)) << err.ToString();
    EXPECT_EQ(view.num_events(), original.size());
    EXPECT_EQ(view.num_ops(), original.Ops().size());
    EXPECT_EQ(view.end_time(), original.end_time());
    EXPECT_EQ(view.name(), original.name());
    Trace materialized = view.Materialize();
    ExpectTracesEqual(original, materialized);
    // Event ids carry over verbatim, so re-converting reproduces the file byte-for-byte.
    const std::string path2 = ::testing::TempDir() + "/trace_v2_roundtrip2.stlc";
    ASSERT_TRUE(WriteTraceV2File(materialized, path2));
    EXPECT_EQ(ReadFileBytes(path), ReadFileBytes(path2));
    std::remove(path.c_str());
    std::remove(path2.c_str());
  }
}

TEST(TraceV2, ViewColumnsMatchEvents) {
  const Trace original = TinyTrace();
  const std::string path = ::testing::TempDir() + "/trace_v2_columns.stlc";
  ASSERT_TRUE(WriteTraceV2File(original, path));
  TraceView view;
  TraceIoError err;
  ASSERT_TRUE(view.Open(path, &err)) << err.ToString();
  for (uint64_t i = 0; i < view.num_events(); ++i) {
    const MemoryEvent want = original.Event(i);
    EXPECT_EQ(view.ts()[i], want.ts);
    EXPECT_EQ(view.te()[i], want.te);
    EXPECT_EQ(view.sizes()[i], want.size);
    EXPECT_EQ(view.ps()[i], want.ps);
    EXPECT_EQ(view.pe()[i], want.pe);
    EXPECT_EQ(view.ls()[i], want.ls);
    EXPECT_EQ(view.le()[i], want.le);
    EXPECT_EQ((view.flags()[i] & 1) != 0, want.dyn);
    EXPECT_EQ(view.stream()[i], want.stream);
  }
  // Op columns persist Trace::Ops() order exactly.
  const auto& ops = original.Ops();
  for (size_t i = 0; i < ops.size(); ++i) {
    EXPECT_EQ(view.op_time()[i], ops[i].time);
    EXPECT_EQ(view.op_ref()[i] >> 1, ops[i].event_id);
    EXPECT_EQ((view.op_ref()[i] & 1) != 0, ops[i].kind == TraceOp::Kind::kFree);
  }
  std::remove(path.c_str());
}

TEST(TraceV2, StreamWriterMatchesBulkWriterByteForByte) {
  // Interleaved lifetimes emitted in op order: open order == id order, but closes interleave.
  const std::string stream_path = ::testing::TempDir() + "/trace_v2_stream.stlc";
  TraceV2StreamWriter w(stream_path, 3, "streamed");
  ASSERT_TRUE(w.ok());
  PhaseId p = w.AddPhase(PhaseInfo{PhaseKind::kForward, 0, -1, 0, 6});
  const uint64_t e0 = w.OpenEvent(1024, 0, p, kInvalidLayer, false, kComputeStream);
  const uint64_t e1 = w.OpenEvent(2048, 1, p, kInvalidLayer, false, kP2pStream);
  w.CloseEvent(e0, 2, p, kInvalidLayer);
  const uint64_t e2 = w.OpenEvent(512, 3, p, kInvalidLayer, false, kComputeStream);
  w.CloseEvent(e1, 4, p, kInvalidLayer);
  w.CloseEvent(e2, 5, p, kInvalidLayer);
  ASSERT_TRUE(w.Finish());

  Trace t;
  t.set_name("streamed");
  PhaseId tp = t.AddPhase(PhaseInfo{PhaseKind::kForward, 0, -1, 0, 6});
  MemoryEvent a;
  a.size = 1024;
  a.ts = 0;
  a.te = 2;
  a.ps = tp;
  a.pe = tp;
  t.AddEvent(a);
  MemoryEvent b;
  b.size = 2048;
  b.ts = 1;
  b.te = 4;
  b.ps = tp;
  b.pe = tp;
  b.stream = kP2pStream;
  t.AddEvent(b);
  MemoryEvent c;
  c.size = 512;
  c.ts = 3;
  c.te = 5;
  c.ps = tp;
  c.pe = tp;
  t.AddEvent(c);
  t.Validate();
  const std::string bulk_path = ::testing::TempDir() + "/trace_v2_bulk.stlc";
  ASSERT_TRUE(WriteTraceV2File(t, bulk_path));
  EXPECT_EQ(ReadFileBytes(stream_path), ReadFileBytes(bulk_path));
  std::remove(stream_path.c_str());
  std::remove(bulk_path.c_str());
}

TEST(TraceV2, EmptyAndSingleEventTraces) {
  const std::string path = ::testing::TempDir() + "/trace_v2_edge.stlc";
  Trace empty;
  empty.set_name("empty");
  empty.Validate();
  ASSERT_TRUE(WriteTraceV2File(empty, path));
  {
    TraceView view;
    TraceIoError err;
    ASSERT_TRUE(view.Open(path, &err)) << err.ToString();
    EXPECT_EQ(view.num_events(), 0u);
    EXPECT_EQ(view.end_time(), 0u);
    EXPECT_TRUE(view.Materialize().empty());
  }
  Trace single;
  MemoryEvent e;
  e.size = 4096;
  e.ts = 1;
  e.te = 9;
  single.AddEvent(e);
  single.Validate();
  ASSERT_TRUE(WriteTraceV2File(single, path));
  {
    TraceView view;
    TraceIoError err;
    ASSERT_TRUE(view.Open(path, &err)) << err.ToString();
    EXPECT_EQ(view.num_events(), 1u);
    EXPECT_EQ(view.end_time(), 9u);
    ExpectTracesEqual(single, view.Materialize());
  }
  std::remove(path.c_str());
}

TEST(TraceV2, RejectsTruncationAnywhere) {
  const std::string path = ::testing::TempDir() + "/trace_v2_trunc.stlc";
  ASSERT_TRUE(WriteTraceV2File(TinyTrace(), path));
  const std::string full = ReadFileBytes(path);
  // Chop at a spread of prefixes: header-only, mid-column, missing trailer byte.
  for (size_t keep : {size_t{0}, size_t{16}, size_t{40}, full.size() / 2, full.size() - 1}) {
    WriteFileBytes(path, full.substr(0, keep));
    TraceView view;
    TraceIoError err;
    EXPECT_FALSE(view.Open(path, &err)) << "accepted a " << keep << "-byte prefix";
    EXPECT_FALSE(view.is_open());
  }
  std::remove(path.c_str());
}

TEST(TraceV2, RejectsCorruptedColumns) {
  const std::string path = ::testing::TempDir() + "/trace_v2_corrupt.stlc";
  const Trace original = TinyTrace();
  ASSERT_TRUE(WriteTraceV2File(original, path));
  const std::string full = ReadFileBytes(path);
  const TraceV2Layout layout = TraceV2Layout::For(original.size());
  // A deterministic fuzz sweep: flip a byte in each cross-checked section and expect the
  // validator to notice. Columns without a redundant partner (e.g. size — any nonzero value
  // is a legal size) can absorb a flip, so the sweep targets the time/op columns where the
  // op_time ↔ ts/te cross-check and the order invariant catch every perturbation.
  struct Target {
    uint64_t off;
    const char* what;
  };
  const Target targets[] = {
      {0, "magic"},
      {layout.ts_off, "ts column"},
      {layout.te_off, "te column"},
      {layout.op_time_off, "op_time column"},
      {layout.op_ref_off, "op_ref column"},
  };
  for (const Target& t : targets) {
    std::string bad = full;
    bad[t.off] = static_cast<char>(bad[t.off] ^ 0x5a);
    WriteFileBytes(path, bad);
    TraceView view;
    TraceIoError err;
    EXPECT_FALSE(view.Open(path, &err)) << "corruption in " << t.what << " went undetected";
  }
  // And ReadTraceAnyFile surfaces the same rejection instead of crashing.
  std::string bad = full;
  bad[layout.op_ref_off] = static_cast<char>(bad[layout.op_ref_off] ^ 0x5a);
  WriteFileBytes(path, bad);
  Trace out;
  TraceIoError err;
  EXPECT_FALSE(ReadTraceAnyFile(path, &out, &err));
  std::remove(path.c_str());
}

TEST(TraceV2, RejectsUnknownPhaseKind) {
  const std::string path = ::testing::TempDir() + "/trace_v2_phase_kind.stlc";
  const Trace original = TinyTrace();
  ASSERT_TRUE(WriteTraceV2File(original, path));
  std::string bad = ReadFileBytes(path);
  // Footer: name (u32 length + bytes), phase count (u32), then 25-byte phase records (kind u8,
  // microbatch and chunk i32, start and end u64); patch the second record's kind byte.
  const uint64_t kind_off = TraceV2Layout::For(original.size()).columns_end + 4 +
                            original.name().size() + 4 + 25;
  ASSERT_EQ(bad[kind_off], static_cast<char>(PhaseKind::kForward));
  bad[kind_off] = 9;
  WriteFileBytes(path, bad);
  TraceView view;
  TraceIoError err;
  EXPECT_FALSE(view.Open(path, &err));
  EXPECT_NE(err.message.find("unknown phase kind 9"), std::string::npos) << err.message;
  EXPECT_EQ(err.byte_offset, kind_off);
  std::remove(path.c_str());
}

TEST(TraceV2, ReadTraceAnyFileSniffsAllFormats) {
  const Trace original = TinyTrace();
  const std::string csv_path = ::testing::TempDir() + "/trace_any.csv";
  const std::string v2_path = ::testing::TempDir() + "/trace_any.stlc";
  ASSERT_TRUE(WriteTraceCsvFile(original, csv_path));
  ASSERT_TRUE(WriteTraceV2File(original, v2_path));
  for (const std::string& path : {csv_path, v2_path}) {
    Trace out;
    TraceIoError err;
    ASSERT_TRUE(ReadTraceAnyFile(path, &out, &err)) << path << ": " << err.ToString();
    ExpectTracesEqual(original, out);
  }
  std::remove(csv_path.c_str());
  std::remove(v2_path.c_str());
}

}  // namespace
}  // namespace stalloc
