#include "src/trace/trace.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>

#include "src/trace/trace_io.h"
#include "src/trace/trace_stats.h"

namespace stalloc {
namespace {

Trace MakeSimpleTrace() {
  Trace t;
  t.set_name("simple");
  PhaseId init = t.AddPhase({PhaseKind::kIterInit, -1, -1, 0, 2});
  PhaseId fwd = t.AddPhase({PhaseKind::kForward, 0, 0, 2, 6});
  PhaseId bwd = t.AddPhase({PhaseKind::kBackward, 0, 0, 6, 10});
  LayerId l0 = t.AddLayer({"fwd/l0", 2, 4});
  LayerId l1 = t.AddLayer({"bwd/l0", 6, 8});

  MemoryEvent weights;  // persistent
  weights.size = 4096;
  weights.ts = 0;
  weights.te = 10;
  weights.ps = init;
  weights.pe = bwd;
  t.AddEvent(weights);

  MemoryEvent act;  // scoped: fwd -> bwd
  act.size = 2048;
  act.ts = 3;
  act.te = 7;
  act.ps = fwd;
  act.pe = bwd;
  t.AddEvent(act);

  MemoryEvent tmp;  // transient within fwd
  tmp.size = 1024;
  tmp.ts = 4;
  tmp.te = 5;
  tmp.ps = fwd;
  tmp.pe = fwd;
  t.AddEvent(tmp);

  MemoryEvent dyn;  // dynamic (expert) event
  dyn.size = 512;
  dyn.ts = 3;
  dyn.te = 7;
  dyn.ps = fwd;
  dyn.pe = bwd;
  dyn.dyn = true;
  dyn.ls = l0;
  dyn.le = l1;
  t.AddEvent(dyn);
  t.Validate();
  return t;
}

TEST(Trace, AssignsDenseIds) {
  Trace t = MakeSimpleTrace();
  for (size_t i = 0; i < t.size(); ++i) {
    EXPECT_EQ(t.Event(i).id, i);
  }
}

TEST(Trace, EndTimeIsMaxTe) {
  Trace t = MakeSimpleTrace();
  EXPECT_EQ(t.end_time(), 10u);
}

TEST(Trace, ClassifiesLifespans) {
  Trace t = MakeSimpleTrace();
  EXPECT_EQ(t.Classify(t.Event(0)), LifespanClass::kPersistent);
  EXPECT_EQ(t.Classify(t.Event(1)), LifespanClass::kScoped);
  EXPECT_EQ(t.Classify(t.Event(2)), LifespanClass::kTransient);
  EXPECT_EQ(t.Classify(t.Event(3)), LifespanClass::kScoped);
}

TEST(Trace, OpsAreTimeOrderedWithFreesFirst) {
  Trace t = MakeSimpleTrace();
  auto ops = t.Ops();
  ASSERT_EQ(ops.size(), t.size() * 2);
  for (size_t i = 1; i < ops.size(); ++i) {
    EXPECT_LE(ops[i - 1].time, ops[i].time);
    if (ops[i - 1].time == ops[i].time) {
      // Frees must not come after mallocs at the same tick.
      EXPECT_FALSE(ops[i - 1].kind == TraceOp::Kind::kMalloc &&
                   ops[i].kind == TraceOp::Kind::kFree);
    }
  }
}

TEST(Trace, ValidateAcceptsWellFormed) {
  Trace t = MakeSimpleTrace();
  t.Validate();  // must not abort
}

TEST(TraceDeathTest, AddEventRejectsEmptyLifespan) {
  Trace t;
  MemoryEvent e;
  e.size = 512;
  e.ts = 5;
  e.te = 5;
  EXPECT_DEATH(t.AddEvent(e), "positive lifespan");
}

TEST(TraceDeathTest, CloseEventOnAClosedOrUnknownEventDies) {
  Trace t;
  const uint64_t id = t.OpenEvent(512, 1, kInvalidPhase, kInvalidLayer, false, kComputeStream);
  t.CloseEvent(id, 2, kInvalidPhase, kInvalidLayer);
  EXPECT_DEATH(t.CloseEvent(id, 3, kInvalidPhase, kInvalidLayer), "event 0, which is not open");
  EXPECT_DEATH(t.CloseEvent(1, 3, kInvalidPhase, kInvalidLayer), "event 1, which is not open");
}

TEST(TraceDeathTest, CloseEventRejectsEmptyOrNegativeLifespan) {
  Trace t;
  const uint64_t id = t.OpenEvent(512, 5, kInvalidPhase, kInvalidLayer, false, kComputeStream);
  EXPECT_DEATH(t.CloseEvent(id, 5, kInvalidPhase, kInvalidLayer), "positive lifespan");
  EXPECT_DEATH(t.CloseEvent(id, 4, kInvalidPhase, kInvalidLayer), "positive lifespan");
}

TEST(TraceDeathTest, OpenEventAfterSealDies) {
  Trace t = MakeSimpleTrace();
  EXPECT_DEATH(t.OpenEvent(512, 1, kInvalidPhase, kInvalidLayer, false, kComputeStream),
               "sealed trace");
}

TEST(Trace, OpenedAndClosedEventsMatchAddEvent) {
  Trace opened;
  const uint64_t a = opened.OpenEvent(4096, 0, kInvalidPhase, kInvalidLayer, false, kP2pStream);
  const uint64_t b = opened.OpenEvent(512, 1, kInvalidPhase, kInvalidLayer, false, kComputeStream);
  opened.CloseEvent(b, 2, kInvalidPhase, kInvalidLayer);
  opened.CloseEvent(a, 3, kInvalidPhase, kInvalidLayer);
  opened.Validate();
  EXPECT_EQ(a, 0u);
  EXPECT_EQ(b, 1u);
  EXPECT_EQ(opened.end_time(), 3u);
  const MemoryEvent first = opened.Event(0);
  EXPECT_EQ(first.size, 4096u);
  EXPECT_EQ(first.ts, 0u);
  EXPECT_EQ(first.te, 3u);
  EXPECT_EQ(first.stream, kP2pStream);
  EXPECT_EQ(opened.Event(1).te, 2u);
}

TEST(Trace, ValidRejectsAnOpenEventAndLeavesTraceUnsealed) {
  Trace t;
  t.OpenEvent(512, 1, kInvalidPhase, kInvalidLayer, false, kComputeStream);
  const uint64_t left_open =
      t.OpenEvent(256, 2, kInvalidPhase, kInvalidLayer, false, kComputeStream);
  t.CloseEvent(0, 3, kInvalidPhase, kInvalidLayer);
  std::string error;
  EXPECT_FALSE(t.Valid(&error));
  EXPECT_EQ(error, "event " + std::to_string(left_open) + " was opened but never closed");
  EXPECT_FALSE(t.sealed());
  // Closing it makes the same trace valid.
  t.CloseEvent(left_open, 4, kInvalidPhase, kInvalidLayer);
  EXPECT_TRUE(t.Valid(&error)) << error;
  EXPECT_TRUE(t.sealed());
}

TEST(TraceDeathTest, AddEventAfterSealDies) {
  Trace t = MakeSimpleTrace();
  MemoryEvent e;
  e.size = 512;
  e.ts = 1;
  e.te = 2;
  EXPECT_DEATH(t.AddEvent(e), "sealed trace");
}

TEST(TraceDeathTest, OpsOnUnsealedTraceDies) {
  Trace t;
  MemoryEvent e;
  e.size = 512;
  e.ts = 1;
  e.te = 2;
  t.AddEvent(e);
  EXPECT_DEATH(t.Ops(), "not sealed");
  EXPECT_DEATH(t.Cursor(), "not sealed");
}

TEST(Trace, ValidRejectsBadPhaseAndLeavesTraceUnsealed) {
  Trace t;
  MemoryEvent e;
  e.size = 512;
  e.ts = 1;
  e.te = 2;
  e.ps = 3;  // no phases exist
  t.AddEvent(e);
  std::string error;
  EXPECT_FALSE(t.Valid(&error));
  EXPECT_NE(error.find("invalid phase"), std::string::npos) << error;
  EXPECT_FALSE(t.sealed());
}

TEST(TraceStats, PeakAllocatedSweep) {
  Trace t = MakeSimpleTrace();
  // Live bytes: weights 4096 throughout; act+dyn from t=3 (2048+512); tmp 1024 on [4,5).
  // Peak = 4096 + 2048 + 512 + 1024 = 7680 on [4,5).
  EXPECT_EQ(PeakAllocated(t), 7680u);
}

TEST(TraceStats, ComputeStatsCounts) {
  Trace t = MakeSimpleTrace();
  TraceStats stats = ComputeStats(t, /*min_size_filter=*/512);
  EXPECT_EQ(stats.num_events, 4u);
  EXPECT_EQ(stats.num_dynamic, 1u);
  EXPECT_EQ(stats.num_static, 3u);
  EXPECT_EQ(stats.persistent_count, 1u);
  EXPECT_EQ(stats.scoped_count, 2u);
  EXPECT_EQ(stats.transient_count, 1u);
  // Sizes > 512: 4096, 2048, 1024 -> 3 distinct.
  EXPECT_EQ(stats.distinct_sizes, 3u);
  EXPECT_EQ(stats.peak_allocated, 7680u);
}

TEST(TraceStats, LiveBytesCurveEndsAtZero) {
  Trace t = MakeSimpleTrace();
  auto curve = LiveBytesCurve(t);
  ASSERT_FALSE(curve.empty());
  EXPECT_EQ(curve.back().second, 0u);
}

TEST(TraceIo, CsvRoundtrip) {
  Trace t = MakeSimpleTrace();
  std::stringstream ss;
  WriteTraceCsv(t, ss);
  Trace back;
  TraceIoError err;
  ASSERT_TRUE(ReadTraceCsv(ss, &back, &err)) << err.ToString();
  ASSERT_EQ(back.size(), t.size());
  EXPECT_EQ(back.name(), t.name());
  EXPECT_EQ(back.phases().size(), t.phases().size());
  EXPECT_EQ(back.layers().size(), t.layers().size());
  for (size_t i = 0; i < t.size(); ++i) {
    const auto& a = t.Event(i);
    const auto& b = back.Event(i);
    EXPECT_EQ(a.size, b.size);
    EXPECT_EQ(a.ts, b.ts);
    EXPECT_EQ(a.te, b.te);
    EXPECT_EQ(a.ps, b.ps);
    EXPECT_EQ(a.pe, b.pe);
    EXPECT_EQ(a.dyn, b.dyn);
    EXPECT_EQ(a.ls, b.ls);
    EXPECT_EQ(a.le, b.le);
  }
  // Layer metadata (windows) survives the roundtrip — required for dynamic planning.
  EXPECT_EQ(back.layer(0).start, t.layer(0).start);
  EXPECT_EQ(back.layer(0).end, t.layer(0).end);
}

TEST(PhaseInfo, ToStringFormat) {
  PhaseInfo p{PhaseKind::kForward, 3, 1, 0, 0};
  EXPECT_EQ(p.ToString(), "fwd/mb3/c1");
  PhaseInfo init{PhaseKind::kIterInit, -1, -1, 0, 0};
  EXPECT_EQ(init.ToString(), "init");
}

}  // namespace
}  // namespace stalloc
