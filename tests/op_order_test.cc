// Pins the op order a sealed Trace builds: the radix ordering in Trace::Validate() must equal,
// op for op, a comparator sort by (time, frees first, event id) — the order every replay,
// digest and v2 file depends on. The comparator is kept here as the reference. Covered: random
// traces with dense ticks, sparse ticks and same-tick free/malloc ties, every Fig. 8 cell at one
// seed, a serving day and the three synthetic mixes.

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/servesim/engine.h"
#include "src/servesim/request_gen.h"
#include "src/trace/synthetic.h"
#include "src/trace/trace.h"
#include "src/trainsim/model_config.h"
#include "src/trainsim/train_config.h"
#include "src/trainsim/workload.h"

namespace stalloc {
namespace {

// The reference order: every malloc and free, sorted by (time, frees first, event id).
std::vector<TraceOp> ReferenceOps(const Trace& trace) {
  std::vector<TraceOp> ops;
  ops.reserve(trace.size() * 2);
  for (uint64_t id = 0; id < trace.size(); ++id) {
    ops.push_back(TraceOp{TraceOp::Kind::kMalloc, trace.ts()[id], id});
    ops.push_back(TraceOp{TraceOp::Kind::kFree, trace.te()[id], id});
  }
  std::sort(ops.begin(), ops.end(), [](const TraceOp& a, const TraceOp& b) {
    if (a.time != b.time) {
      return a.time < b.time;
    }
    if (a.kind != b.kind) {
      return a.kind == TraceOp::Kind::kFree;
    }
    return a.event_id < b.event_id;
  });
  return ops;
}

void ExpectReferenceOrder(const Trace& trace, const std::string& label) {
  ASSERT_TRUE(trace.sealed()) << label;
  const std::vector<TraceOp> want = ReferenceOps(trace);
  const TraceOps got = trace.Ops();
  ASSERT_EQ(got.size(), want.size()) << label;
  for (size_t i = 0; i < want.size(); ++i) {
    const TraceOp op = got[i];
    ASSERT_TRUE(op.time == want[i].time && op.kind == want[i].kind &&
                op.event_id == want[i].event_id)
        << label << ": op " << i << " is (t=" << op.time << " free="
        << (op.kind == TraceOp::Kind::kFree) << " id=" << op.event_id << "), want (t="
        << want[i].time << " free=" << (want[i].kind == TraceOp::Kind::kFree)
        << " id=" << want[i].event_id << ")";
  }
}

// `n` events with ts drawn from [base, base + span) and lifespans from [1, max_life].
Trace RandomTrace(uint64_t seed, uint64_t n, uint64_t base, uint64_t span, uint64_t max_life) {
  Rng rng(seed);
  Trace t;
  for (uint64_t i = 0; i < n; ++i) {
    MemoryEvent e;
    e.size = 1 + rng.NextBelow(1 << 20);
    e.ts = base + rng.NextBelow(span);
    e.te = e.ts + 1 + rng.NextBelow(max_life);
    t.AddEvent(e);
  }
  t.Validate();
  return t;
}

TEST(OpOrder, RandomDenseTicks) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    ExpectReferenceOrder(RandomTrace(seed, 5000, 0, 10000, 64), "dense seed " + std::to_string(seed));
  }
}

TEST(OpOrder, RandomSparseTicks) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    ExpectReferenceOrder(RandomTrace(seed, 5000, 0, uint64_t{1} << 41, uint64_t{1} << 40),
                         "sparse seed " + std::to_string(seed));
  }
  // Times in the top digits of the 64-bit range, where the last radix digit is short.
  ExpectReferenceOrder(RandomTrace(99, 5000, uint64_t{1} << 62, uint64_t{1} << 61, 1 << 20),
                       "high bits");
}

TEST(OpOrder, SameTickFreeMallocTies) {
  // Few distinct ticks: most ticks carry frees and mallocs of many events at once.
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    ExpectReferenceOrder(RandomTrace(seed, 5000, 0, 8, 4), "ties seed " + std::to_string(seed));
  }
  // Every op on two ticks, sparse apart.
  Trace t;
  for (int i = 0; i < 100; ++i) {
    MemoryEvent e;
    e.size = 64;
    e.ts = i % 2 == 0 ? 7 : uint64_t{1} << 40;
    e.te = (uint64_t{1} << 40) + (i % 3 == 0 ? 0 : 5);
    if (e.te <= e.ts) {
      e.te = e.ts + 1;
    }
    t.AddEvent(e);
  }
  t.Validate();
  ExpectReferenceOrder(t, "two ticks");
  Trace empty;
  empty.Validate();
  ExpectReferenceOrder(empty, "empty");
}

TEST(OpOrder, Fig8CellsAtOneSeed) {
  struct ModelSetup {
    const char* model;
    ParallelConfig parallel;
    uint64_t micro_batch;
  };
  const ModelSetup setups[] = {
      {"gpt2", {/*tp=*/1, /*pp=*/2, /*dp=*/4, /*ep=*/1, /*vpp=*/1}, 64},
      {"llama2-7b", {/*tp=*/2, /*pp=*/2, /*dp=*/2, /*ep=*/1, /*vpp=*/1}, 4},
      {"qwen1.5-moe", {/*tp=*/1, /*pp=*/2, /*dp=*/4, /*ep=*/4, /*vpp=*/1}, 8},
  };
  int cells = 0;
  for (const ModelSetup& setup : setups) {
    TrainConfig base;
    base.parallel = setup.parallel;
    base.num_microbatches = 8;
    for (const char* tag : {"N", "R", "V", "VR", "ZR", "ZOR"}) {
      for (int rank : {0, setup.parallel.pp - 1}) {
        TrainConfig train = ApplyConfigTag(base, tag);
        train.micro_batch_size = setup.micro_batch;
        train.rank = rank;
        const Trace trace = WorkloadBuilder(ModelByName(setup.model), train).Build(2002);
        ExpectReferenceOrder(trace, std::string(setup.model) + " " + tag + " rank" +
                                        std::to_string(rank));
        ++cells;
      }
    }
  }
  EXPECT_EQ(cells, 36);
}

TEST(OpOrder, ServingDay) {
  const ServeTraceResult day =
      BuildServeTrace(ModelByName("gpt2"), ChatScenario(), EngineConfig{}, /*seed=*/7);
  ExpectReferenceOrder(day.trace, "serving chat day");
}

TEST(OpOrder, SyntheticMixes) {
  for (SyntheticMix mix : {SyntheticMix::kStorm, SyntheticMix::kTraining, SyntheticMix::kServing}) {
    SyntheticSpec spec;
    spec.mix = mix;
    spec.num_ops = 200000;
    spec.seed = 5;
    ExpectReferenceOrder(BuildSyntheticTrace(spec), SyntheticMixName(mix));
  }
}

}  // namespace
}  // namespace stalloc
