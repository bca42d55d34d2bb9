// servesim coverage: deterministic request generation, engine trace well-formedness,
// continuous-batching invariants and preemption-with-recompute under memory pressure.

#include <algorithm>
#include <set>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "src/common/units.h"
#include "src/servesim/engine.h"
#include "src/servesim/request_gen.h"
#include "src/trace/trace_io.h"
#include "src/trace/trace_stats.h"
#include "src/trainsim/model_config.h"
#include "tests/support/trace_digest.h"

namespace stalloc {
namespace {

std::string CsvOf(const Trace& t) {
  std::ostringstream os;
  WriteTraceCsv(t, os);
  return os.str();
}

TEST(RequestGen, DeterministicPerSeed) {
  for (const std::string& name : ScenarioNames()) {
    const ServeScenario scenario = ScenarioByName(name);
    auto a = GenerateRequests(scenario, 11);
    auto b = GenerateRequests(scenario, 11);
    ASSERT_EQ(a.size(), b.size()) << name;
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].arrival_step, b[i].arrival_step);
      EXPECT_EQ(a[i].prompt_tokens, b[i].prompt_tokens);
      EXPECT_EQ(a[i].output_tokens, b[i].output_tokens);
    }
    // A different seed must actually change the stream.
    auto c = GenerateRequests(scenario, 12);
    bool differs = false;
    for (size_t i = 0; i < a.size(); ++i) {
      differs |= a[i].prompt_tokens != c[i].prompt_tokens ||
                 a[i].arrival_step != c[i].arrival_step;
    }
    EXPECT_TRUE(differs) << name;
  }
}

TEST(RequestGen, StreamsAreWellFormed) {
  for (const std::string& name : ScenarioNames()) {
    const ServeScenario scenario = ScenarioByName(name);
    auto reqs = GenerateRequests(scenario, 3);
    ASSERT_EQ(reqs.size(), scenario.num_requests);
    for (size_t i = 0; i < reqs.size(); ++i) {
      EXPECT_EQ(reqs[i].id, i);
      EXPECT_GE(reqs[i].prompt_tokens, 1u);
      EXPECT_GE(reqs[i].output_tokens, 1u);
      if (i > 0) {
        EXPECT_GE(reqs[i].arrival_step, reqs[i - 1].arrival_step) << name;
      }
    }
  }
}

TEST(RequestGen, BatchScenarioArrivesAtStepZero) {
  for (const auto& r : GenerateRequests(BatchOfflineScenario(), 5)) {
    EXPECT_EQ(r.arrival_step, 0u);
  }
}

TEST(RequestGen, ScenarioByNameCoversAllPresets) {
  for (const std::string& name : ScenarioNames()) {
    EXPECT_EQ(ScenarioByName(name).name, name);
  }
}

TEST(Engine, TraceIsByteIdenticalPerSeed) {
  const ModelConfig model = ModelByName("gpt2");
  for (const std::string& name : ScenarioNames()) {
    ServeScenario scenario = ScenarioByName(name);
    scenario.num_requests = std::min<uint32_t>(scenario.num_requests, 16);
    ServeTraceResult a = BuildServeTrace(model, scenario, EngineConfig{}, 99);
    ServeTraceResult b = BuildServeTrace(model, scenario, EngineConfig{}, 99);
    EXPECT_EQ(CsvOf(a.trace), CsvOf(b.trace)) << name;
    ServeTraceResult c = BuildServeTrace(model, scenario, EngineConfig{}, 100);
    EXPECT_NE(CsvOf(a.trace), CsvOf(c.trace)) << name;
  }
}

// Pinned builder output: every column plus the phase and layer tables of one full day per
// preset, and of the two paths that close KV early (preemption under a tight budget, and the
// max_steps valve that closes whatever is still open). A seed repeating is not enough: these
// pins move if a change to the builder renumbers, re-times or re-labels any event.
TEST(Engine, PinnedTraceColumnDigests) {
  const ModelConfig model = ModelByName("gpt2");
  struct Case {
    ServeScenario scenario;
    EngineConfig engine;
    uint64_t digest;
  };
  EngineConfig tight;
  tight.kv_budget_bytes = 1 * GiB;
  EngineConfig valve;
  valve.max_steps = 40;
  const Case cases[] = {
      {ChatScenario(), EngineConfig{}, 0x3716042e00f9a0caull},
      {RagLongScenario(), EngineConfig{}, 0x5c209af19e363d91ull},
      {BatchOfflineScenario(), EngineConfig{}, 0x2859c3106607e39dull},
      {BatchOfflineScenario(), tight, 0xbb7dd51f495bfd27ull},
      {ChatScenario(), valve, 0xc61530618db05e59ull},
  };
  for (const Case& c : cases) {
    const ServeTraceResult r = BuildServeTrace(model, c.scenario, c.engine, 2002);
    EXPECT_EQ(TraceColumnsDigest(r.trace), c.digest)
        << c.scenario.name << " budget=" << c.engine.kv_budget_bytes
        << " max_steps=" << c.engine.max_steps << ": 0x" << std::hex
        << TraceColumnsDigest(r.trace);
  }
  // The last two cases reach the paths they are there for.
  EXPECT_GT(BuildServeTrace(model, BatchOfflineScenario(), tight, 2002).stats.preemptions, 0u);
  const ServeSimStats cut = BuildServeTrace(model, ChatScenario(), valve, 2002).stats;
  EXPECT_LT(cut.completed + cut.rejected, cut.num_requests);
}

TEST(Engine, TracesValidateAcrossPresets) {
  const ModelConfig model = ModelByName("gpt2");
  for (const std::string& name : ScenarioNames()) {
    ServeScenario scenario = ScenarioByName(name);
    scenario.num_requests = std::min<uint32_t>(scenario.num_requests, 24);
    ServeTraceResult r = BuildServeTrace(model, scenario, EngineConfig{}, 1);
    r.trace.Validate();
    EXPECT_GT(r.trace.size(), 0u);
    EXPECT_EQ(r.stats.num_requests, scenario.num_requests);
    EXPECT_EQ(r.stats.completed + r.stats.rejected, scenario.num_requests)
        << name << ": engine must drain";
    EXPECT_GT(r.stats.engine_steps, 0u);
  }
}

TEST(Engine, StatsInvariantsHold) {
  const ModelConfig model = ModelByName("gpt2");
  EngineConfig engine;
  engine.max_batch = 4;
  ServeScenario scenario = ChatScenario();
  scenario.num_requests = 24;
  ServeTraceResult r = BuildServeTrace(model, scenario, engine, 17);
  EXPECT_LE(r.stats.peak_batch, engine.max_batch);
  EXPECT_GT(r.stats.peak_batch, 0);
  EXPECT_GT(r.stats.tokens_admitted, 0u);
  EXPECT_GT(r.stats.tokens_generated, 0u);
  EXPECT_LE(r.stats.peak_kv_bytes, engine.kv_budget_bytes);
  // Every KV block event has exactly the workload's block size.
  const uint64_t block = KvBlockBytes(model, engine);
  uint64_t kv_events = 0;
  for (uint64_t id = 0; id < r.trace.size(); ++id) {
    const MemoryEvent e = r.trace.Event(id);
    if (e.dyn && e.size == block) {
      ++kv_events;
    }
  }
  EXPECT_EQ(kv_events, r.stats.kv_blocks_allocated);
}

TEST(Engine, PreemptsAndRecomputesUnderMemoryPressure) {
  const ModelConfig model = ModelByName("gpt2");
  EngineConfig tight;
  tight.kv_budget_bytes = 1 * GiB;
  ServeTraceResult r = BuildServeTrace(model, BatchOfflineScenario(), tight, 5);
  EXPECT_GT(r.stats.preemptions, 0u) << "a 1 GiB KV budget must force preemption";
  // Drained run: every preemption is followed by exactly one recompute re-admission.
  EXPECT_EQ(r.stats.completed + r.stats.rejected, r.stats.num_requests);
  EXPECT_EQ(r.stats.recompute_admissions, r.stats.preemptions);

  // More budget, same stream -> no more preemptions than the tight run, and fewer KV blocks
  // (no recompute re-allocations).
  EngineConfig ample;
  ample.kv_budget_bytes = 16 * GiB;
  ServeTraceResult a = BuildServeTrace(model, BatchOfflineScenario(), ample, 5);
  EXPECT_LT(a.stats.preemptions, r.stats.preemptions);
  EXPECT_LE(a.stats.kv_blocks_allocated, r.stats.kv_blocks_allocated);
}

TEST(Engine, RejectsRequestsThatCanNeverFit) {
  const ModelConfig model = ModelByName("gpt2");
  EngineConfig tiny;
  // Budget below the KV of the smallest rag-long prompt (2048 tokens): everything is rejected.
  tiny.kv_budget_bytes = 1024ull * KvBytesPerToken(model);
  ServeScenario scenario = RagLongScenario();
  scenario.num_requests = 8;
  ServeTraceResult r = BuildServeTrace(model, scenario, tiny, 5);
  EXPECT_EQ(r.stats.rejected, 8u);
  EXPECT_EQ(r.stats.completed, 0u);
  EXPECT_EQ(r.stats.preemptions, 0u);
}

TEST(Engine, WeightsArePersistentAndOptional) {
  const ModelConfig model = ModelByName("gpt2");
  ServeScenario scenario = ChatScenario();
  scenario.num_requests = 4;
  ServeTraceResult with = BuildServeTrace(model, scenario, EngineConfig{}, 2);
  uint64_t persistent = 0;
  for (uint64_t id = 0; id < with.trace.size(); ++id) {
    const MemoryEvent e = with.trace.Event(id);
    if (with.trace.Classify(e) == LifespanClass::kPersistent) {
      ++persistent;
    }
  }
  // Embedding + one event per layer.
  EXPECT_EQ(persistent, static_cast<uint64_t>(model.num_layers) + 1);

  EngineConfig no_weights;
  no_weights.emit_weights = false;
  ServeTraceResult without = BuildServeTrace(model, scenario, no_weights, 2);
  for (uint64_t id = 0; id < without.trace.size(); ++id) {
    const MemoryEvent e = without.trace.Event(id);
    EXPECT_TRUE(e.dyn) << "without weights every serving event is dynamic";
  }
  EXPECT_LT(PeakAllocated(without.trace), PeakAllocated(with.trace));
}

TEST(Engine, KvBytesMatchModelShape) {
  const ModelConfig gpt2 = ModelByName("gpt2");
  // 2 (K+V) * layers * kv_heads * head_dim * 2 bytes.
  const uint64_t expect = 2ull * gpt2.num_layers * gpt2.num_kv_heads * gpt2.head_dim() * 2;
  EXPECT_EQ(KvBytesPerToken(gpt2), expect);
  EngineConfig engine;
  EXPECT_EQ(KvBlockBytes(gpt2, engine), engine.kv_block_tokens * expect);
  // GQA models have fewer KV heads than attention heads -> smaller KV per token.
  const ModelConfig qwen = ModelByName("qwen2.5-7b");
  EXPECT_LT(KvBytesPerToken(qwen) / qwen.num_layers / 2 / 2,
            qwen.hidden);  // kv_heads * head_dim < hidden
}

}  // namespace
}  // namespace stalloc
