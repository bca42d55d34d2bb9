#include "src/servesim/engine.h"

#include <algorithm>
#include <cstdint>
#include <deque>
#include <string>
#include <utility>
#include <vector>

#include "src/common/check.h"
#include "src/common/table.h"

namespace stalloc {

namespace {

// fp16 activation working set per token in flight: hidden states plus attention/MLP scratch.
constexpr uint64_t kActivationBuffers = 4;

uint64_t ActivationBytesPerToken(const ModelConfig& model) {
  return model.hidden * 2 * kActivationBuffers;
}

// A request plus its engine-side decoding state. `generated` survives preemption (the tokens are
// recomputed into fresh KV blocks at re-admission, not re-sampled).
struct RunningReq {
  ServeRequest req;
  uint32_t generated = 0;     // output tokens produced so far
  uint32_t context = 0;       // tokens currently resident in KV
  std::vector<uint64_t> kv;   // ids of its open KV-block events
  bool was_preempted = false;
};

}  // namespace

std::string ServeSimStats::ToString() const {
  return StrFormat(
      "requests=%llu completed=%llu rejected=%llu preemptions=%llu steps=%llu "
      "tokens_admitted=%llu tokens_generated=%llu peak_batch=%d kv_blocks=%llu peak_kv=%s",
      static_cast<unsigned long long>(num_requests), static_cast<unsigned long long>(completed),
      static_cast<unsigned long long>(rejected), static_cast<unsigned long long>(preemptions),
      static_cast<unsigned long long>(engine_steps),
      static_cast<unsigned long long>(tokens_admitted),
      static_cast<unsigned long long>(tokens_generated), peak_batch,
      static_cast<unsigned long long>(kv_blocks_allocated), FormatBytes(peak_kv_bytes).c_str());
}

uint64_t KvBytesPerToken(const ModelConfig& model) {
  // K and V, fp16, across every layer: 2 * layers * kv_heads * head_dim * 2 bytes.
  return 2ull * static_cast<uint64_t>(model.num_layers) *
         static_cast<uint64_t>(model.num_kv_heads) * model.head_dim() * 2;
}

uint64_t KvBlockBytes(const ModelConfig& model, const EngineConfig& engine) {
  return engine.kv_block_tokens * KvBytesPerToken(model);
}

std::string ServeShapeError(const ModelConfig& model, const EngineConfig& engine) {
  if (engine.max_batch < 1) {
    return "serving max batch must be >= 1";
  }
  if (engine.kv_block_tokens < 1) {
    return "KV block must hold at least one token";
  }
  const uint64_t block_bytes = KvBlockBytes(model, engine);
  if (block_bytes == 0) {
    return model.name + " has no KV footprint";
  }
  if (engine.kv_budget_bytes < block_bytes) {
    return "KV budget " + FormatBytes(engine.kv_budget_bytes) + " is below one KV block (" +
           FormatBytes(block_bytes) + ")";
  }
  return "";
}

ServeTraceResult BuildServeTrace(const ModelConfig& model, const ServeScenario& scenario,
                                 const EngineConfig& engine, uint64_t seed) {
  const std::string error = ServeShapeError(model, engine);
  STALLOC_CHECK(error.empty(), << error);
  const uint64_t block_bytes = KvBlockBytes(model, engine);
  const uint64_t act_per_token = ActivationBytesPerToken(model);

  ServeTraceResult out;
  Trace& trace = out.trace;
  ServeSimStats& stats = out.stats;
  trace.set_name(scenario.name + "/" + model.name + "/seed" + std::to_string(seed));

  // Serving has no repeatable iteration structure, so every runtime request is dynamic in
  // STAlloc's vocabulary; three synthetic layers give the (ls, le) routing labels.
  const LayerId kv_layer = trace.AddLayer(LayerInfo{"kv-cache", 0, 0});
  const LayerId prefill_layer = trace.AddLayer(LayerInfo{"prefill-act", 0, 0});
  const LayerId decode_layer = trace.AddLayer(LayerInfo{"decode-act", 0, 0});

  LogicalTime tick = 0;
  auto open_event = [&](uint64_t size, bool dyn, LayerId layer, PhaseId phase) {
    return trace.OpenEvent(size, tick++, phase, layer, dyn, kComputeStream);
  };
  // Every event is freed by the layer that allocated it.
  auto close_event = [&](uint64_t id, PhaseId phase) {
    trace.CloseEvent(id, tick, phase, trace.ls()[id]);
  };

  // Persistent fp16 weights in an init phase (closed after the last step).
  std::vector<uint64_t> weight_events;
  PhaseId init_phase = kInvalidPhase;
  if (engine.emit_weights) {
    init_phase = trace.AddPhase(PhaseInfo{PhaseKind::kIterInit, -1, -1, tick, 0});
    weight_events.push_back(
        open_event(model.EmbeddingParams() * 2, false, kInvalidLayer, init_phase));
    for (int layer = 0; layer < model.num_layers; ++layer) {
      const uint64_t params =
          model.IsMoeLayer(layer) ? model.ParamsPerMoeLayer() : model.ParamsPerLayer();
      weight_events.push_back(open_event(params * 2, false, kInvalidLayer, init_phase));
    }
    ++tick;
    trace.MutablePhase(init_phase).end = tick;
  }

  std::deque<RunningReq> waiting;
  for (ServeRequest& r : GenerateRequests(scenario, seed)) {
    waiting.push_back(RunningReq{r, 0, 0, {}, false});
  }
  stats.num_requests = waiting.size();

  std::vector<RunningReq> running;
  uint64_t kv_in_use = 0;
  auto note_kv_peak = [&] { stats.peak_kv_bytes = std::max(stats.peak_kv_bytes, kv_in_use); };
  auto blocks_for = [&](uint64_t tokens) {
    return (tokens + engine.kv_block_tokens - 1) / engine.kv_block_tokens;
  };
  auto release_kv = [&](RunningReq& r, PhaseId phase) {
    for (uint64_t id : r.kv) {
      close_event(id, phase);
    }
    kv_in_use -= static_cast<uint64_t>(r.kv.size()) * block_bytes;
    r.kv.clear();
    r.context = 0;
  };

  PhaseId last_phase = init_phase;
  uint64_t step = 0;
  for (; step < engine.max_steps && (!waiting.empty() || !running.empty()); ++step) {
    const PhaseId phase = trace.AddPhase(
        PhaseInfo{PhaseKind::kForward, static_cast<int32_t>(step), -1, tick, 0});
    last_phase = phase;
    std::vector<uint64_t> step_transients;

    // --- admission: continuous batching fills the batch while KV fits ---
    while (!waiting.empty() && static_cast<int>(running.size()) < engine.max_batch &&
           waiting.front().req.arrival_step <= step) {
      RunningReq cand = std::move(waiting.front());
      waiting.pop_front();
      const uint64_t full_blocks =
          blocks_for(static_cast<uint64_t>(cand.req.prompt_tokens) + cand.req.output_tokens);
      if (full_blocks * block_bytes > engine.kv_budget_bytes) {
        // Can never fit even alone: admitting it would livelock the preemption loop.
        ++stats.rejected;
        continue;
      }
      const uint64_t ctx = static_cast<uint64_t>(cand.req.prompt_tokens) + cand.generated;
      const uint64_t need = blocks_for(ctx);
      if (kv_in_use + need * block_bytes > engine.kv_budget_bytes) {
        waiting.push_front(std::move(cand));  // wait for memory
        break;
      }
      // Prefill: transient activation for the whole context + its KV blocks.
      step_transients.push_back(open_event(ctx * act_per_token, true, prefill_layer, phase));
      cand.kv.reserve(need);
      for (uint64_t b = 0; b < need; ++b) {
        cand.kv.push_back(open_event(block_bytes, true, kv_layer, phase));
      }
      cand.context = static_cast<uint32_t>(ctx);
      kv_in_use += need * block_bytes;
      stats.kv_blocks_allocated += need;
      stats.tokens_admitted += ctx;
      if (cand.was_preempted) {
        ++stats.recompute_admissions;
      }
      running.push_back(std::move(cand));
      note_kv_peak();
    }
    stats.peak_batch = std::max(stats.peak_batch, static_cast<int>(running.size()));

    if (!running.empty()) {
      // --- memory pressure: preempt latest-admitted requests until this step's growth fits ---
      auto growth_bytes = [&] {
        uint64_t blocks = 0;
        for (const RunningReq& r : running) {
          blocks += (r.context + 1 > r.kv.size() * engine.kv_block_tokens) ? 1 : 0;
        }
        return blocks * block_bytes;
      };
      while (running.size() > 1 &&
             kv_in_use + growth_bytes() > engine.kv_budget_bytes) {
        RunningReq victim = std::move(running.back());
        running.pop_back();
        release_kv(victim, phase);
        victim.was_preempted = true;
        ++stats.preemptions;
        waiting.push_front(std::move(victim));  // recompute: re-admitted ahead of new arrivals
      }

      // --- decode: one token per running request; grow KV across block boundaries ---
      step_transients.push_back(open_event(
          static_cast<uint64_t>(running.size()) * act_per_token, true, decode_layer, phase));
      for (RunningReq& r : running) {
        ++r.generated;
        ++r.context;
        ++stats.tokens_generated;
        if (r.context > r.kv.size() * engine.kv_block_tokens) {
          r.kv.push_back(open_event(block_bytes, true, kv_layer, phase));
          kv_in_use += block_bytes;
          ++stats.kv_blocks_allocated;
        }
      }
      note_kv_peak();

      // --- completion: free the KV of finished requests ---
      for (auto it = running.begin(); it != running.end();) {
        if (it->generated >= it->req.output_tokens) {
          release_kv(*it, phase);
          ++stats.completed;
          stats.outcomes.push_back(ServeRequestOutcome{it->req.id, it->req.arrival_step, step,
                                                       it->req.prompt_tokens,
                                                       it->req.output_tokens, it->was_preempted});
          it = running.erase(it);
        } else {
          ++it;
        }
      }
    }

    for (uint64_t id : step_transients) {
      close_event(id, phase);
    }
    ++tick;
    trace.MutablePhase(phase).end = tick;
  }
  stats.engine_steps = step;

  // max_steps safety valve: close whatever is still open so the trace stays well-formed.
  for (RunningReq& r : running) {
    release_kv(r, last_phase);
  }
  for (uint64_t id : weight_events) {
    close_event(id, last_phase == kInvalidPhase ? init_phase : last_phase);
  }
  ++tick;

  for (LayerId layer : {kv_layer, prefill_layer, decode_layer}) {
    trace.MutableLayer(layer).end = tick;
  }
  trace.Validate();
  return out;
}

}  // namespace stalloc
