// Serving engine: a continuous-batching inference loop (vLLM-style) that turns a request stream
// into the malloc/free event trace an inference server would issue — the serving counterpart of
// trainsim's WorkloadBuilder.
//
// Per engine step the loop (1) admits waiting requests while the batch and the KV budget allow,
// emitting a transient prefill-activation event plus one KV-cache block event per
// kv_block_tokens of context; (2) decodes every running request one token, growing its KV by a
// block whenever the context crosses a block boundary; (3) preempts the latest-admitted requests
// under memory pressure, freeing their KV blocks — on re-admission the context is recomputed,
// i.e. its blocks are allocated afresh (vLLM's recompute preemption); (4) frees all KV of
// completed requests. Model weights are emitted as persistent events in an init phase.
//
// The emitted trace flows through the exact same Trace/Allocator interfaces as training traces,
// so every allocator baseline (and STAlloc's offline pipeline) runs on it unchanged.

#ifndef SRC_SERVESIM_ENGINE_H_
#define SRC_SERVESIM_ENGINE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/units.h"
#include "src/servesim/request_gen.h"
#include "src/trace/trace.h"
#include "src/trainsim/model_config.h"

namespace stalloc {

struct EngineConfig {
  // Tokens per fixed-size KV-cache block (vLLM default block_size).
  uint64_t kv_block_tokens = 16;
  // Maximum concurrently running (decoding) requests.
  int max_batch = 32;
  // KV-cache memory budget; exceeding it triggers preemption. Requests whose full context
  // (prompt + output) can never fit alone are rejected at admission, which guarantees progress.
  uint64_t kv_budget_bytes = 4 * GiB;
  // Safety valve for pathological configurations; the loop normally drains long before this.
  uint64_t max_steps = 100000;
  // Emit persistent fp16 weight events in an init phase (off for allocator microbenchmarks).
  bool emit_weights = true;
};

// Completion record of one served request — the raw material of the serving latency / SLO model
// (EstimateServeSlo in src/metrics/throughput_model.*). Only requests that generated every
// output token appear; rejected or never-finished requests are visible via the counters.
struct ServeRequestOutcome {
  uint64_t id = 0;
  uint64_t arrival_step = 0;     // step the request became visible to the engine
  uint64_t completion_step = 0;  // step the last output token was produced
  uint32_t prompt_tokens = 0;
  uint32_t output_tokens = 0;
  bool was_preempted = false;    // suffered at least one preempt-with-recompute

  // Queue wait + service time, quantized to engine steps (inclusive of the completion step).
  uint64_t LatencySteps() const { return completion_step - arrival_step + 1; }
};

struct ServeSimStats {
  uint64_t num_requests = 0;       // total requests in the stream
  uint64_t completed = 0;          // requests that generated all their output tokens
  uint64_t rejected = 0;           // requests whose full context can never fit in the budget
  uint64_t preemptions = 0;        // preempt-with-recompute occurrences
  uint64_t recompute_admissions = 0;  // re-admissions of previously preempted requests
  uint64_t tokens_admitted = 0;    // context tokens prefetched at (re-)admissions
  uint64_t tokens_generated = 0;   // decode tokens produced
  int peak_batch = 0;              // max concurrently running requests
  uint64_t engine_steps = 0;       // continuous-batching iterations executed
  uint64_t kv_blocks_allocated = 0;  // KV block events emitted
  uint64_t peak_kv_bytes = 0;      // max live KV bytes seen by the engine
  std::vector<ServeRequestOutcome> outcomes;  // completion records, in completion order

  std::string ToString() const;
};

struct ServeTraceResult {
  Trace trace;
  ServeSimStats stats;
};

// Bytes of KV cache (K and V, fp16) one token occupies across all layers of `model`.
uint64_t KvBytesPerToken(const ModelConfig& model);

// Bytes of one KV block under `engine` for `model` — the natural page size of the workload.
uint64_t KvBlockBytes(const ModelConfig& model, const EngineConfig& engine);

// Why BuildServeTrace rejects `engine` on `model` — an empty batch, an empty KV block, a model
// with no KV footprint, or a KV budget below one block — or "" when it accepts it.
std::string ServeShapeError(const ModelConfig& model, const EngineConfig& engine);

// Runs the engine over GenerateRequests(scenario, seed) and returns the trace plus serving
// metrics; CHECK-fails unless ServeShapeError(model, engine) is empty. Deterministic: one
// (model, scenario, engine, seed) tuple reproduces the trace byte-for-byte.
ServeTraceResult BuildServeTrace(const ModelConfig& model, const ServeScenario& scenario,
                                 const EngineConfig& engine, uint64_t seed);

}  // namespace stalloc

#endif  // SRC_SERVESIM_ENGINE_H_
