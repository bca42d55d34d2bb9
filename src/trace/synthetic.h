// Synthetic adversarial traces for benches and tests — op streams built to stress the
// allocators' hot paths at scales the profiled workloads don't reach (millions of ops).
//
// Two families live here:
//   * BuildStormTrace — the original cache-storm generator, kept byte-stable (recorded perf
//     baselines and pinned-placement tests depend on its exact output).
//   * SyntheticSpec mixes — parameterized by total op count. One generator per mix opens and
//     closes events in a sink: BuildSyntheticTrace passes an owned Trace,
//     GenerateSyntheticV2File a TraceV2StreamWriter that streams straight to a columnar v2 file
//     without ever holding the events in memory. Both sinks take the identical calls, so
//     converting the owned trace with WriteTraceV2File yields a byte-identical file — the
//     property the round-trip tests pin.

#ifndef SRC_TRACE_SYNTHETIC_H_
#define SRC_TRACE_SYNTHETIC_H_

#include <cstdint>
#include <string>

#include "src/trace/trace.h"

namespace stalloc {

// A deterministic cache storm: one malloc or free per tick, steered toward ~1.5k
// concurrently-live blocks, request sizes drawn from a fixed palette of a few dozen recurring
// values (the size-distribution shape of §2.3, Fig. 3). Random-order frees keep the caching-style
// free lists deep — the path the size-bucketed BestFitIndex replaced the flat ordered-set search
// on. Only the requests recur: the free blocks that splits and coalescing leave behind take many
// more distinct sizes (see src/allocators/free_index.h).
//
// The generator must stay byte-stable across revisions: recorded perf baselines and the
// pinned-placement regression tests are only comparable on identical traces.
Trace BuildStormTrace(uint64_t num_events, uint64_t seed);

// Workload mixes for the parameterized generator.
enum class SyntheticMix : uint8_t {
  kStorm,     // cache storm: random-order frees, deep free lists, no phase structure
  kTraining,  // iteration-shaped: persistent weights, LIFO activations per microbatch,
              // fwd/bwd/optimizer phases, per-microbatch layers with dynamic events
  kServing,   // inference-shaped: bursty KV-block sequences per request, freed en masse
              // when the request completes, multi-stream
};

const char* SyntheticMixName(SyntheticMix mix);
// Accepts the names printed by SyntheticMixName ("storm", "train", "serve").
bool ParseSyntheticMix(const std::string& name, SyntheticMix* out);

struct SyntheticSpec {
  SyntheticMix mix = SyntheticMix::kStorm;
  uint64_t num_ops = 0;  // total malloc+free ops; floored to even, minimum 2
  uint64_t seed = 1;     // 0 is remapped to 1 (xorshift state must be nonzero)
};

// Materializes the spec's op stream as an owned Trace. One op per tick, strictly increasing
// time, every event closed — the emitted trace is valid and sealed.
Trace BuildSyntheticTrace(const SyntheticSpec& spec);

// Streams the identical op sequence directly to a v2 file; peak memory is O(live events), not
// O(num_ops). Returns false on I/O failure.
bool GenerateSyntheticV2File(const SyntheticSpec& spec, const std::string& path);

}  // namespace stalloc

#endif  // SRC_TRACE_SYNTHETIC_H_
