// Memory request events — the vocabulary shared by the profiler, the plan synthesizer and the
// training-workload simulator.
//
// The paper (§4) models one allocation and its matching free as a single event
//   m := (s, ts, te, ps, pe, dyn)            — plus (ls, le) when dyn is true,
// where s is the size, ts/te are logical alloc/free timestamps, ps/pe are the computation phases
// in which the chunk is allocated/freed, dyn marks requests from dynamic (MoE expert) layers and
// ls/le are the originating module (model layer) of the alloc and free.

#ifndef SRC_TRACE_EVENT_H_
#define SRC_TRACE_EVENT_H_

#include <cstdint>
#include <string>

namespace stalloc {

// Logical timestamps: a monotonically increasing tick counter advanced on every request the
// workload emits. Conflicts are defined on half-open spans [ts, te).
using LogicalTime = uint64_t;

// Index into Trace::phases(). Phases are ordered by their position in the iteration timeline.
using PhaseId = int32_t;
inline constexpr PhaseId kInvalidPhase = -1;

// Index into Trace::layers(). Only meaningful for dynamic events.
using LayerId = int32_t;
inline constexpr LayerId kInvalidLayer = -1;

// CUDA stream the request is issued on. Caching-style allocators segregate their pools by
// stream (a freed block is only reusable by its own stream); STAlloc's plan is stream-agnostic.
using StreamId = uint8_t;
inline constexpr StreamId kComputeStream = 0;
inline constexpr StreamId kP2pStream = 1;      // pipeline send/recv staging
inline constexpr StreamId kDpCommStream = 2;   // gradient reduce-scatter buckets
inline constexpr StreamId kOffloadStream = 3;  // host-transfer staging
inline constexpr StreamId kA2aStream = 4;      // MoE all-to-all staging

enum class PhaseKind : uint8_t {
  kIterInit = 0,   // start-of-training setup (weights, grads, optimizer state)
  kForward = 1,    // forward pass of one microbatch (of one virtual chunk)
  kBackward = 2,   // backward pass of one microbatch (of one virtual chunk)
  kOptimizer = 3,  // optimizer step at the end of the iteration
};

const char* PhaseKindName(PhaseKind kind);

// One computation phase in the iteration timeline (§4: "computation phase" granularity).
struct PhaseInfo {
  PhaseKind kind = PhaseKind::kIterInit;
  int32_t microbatch = -1;  // microbatch index, -1 for init/optimizer
  int32_t chunk = -1;       // virtual-pipeline model chunk, -1 when VPP is off
  LogicalTime start = 0;    // first tick belonging to this phase
  LogicalTime end = 0;      // one past the last tick of this phase

  std::string ToString() const;
};

// One model layer (module) in execution order; used at layer granularity for dynamic requests.
struct LayerInfo {
  std::string name;
  LogicalTime start = 0;  // earliest tick at which this layer executes
  LogicalTime end = 0;    // one past the last tick of this layer
};

// A memory request event: one allocation plus its matching free.
struct MemoryEvent {
  uint64_t id = 0;        // dense index within the trace
  uint64_t size = 0;      // request size in bytes (s)
  LogicalTime ts = 0;     // allocation tick
  LogicalTime te = 0;     // free tick (exclusive: the chunk is live on [ts, te))
  PhaseId ps = kInvalidPhase;  // phase of allocation
  PhaseId pe = kInvalidPhase;  // phase of free
  bool dyn = false;            // true when issued by a dynamic (MoE expert) layer
  LayerId ls = kInvalidLayer;  // module issuing the alloc (dynamic events only)
  LayerId le = kInvalidLayer;  // module issuing the free (dynamic events only)
  StreamId stream = kComputeStream;  // issuing CUDA stream

  bool OverlapsInTime(const MemoryEvent& other) const { return ts < other.te && other.ts < te; }
};

// Lifespan classes of §2.3 (Fig. 4).
enum class LifespanClass : uint8_t {
  kPersistent,  // allocated at init, freed at/after optimizer step
  kScoped,      // allocated in one phase, freed in a different later phase
  kTransient,   // allocated and freed within the same phase
};

}  // namespace stalloc

#endif  // SRC_TRACE_EVENT_H_
