// WorkloadBuilder: generates the GPU memory-request trace of one training iteration of a
// transformer model on one pipeline rank — the synthetic stand-in for profiling Megatron-LM /
// Colossal-AI under PyTorch (see docs/ARCHITECTURE.md, substitution table).
//
// The emitted stream reproduces the structure the paper measures:
//   * spatial regularity (§2.3, Fig. 3): tensor sizes are functions of (s, b, h, f, v)/tp — a few
//     dozen distinct sizes per configuration;
//   * temporal regularity (§2.3, Fig. 4): persistent weights/grads/optimizer state at init,
//     scoped activations (allocated in a forward phase, freed in the matching backward phase in
//     reverse order), transient workspaces freed within their phase;
//   * optimization effects: recomputation/offload turn scoped activations into transient ones
//     (plus re-allocations in the backward phase); ZeRO shards persistent tensors and, at stage
//     3, adds per-layer transient weight gathers; virtual pipeline interleaves chunk phases;
//   * MoE dynamics (§5.2): expert-layer tensor sizes depend on per-iteration token routing and
//     are emitted as dynamic events with (ls, le) layer instances. The *number and order* of
//     dynamic requests is iteration-invariant; only sizes vary with the seed.

#ifndef SRC_TRAINSIM_WORKLOAD_H_
#define SRC_TRAINSIM_WORKLOAD_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/trace/trace.h"
#include "src/trainsim/model_config.h"
#include "src/trainsim/schedule.h"
#include "src/trainsim/train_config.h"

namespace stalloc {

// Theoretical per-rank memory footprint; used for capacity planning in benches/tests.
struct MemoryEstimate {
  uint64_t persistent_bytes = 0;       // weights + grads + optimizer state on this rank
  uint64_t activation_bytes_per_mb = 0;  // scoped activation bytes of one microbatch (one chunk)
  int peak_in_flight = 0;              // schedule-dependent peak live microbatch-chunks
};

// Why WorkloadBuilder rejects `config` on `model` — a degree, microbatch or rank out of range,
// layers that do not split evenly over pp x vpp, experts that do not split over ep, or an
// interleaved schedule whose microbatches do not split over pp — or "" when it accepts it.
// Arithmetic on the two configs only, so callers can validate shapes before building anything.
std::string TrainShapeError(const ModelConfig& model, const TrainConfig& config);

class WorkloadBuilder {
 public:
  // CHECK-fails unless TrainShapeError(model, config) is empty.
  WorkloadBuilder(ModelConfig model, TrainConfig config);

  // Generates the trace for one iteration. `iteration_seed` perturbs only the dynamic (MoE)
  // request sizes; static structure is identical across seeds, mirroring real training.
  Trace Build(uint64_t iteration_seed) const;
  Trace Build() const { return Build(config_.seed); }

  MemoryEstimate Estimate() const;

  const ModelConfig& model() const { return model_; }
  const TrainConfig& config() const { return config_; }

  // Layers hosted by `chunk` of the simulated rank (global layer indices).
  std::vector<int> LayersOfChunk(int chunk) const;
  bool HasEmbedding() const;  // this rank hosts the input embedding (first stage, chunk 0)
  bool HasLmHead() const;     // this rank hosts the output head (last stage, last chunk)

 private:
  ModelConfig model_;
  TrainConfig config_;
};

}  // namespace stalloc

#endif  // SRC_TRAINSIM_WORKLOAD_H_
