// Training configuration: parallelism layout and memory-optimization techniques (§2.1), plus the
// per-run knobs (microbatch size/count, simulated pipeline rank, RNG seed).

#ifndef SRC_TRAINSIM_TRAIN_CONFIG_H_
#define SRC_TRAINSIM_TRAIN_CONFIG_H_

#include <cstdint>
#include <string>

#include "src/common/check.h"

namespace stalloc {

struct ParallelConfig {
  int tp = 1;          // tensor parallel degree
  int pp = 1;          // pipeline parallel degree
  int dp = 1;          // data parallel degree
  int ep = 1;          // expert parallel degree (MoE)
  int vpp_chunks = 1;  // virtual-pipeline model chunks per rank (1 = plain 1F1B)
};

enum class RecomputeMode : uint8_t {
  kNone = 0,
  kSelective,  // attention-only recomputation (Megatron --recompute-activations): the
               // attention-internal tensors are recomputed, MLP activations stay resident
  kFull,       // full recomputation: only layer-boundary inputs survive the forward pass
};

enum class PipelineSchedule : uint8_t {
  k1F1B = 0,     // PipeDream-1F1B (+ interleaving when vpp_chunks > 1)
  kGPipe,        // all forwards, then all backwards: maximal activation residency
};

enum class ZeroStage : uint8_t {
  kNone = 0,
  kStage1,  // optimizer states sharded over DP (Megatron distributed optimizer)
  kStage2,  // + gradients sharded
  kStage3,  // + weights sharded, gathered per layer on the fly
};

struct OptimizationConfig {
  RecomputeMode recompute = RecomputeMode::kNone;
  ZeroStage zero = ZeroStage::kNone;
  bool offload = false;  // activation offloading to host memory
  PipelineSchedule schedule = PipelineSchedule::k1F1B;

  std::string Tag() const;  // "N", "R", "V", "VR", "ZR", "ZOR" style composed with parallelism
};

struct TrainConfig {
  ParallelConfig parallel;
  OptimizationConfig opt;
  uint64_t micro_batch_size = 1;
  int num_microbatches = 8;   // per iteration (gradient-accumulation steps)
  int rank = 0;               // simulated pipeline rank, in [0, pp)
  uint64_t seed = 0x5743'4c4c'0c0ffeeull;  // per-iteration randomness (MoE routing)
};

// The paper's configuration shorthand for Fig. 8 / Fig. 13:
//   N = no optimization, R = recomputation, V = virtual pipeline, VR = V+R,
//   ZR = ZeRO(distributed optimizer)+R, ZOR = ZeRO+offload+R.
// Applies the shorthand on top of a base config (pp/tp/... preserved).
TrainConfig ApplyConfigTag(TrainConfig base, const std::string& tag);

}  // namespace stalloc

#endif  // SRC_TRAINSIM_TRAIN_CONFIG_H_
