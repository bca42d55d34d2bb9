// Pins the plan synthesizer's output on the paper's Fig. 8 matrix: every cell's StaticPlan,
// PlanStats and Dynamic Reusable Space fold into one FNV-1a-64 digest. Any planner change that
// claims "same plans" must leave this digest untouched.
//
// Matrix: {gpt2 tp1/pp2/dp4 mb64, llama2-7b tp2/pp2/dp2 mb4, qwen1.5-moe tp1/pp2/dp4/ep4 mb8}
// x {N, R, V, VR, ZR, ZOR} x ranks {0, pp-1}, 8 microbatches, each profiled on an 80 GiB device
// with seed 1001.

#include <cstdint>
#include <cstdio>
#include <string>

#include <gtest/gtest.h>

#include "src/common/units.h"
#include "src/core/planner.h"
#include "src/core/profiler.h"
#include "src/trainsim/model_config.h"
#include "src/trainsim/train_config.h"
#include "src/trainsim/workload.h"

namespace stalloc {
namespace {

constexpr uint64_t kFig8PlanDigest = 0xb2c2848ebc266395ull;

// Byte-wise FNV-1a-64 over the eight little-endian bytes of `value`.
uint64_t Fnv1a(uint64_t hash, uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    hash ^= (value >> (8 * i)) & 0xff;
    hash *= 1099511628211ull;
  }
  return hash;
}

uint64_t HashSynthesis(uint64_t h, const SynthesisResult& r) {
  for (const PlanDecision& d : r.plan.decisions) {
    h = Fnv1a(h, d.event.id);
    h = Fnv1a(h, d.addr);
    h = Fnv1a(h, d.padded_size);
  }
  h = Fnv1a(h, r.plan.pool_size);
  h = Fnv1a(h, r.plan.lower_bound);
  h = Fnv1a(h, r.stats.num_phase_groups);
  h = Fnv1a(h, r.stats.num_fusions);
  h = Fnv1a(h, r.stats.num_layers);
  h = Fnv1a(h, r.stats.used_greedy_refinement ? 1 : 0);
  for (const auto& [key, region] : r.dyn_space.regions) {
    h = Fnv1a(h, static_cast<uint64_t>(key.first));
    h = Fnv1a(h, static_cast<uint64_t>(key.second));
    for (const auto& iv : region) {
      h = Fnv1a(h, iv.lo);
      h = Fnv1a(h, iv.hi);
    }
  }
  for (const auto& [ls, les] : r.dyn_space.expected_le) {
    h = Fnv1a(h, static_cast<uint64_t>(ls));
    for (LayerId le : les) {
      h = Fnv1a(h, static_cast<uint64_t>(le));
    }
  }
  return h;
}

TEST(PlanDigest, Fig8MatrixIsPinned) {
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
  uint64_t digest = 14695981039346656037ull;
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
        const WorkloadBuilder workload(ModelByName(setup.model), train);
        const ProfileResult profile = ProfileWorkload(workload, 80 * GiB, /*iteration_seed=*/1001);
        ASSERT_TRUE(profile.feasible) << setup.model << " " << tag << " rank" << rank;
        digest = HashSynthesis(digest, SynthesizePlan(profile.trace));
        ++cells;
      }
    }
  }
  EXPECT_EQ(cells, 36);
  std::printf("fig8 plan digest %016llx\n", static_cast<unsigned long long>(digest));
  EXPECT_EQ(digest, kFig8PlanDigest);
}

}  // namespace
}  // namespace stalloc
