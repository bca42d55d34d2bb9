// Serving experiment harness: the end-to-end pipeline for the inference-serving workload axis.
//
// Mirrors RunExperiment (src/driver/experiment.h) but sources its request stream from servesim
// instead of trainsim. Baselines replay the serving trace directly; STAlloc kinds run the full
// offline pipeline — profile a *profile-seed* serving day, synthesize the plan, replay a
// *run-seed* day — which deliberately stresses the paper's static-plan assumption: serving
// traffic is not iteration-repeatable, so the plan only covers the persistent weights and almost
// every runtime request takes the dynamic/fallback path. The paged-KV baseline gets its pool
// page sized to the workload's KV block unless overridden.

#ifndef SRC_DRIVER_SERVE_EXPERIMENT_H_
#define SRC_DRIVER_SERVE_EXPERIMENT_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "src/driver/experiment.h"
#include "src/servesim/engine.h"
#include "src/servesim/request_gen.h"
#include "src/trainsim/model_config.h"

namespace stalloc {

struct ServeOptions {
  ExperimentOptions base;  // capacity, seeds, per-allocator overrides
  EngineConfig engine;     // continuous-batching engine knobs (KV budget, batch, block size)
};

struct ServeExperimentResult {
  ExperimentResult replay;  // memory outcome, shared shape with the training harness
  ServeSimStats serve;      // serving metrics of the *run* trace
  uint64_t trace_events = 0;

  std::string Summary() const;
};

// Runs one (model, scenario, allocator) serving experiment.
ServeExperimentResult RunServeExperiment(const ModelConfig& model, const ServeScenario& scenario,
                                         std::string_view allocator,
                                         const ServeOptions& options = ServeOptions{});

}  // namespace stalloc

#endif  // SRC_DRIVER_SERVE_EXPERIMENT_H_
