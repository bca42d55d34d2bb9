#include "src/servesim/request_gen.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "src/common/check.h"
#include "src/common/rng.h"

namespace stalloc {

namespace {

// Exponential variate with the given mean. 1 - NextDouble() is in (0, 1], keeping log finite.
double SampleExp(Rng& rng, double mean) { return -std::log(1.0 - rng.NextDouble()) * mean; }

uint32_t SampleLength(Rng& rng, const std::vector<LengthBucket>& dist) {
  STALLOC_CHECK(!dist.empty(), << "length distribution must have at least one bucket");
  std::vector<double> weights;
  weights.reserve(dist.size());
  for (const auto& b : dist) {
    weights.push_back(b.weight);
  }
  const LengthBucket& b = dist[rng.SampleIndex(weights)];
  STALLOC_DCHECK(b.lo >= 1 && b.lo <= b.hi);
  return static_cast<uint32_t>(rng.NextInRange(b.lo, b.hi));
}

}  // namespace

ServeScenario ChatScenario() {
  ServeScenario s;
  s.name = "chat";
  s.arrival = ArrivalProcess::kPoisson;
  s.num_requests = 96;
  s.mean_interarrival_steps = 3.0;
  // Mostly short conversational turns with an occasional pasted document.
  s.prompt_dist = {{32, 256, 0.7}, {256, 1024, 0.25}, {1024, 4096, 0.05}};
  s.output_dist = {{16, 128, 0.5}, {128, 512, 0.45}, {512, 1024, 0.05}};
  return s;
}

ServeScenario RagLongScenario() {
  ServeScenario s;
  s.name = "rag-long";
  s.arrival = ArrivalProcess::kBursty;
  s.num_requests = 48;
  s.mean_interarrival_steps = 4.0;
  s.burst_factor = 8.0;
  s.burst_on_steps = 6.0;
  s.burst_off_steps = 40.0;
  // Retrieval-augmented contexts: the prompt carries thousands of retrieved tokens, the answer
  // is short — prefill-dominated, KV-cache heavy.
  s.prompt_dist = {{2048, 8192, 0.75}, {8192, 16384, 0.25}};
  s.output_dist = {{16, 128, 0.8}, {128, 384, 0.2}};
  return s;
}

ServeScenario BatchOfflineScenario() {
  ServeScenario s;
  s.name = "batch-offline";
  s.arrival = ArrivalProcess::kBatch;
  s.num_requests = 64;
  // Offline generation jobs: moderate prompts, long completions, all queued at step 0.
  s.prompt_dist = {{128, 1024, 1.0}};
  s.output_dist = {{256, 2048, 1.0}};
  return s;
}

ServeScenario ScenarioByName(const std::string& name) {
  if (name == "chat") {
    return ChatScenario();
  }
  if (name == "rag-long") {
    return RagLongScenario();
  }
  STALLOC_CHECK(name == "batch-offline", << "unknown serving scenario: " << name);
  return BatchOfflineScenario();
}

std::vector<std::string> ScenarioNames() { return {"chat", "rag-long", "batch-offline"}; }

std::vector<ServeRequest> GenerateRequests(const ServeScenario& scenario, uint64_t seed) {
  Rng rng(seed);
  std::vector<ServeRequest> requests;
  requests.reserve(scenario.num_requests);

  // Arrival clock in fractional steps; bursty scenarios track the modulation window separately.
  double clock = 0.0;
  bool burst_on = false;
  double window_left = 0.0;
  if (scenario.arrival == ArrivalProcess::kBursty) {
    window_left = SampleExp(rng, scenario.burst_off_steps);
  }

  for (uint32_t i = 0; i < scenario.num_requests; ++i) {
    ServeRequest r;
    r.id = i;
    switch (scenario.arrival) {
      case ArrivalProcess::kBatch:
        r.arrival_step = 0;
        break;
      case ArrivalProcess::kPoisson:
        clock += SampleExp(rng, scenario.mean_interarrival_steps);
        r.arrival_step = static_cast<uint64_t>(clock);
        break;
      case ArrivalProcess::kBursty: {
        STALLOC_CHECK(scenario.burst_factor > 0);
        double gap = SampleExp(rng, scenario.mean_interarrival_steps);
        // Consume the gap against the on/off windows: time passes burst_factor times faster
        // (arrivals are denser) while a burst is on.
        while (gap > 0) {
          const double rate = burst_on ? scenario.burst_factor : 1.0;
          const double advance = std::min(gap / rate, window_left);
          clock += advance;
          window_left -= advance;
          gap -= advance * rate;
          if (window_left <= 0) {
            burst_on = !burst_on;
            window_left =
                SampleExp(rng, burst_on ? scenario.burst_on_steps : scenario.burst_off_steps);
          }
        }
        r.arrival_step = static_cast<uint64_t>(clock);
        break;
      }
    }
    r.prompt_tokens = SampleLength(rng, scenario.prompt_dist);
    r.output_tokens = std::max<uint32_t>(1, SampleLength(rng, scenario.output_dist));
    requests.push_back(r);
  }

  // Arrival processes emit in nondecreasing clock order already; ids are dense by construction.
  STALLOC_DCHECK(std::is_sorted(requests.begin(), requests.end(),
                                [](const ServeRequest& a, const ServeRequest& b) {
                                  return a.arrival_step < b.arrival_step;
                                }));
  return requests;
}

}  // namespace stalloc
