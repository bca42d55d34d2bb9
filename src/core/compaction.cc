#include "src/core/compaction.h"

#include <algorithm>
#include <cstdint>
#include <vector>

#include "src/common/check.h"
#include "src/common/stopwatch.h"
#include "src/common/verify.h"
#include "src/interval/interval.h"
#include "src/telemetry/metrics.h"
#include "src/telemetry/telemetry.h"
#include "src/telemetry/tracer.h"

namespace stalloc {

namespace {

// Time-conflict adjacency: for each decision, the indices of decisions overlapping its lifespan.
// Built with one sweep over the alloc/free ops in TraceOp order: O(N + sum of overlap degrees).
std::vector<std::vector<uint32_t>> BuildConflicts(const std::vector<PlanDecision>& decisions) {
  std::vector<std::vector<uint32_t>> conflicts(decisions.size());
  std::vector<uint32_t> active;
  for (const uint64_t ref : OrderDecisionOps(decisions)) {
    const uint32_t idx = static_cast<uint32_t>(ref >> 1);
    if ((ref & 1) == 0) {
      for (uint32_t other : active) {
        conflicts[idx].push_back(other);
        conflicts[other].push_back(idx);
      }
      active.push_back(idx);
    } else {
      active.erase(std::find(active.begin(), active.end(), idx));
    }
  }
  return conflicts;
}

}  // namespace

CompactionResult CompactPlan(const StaticPlan& plan, int max_rounds) {
  Stopwatch timer;
  telemetry::ScopedSpan span(telemetry::kCatPlanner, "compact");
  CompactionResult result;
  result.plan = plan;
  result.initial_pool = plan.pool_size;
  auto& decisions = result.plan.decisions;
  if (decisions.empty()) {
    return result;
  }

  const auto conflicts = BuildConflicts(decisions);

  std::vector<uint32_t> order(decisions.size());
  for (uint32_t i = 0; i < order.size(); ++i) {
    order[i] = i;
  }
  std::vector<Interval> blocked;  // one decision's placed conflicts, ascending by lo
  bool improved = true;
  while (improved && result.rounds < max_rounds) {
    improved = false;
    ++result.rounds;
    // Highest blocks first: lowering the tallest stack is what shrinks the pool.
    std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
      return decisions[a].end_addr() > decisions[b].end_addr();
    });
    for (uint32_t idx : order) {
      blocked.clear();
      for (uint32_t other : conflicts[idx]) {
        blocked.push_back({decisions[other].addr, decisions[other].end_addr()});
      }
      std::sort(blocked.begin(), blocked.end(),
                [](const Interval& x, const Interval& y) { return x.lo < y.lo; });
      const uint64_t best = LowestFit(blocked, decisions[idx].padded_size);
      if (best < decisions[idx].addr) {
        decisions[idx].addr = best;
        ++result.moves;
        result.bytes_moved += decisions[idx].padded_size;
        improved = true;
      }
    }
  }

  uint64_t pool = 0;
  for (const auto& d : decisions) {
    pool = std::max(pool, d.end_addr());
  }
  result.plan.pool_size = pool;
  if (verify::Enabled()) {
    result.plan.Validate();
  }
  result.wall_ms = timer.ElapsedMillis();
  if (telemetry::Enabled()) {
    static telemetry::Counter* compactions =
        telemetry::MetricsRegistry::Global().GetCounter("planner.compactions");
    compactions->Add();
    static telemetry::Counter* moves =
        telemetry::MetricsRegistry::Global().GetCounter("planner.compaction_moves");
    moves->Add(result.moves);
    span.Arg("rounds", result.rounds);
    span.Arg("moves", result.moves);
    span.Arg("pool_before", result.initial_pool);
    span.Arg("pool_after", pool);
  }
  return result;
}

}  // namespace stalloc
