#include "src/core/planner.h"

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/common/check.h"
#include "src/common/stopwatch.h"
#include "src/common/table.h"
#include "src/common/units.h"
#include "src/common/verify.h"
#include "src/core/phase_group.h"
#include "src/core/size_group.h"
#include "src/interval/first_fit_index.h"
#include "src/telemetry/metrics.h"
#include "src/telemetry/telemetry.h"
#include "src/telemetry/tracer.h"

namespace stalloc {

namespace {

// Lifetime-aware greedy first-fit: replay the event stream in time order, placing each
// allocation at the lowest free offset and returning it on free. Produces a valid plan whose pool
// equals the highest offset ever used.
StaticPlan GreedyFirstFitPlan(const std::vector<MemoryEvent>& static_events) {
  std::vector<LogicalTime> ts(static_events.size()), te(static_events.size());
  for (size_t i = 0; i < static_events.size(); ++i) {
    ts[i] = static_events[i].ts;
    te[i] = static_events[i].te;
  }

  StaticPlan plan;
  plan.decisions.resize(static_events.size());
  // Free space: one unbounded span; the pool is the high-water mark.
  FirstFitIndex free_space;
  constexpr uint64_t kUnbounded = ~uint64_t{0} >> 1;
  free_space.Insert(0, kUnbounded);
  uint64_t high_water = 0;
  for (const uint64_t ref : OrderOps(ts, te, nullptr)) {  // frees first at equal tick
    PlanDecision& d = plan.decisions[ref >> 1];
    if ((ref & 1) == 0) {
      d.event = static_events[ref >> 1];
      d.padded_size = AlignUp(std::max<uint64_t>(d.event.size, 1), kPlanAlign);
      const std::optional<uint64_t> addr = free_space.TakeFirstFit(d.padded_size);
      STALLOC_CHECK(addr.has_value());
      d.addr = *addr;
      high_water = std::max(high_water, d.end_addr());
    } else {
      free_space.Insert(d.addr, d.addr + d.padded_size);
    }
  }
  plan.pool_size = high_water;
  std::sort(plan.decisions.begin(), plan.decisions.end(),
            [](const PlanDecision& a, const PlanDecision& b) {
              if (a.event.ts != b.event.ts) {
                return a.event.ts < b.event.ts;
              }
              return a.event.id < b.event.id;
            });
  return plan;
}

}  // namespace

std::string PlanStats::ToString() const {
  std::string out;
  out += StrFormat("static events: %llu, dynamic events: %llu\n",
                   static_cast<unsigned long long>(num_static_events),
                   static_cast<unsigned long long>(num_dynamic_events));
  out += StrFormat("phase groups after fusion: %llu (%llu fusions), memory layers: %llu\n",
                   static_cast<unsigned long long>(num_phase_groups),
                   static_cast<unsigned long long>(num_fusions),
                   static_cast<unsigned long long>(num_layers));
  out += StrFormat("HomoLayer groups: %llu\n",
                   static_cast<unsigned long long>(num_homolayer_groups));
  out += StrFormat("pool: %s, lower bound: %s, plan efficiency: %.1f%%\n",
                   FormatBytes(pool_size).c_str(), FormatBytes(lower_bound).c_str(),
                   PlanEfficiency() * 100.0);
  out += StrFormat("synthesis time: %.1f ms\n", synthesis_ms);
  return out;
}

SynthesisResult SynthesizePlan(const Trace& trace, const PlanSynthesizerConfig& config) {
  Stopwatch timer;
  telemetry::ScopedSpan span(telemetry::kCatPlanner, "plan");
  SynthesisResult result;
  PhaseGroupWork work;

  // 1. Partition by dynamicity (§5: M_s and M_d).
  std::vector<MemoryEvent> static_events;
  for (uint64_t id = 0; id < trace.size(); ++id) {
    if ((trace.flags()[id] & 1) != 0) {
      ++result.stats.num_dynamic_events;
    } else {
      static_events.push_back(trace.Event(id));
      ++result.stats.num_static_events;
    }
  }

  if (!static_events.empty()) {
    // 2. Temporal grouping + fusion.
    const size_t raw_groups = [&] {
      // Count the pre-fusion groups for the fusion statistic.
      std::vector<std::pair<PhaseId, PhaseId>> keys;
      keys.reserve(static_events.size());
      for (const auto& e : static_events) {
        keys.emplace_back(e.ps, e.pe);
      }
      std::sort(keys.begin(), keys.end());
      keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
      return keys.size();
    }();
    std::vector<LocalPlan> phase_plans =
        BuildPhaseGroups(static_events, config.enable_fusion, &work);
    result.stats.num_phase_groups = phase_plans.size();
    result.stats.num_fusions = raw_groups - phase_plans.size();

    // 3. Spatial grouping: each phase plan becomes a unified request m_g.
    std::vector<GroupRequest> requests;
    requests.reserve(phase_plans.size());
    for (size_t i = 0; i < phase_plans.size(); ++i) {
      GroupRequest r;
      r.plan_index = i;
      r.size = AlignUp(std::max<uint64_t>(phase_plans[i].footprint, 1), kPlanAlign);
      r.ts = phase_plans[i].ts;
      r.te = phase_plans[i].te;
      requests.push_back(r);
    }
    GlobalLayout layout = PlanGlobally(requests, config.enable_gap_insertion);
    result.stats.num_layers = layout.layers.size();

    // 4. Expand to absolute addresses.
    auto& decisions = result.plan.decisions;
    for (size_t i = 0; i < requests.size(); ++i) {
      const uint64_t base = layout.request_addr[i];
      for (const auto& item : phase_plans[requests[i].plan_index].items) {
        PlanDecision d = item;
        d.addr = base + item.addr;
        decisions.push_back(d);
      }
    }
    std::sort(decisions.begin(), decisions.end(), [](const PlanDecision& a, const PlanDecision& b) {
      if (a.event.ts != b.event.ts) {
        return a.event.ts < b.event.ts;
      }
      return a.event.id < b.event.id;
    });
    result.plan.pool_size = layout.pool_size;
    result.plan.lower_bound = StaticPlan::PeakPaddedBytes(decisions);

    // Plan post-selection (see PlanSynthesizerConfig): keep the tighter of the grouped plan and
    // the greedy first-fit plan.
    if (config.enable_greedy_refinement) {
      StaticPlan greedy = GreedyFirstFitPlan(static_events);
      if (greedy.pool_size < result.plan.pool_size) {
        greedy.lower_bound = result.plan.lower_bound;
        result.plan = std::move(greedy);
        result.stats.used_greedy_refinement = true;
      }
    }
    result.stats.pool_size = result.plan.pool_size;
    result.stats.lower_bound = result.plan.lower_bound;
  }

  // 5. Dynamic Reusable Space.
  result.dyn_space = LocateDynamicSpace(trace, result.plan);
  result.stats.num_homolayer_groups = result.dyn_space.group_count();

  if (verify::Enabled()) {
    result.plan.Validate();  // the stomping sweep
  }
  result.stats.synthesis_ms = timer.ElapsedMillis();
  if (telemetry::Enabled()) {
    static telemetry::Counter* plans =
        telemetry::MetricsRegistry::Global().GetCounter("planner.plans_synthesized");
    plans->Add();
    static telemetry::Counter* orders_pruned =
        telemetry::MetricsRegistry::Global().GetCounter("planner.pack_orders_pruned");
    orders_pruned->Add(work.pack_orders_pruned);
    static telemetry::Counter* fusions_screened =
        telemetry::MetricsRegistry::Global().GetCounter("planner.fusions_screened");
    fusions_screened->Add(work.fusions_screened);
    static telemetry::Histogram* ms_hist = telemetry::MetricsRegistry::Global().GetHistogram(
        "planner.synthesis_ms", {0.5, 1, 2, 5, 10, 20, 50, 100, 200, 500, 1000});
    ms_hist->Record(result.stats.synthesis_ms);
    span.Arg("static_events", result.stats.num_static_events);
    span.Arg("dynamic_events", result.stats.num_dynamic_events);
    span.Arg("pool_size", result.stats.pool_size);
    span.Arg("pack_orders_pruned", work.pack_orders_pruned);
    span.Arg("fusions_screened", work.fusions_screened);
  }
  return result;
}

}  // namespace stalloc
