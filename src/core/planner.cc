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

// Lifetime-aware greedy first-fit: replay the static events in op order, placing each
// allocation at the lowest free offset and returning it on free. Produces a valid plan whose pool
// equals the highest offset ever used. `arrival` maps a static event id to its place among the
// static mallocs in op order, which is where its decision lands.
StaticPlan GreedyFirstFitPlan(const TraceCursor& c, const std::vector<uint64_t>& arrival,
                              size_t num_static) {
  StaticPlan plan;
  plan.decisions.resize(num_static);
  // Free space: one unbounded span; the pool is the high-water mark.
  FirstFitIndex free_space;
  constexpr uint64_t kUnbounded = ~uint64_t{0} >> 1;
  free_space.Insert(0, kUnbounded);
  uint64_t high_water = 0;
  for (uint64_t i = 0; i < c.num_ops(); ++i) {  // frees first at equal tick
    const uint64_t id = c.OpEventId(i);
    if (c.EventDyn(id)) {
      continue;
    }
    PlanDecision& d = plan.decisions[arrival[id]];
    if (!c.OpIsFree(i)) {
      d.event = c.Event(id);
      d.padded_size = PlanPaddedSize(d.event.size);
      const std::optional<uint64_t> addr = free_space.TakeFirstFit(d.padded_size);
      STALLOC_CHECK(addr.has_value());
      d.addr = *addr;
      high_water = std::max(high_water, d.end_addr());
    } else {
      free_space.Insert(d.addr, d.end_addr());
    }
  }
  plan.pool_size = high_water;
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
  uint64_t greedy_refinements_skipped = 0;  // greedy plans not built: grouped plan on its floor

  // 1. Partition by dynamicity (§5: M_s and M_d).
  const TraceCursor c = trace.Cursor();
  std::vector<MemoryEvent> static_events;
  for (uint64_t id = 0; id < c.num_events(); ++id) {
    if (c.EventDyn(id)) {
      ++result.stats.num_dynamic_events;
    } else {
      static_events.push_back(c.Event(id));
      ++result.stats.num_static_events;
    }
  }

  if (!static_events.empty()) {
    // One walk of the op order restricted to the static events — the order OrderOps gives
    // them: by time, frees first, then by id — ranks each malloc, which is where its decision
    // sits in a plan sorted by (ts, id), and finds the peak live padded bytes, the lower bound.
    std::vector<uint64_t> arrival(c.num_events());
    uint64_t next_arrival = 0;
    uint64_t live = 0;
    for (uint64_t i = 0; i < c.num_ops(); ++i) {
      const uint64_t id = c.OpEventId(i);
      if (c.EventDyn(id)) {
        continue;
      }
      const uint64_t padded = PlanPaddedSize(c.EventSize(id));
      if (c.OpIsFree(i)) {
        live -= padded;
      } else {
        arrival[id] = next_arrival++;
        live += padded;
        result.plan.lower_bound = std::max(result.plan.lower_bound, live);
      }
    }

    // 2. Temporal grouping + fusion.
    std::vector<LocalPlan> phase_plans =
        BuildPhaseGroups(static_events, config.enable_fusion, &work);
    result.stats.num_phase_groups = phase_plans.size();
    result.stats.num_fusions = work.fusions;

    // 3. Spatial grouping: each phase plan becomes a unified request m_g.
    std::vector<GroupRequest> requests;
    requests.reserve(phase_plans.size());
    for (size_t i = 0; i < phase_plans.size(); ++i) {
      GroupRequest r;
      r.plan_index = i;
      r.size = PlanPaddedSize(phase_plans[i].footprint);
      r.ts = phase_plans[i].ts;
      r.te = phase_plans[i].te;
      requests.push_back(r);
    }
    GlobalLayout layout = PlanGlobally(requests, config.enable_gap_insertion);
    result.stats.num_layers = layout.layers.size();

    // 4. Expand to absolute addresses, each decision at its arrival rank.
    auto& decisions = result.plan.decisions;
    decisions.resize(static_events.size());
    for (size_t i = 0; i < requests.size(); ++i) {
      const uint64_t base = layout.request_addr[i];
      for (const auto& item : phase_plans[requests[i].plan_index].items) {
        PlanDecision& d = decisions[arrival[item.event.id]];
        d = item;
        d.addr = base + item.addr;
      }
    }
    result.plan.pool_size = layout.pool_size;

    // Plan post-selection (see PlanSynthesizerConfig): keep the tighter of the grouped plan and
    // the greedy first-fit plan. Greedy pads as the grouped plan does, so it never reserves less
    // than the same peak live padded bytes: against a grouped plan on that floor it cannot win.
    if (config.enable_greedy_refinement) {
      if (result.plan.pool_size == result.plan.lower_bound) {
        ++greedy_refinements_skipped;
      } else if (StaticPlan greedy = GreedyFirstFitPlan(c, arrival, static_events.size());
                 greedy.pool_size < result.plan.pool_size) {
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
    static telemetry::Counter* greedy_skipped =
        telemetry::MetricsRegistry::Global().GetCounter("planner.greedy_refinements_skipped");
    greedy_skipped->Add(greedy_refinements_skipped);
    static telemetry::Histogram* ms_hist = telemetry::MetricsRegistry::Global().GetHistogram(
        "planner.synthesis_ms", {0.5, 1, 2, 5, 10, 20, 50, 100, 200, 500, 1000});
    ms_hist->Record(result.stats.synthesis_ms);
    span.Arg("static_events", result.stats.num_static_events);
    span.Arg("dynamic_events", result.stats.num_dynamic_events);
    span.Arg("pool_size", result.stats.pool_size);
    span.Arg("pack_orders_pruned", work.pack_orders_pruned);
    span.Arg("fusions_screened", work.fusions_screened);
    span.Arg("greedy_refinements_skipped", greedy_refinements_skipped);
  }
  return result;
}

}  // namespace stalloc
