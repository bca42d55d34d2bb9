#include "src/core/phase_group.h"

#include <algorithm>
#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "src/common/check.h"
#include "src/common/units.h"
#include "src/common/verify.h"
#include "src/interval/interval.h"

namespace stalloc {

double LocalPlan::TmpNumerator() const {
  double num = 0;
  for (const auto& d : items) {
    num += static_cast<double>(d.padded_size) * static_cast<double>(d.event.te - d.event.ts);
  }
  return num;
}

double LocalPlan::TmpDenominator() const {
  return static_cast<double>(footprint) * static_cast<double>(te - ts);
}

double LocalPlan::Tmp() const {
  const double den = TmpDenominator();
  return den <= 0 ? 1.0 : TmpNumerator() / den;
}

namespace {

// A placed item as the packing sweep sees it: its address range and lifespan.
struct Placed {
  uint64_t lo = 0;
  uint64_t hi = 0;
  LogicalTime ts = 0;
  LogicalTime te = 0;
};

// First-fit packing of `events` in the given order. Placed items sit in an address-ordered
// index; an item leaves it once no later event can overlap it in time: it ends at or before
// every later start, or starts at or after every later end. In arrival order that drops each
// item as the sweep passes its end, so the index holds only the items live at the current start,
// and the largest padded total it reaches is the group's peak live padded bytes. `peak_live`,
// when given, receives that total; it is the peak only for events in arrival order.
LocalPlan PackInOrder(const std::vector<MemoryEvent>& events, PhaseId ps, PhaseId pe,
                      uint64_t* peak_live = nullptr) {
  // Per position k, the earliest start and the latest end among events[k..].
  const size_t n = events.size();
  std::vector<LogicalTime> later_ts(n), later_te(n);
  for (size_t k = n; k-- > 0;) {
    later_ts[k] = k + 1 < n ? std::min(events[k].ts, later_ts[k + 1]) : events[k].ts;
    later_te[k] = k + 1 < n ? std::max(events[k].te, later_te[k + 1]) : events[k].te;
  }

  LocalPlan plan;
  plan.ps = ps;
  plan.pe = pe;
  plan.ts = events.front().ts;
  plan.te = events.front().te;
  plan.items.reserve(n);
  std::vector<Placed> live;
  // Bounds over `live` that tell when some item may have become unreachable.
  LogicalTime live_min_te = ~LogicalTime{0};
  LogicalTime live_max_ts = 0;
  uint64_t live_bytes = 0;
  uint64_t peak = 0;
  for (size_t k = 0; k < n; ++k) {
    const MemoryEvent& e = events[k];
    STALLOC_DCHECK(e.ts < e.te, << "event " << e.id << " has an empty lifespan");
    if (live_min_te <= later_ts[k] || live_max_ts >= later_te[k]) {
      live.erase(std::remove_if(live.begin(), live.end(),
                                [&](const Placed& p) {
                                  return p.te <= later_ts[k] || p.ts >= later_te[k];
                                }),
                 live.end());
      live_min_te = ~LogicalTime{0};
      live_max_ts = 0;
      live_bytes = 0;
      for (const Placed& p : live) {
        live_min_te = std::min(live_min_te, p.te);
        live_max_ts = std::max(live_max_ts, p.ts);
        live_bytes += p.hi - p.lo;
      }
    }
    PlanDecision d;
    d.event = e;
    d.padded_size = PlanPaddedSize(e.size);
    // The lowest gap between the items of `live` (sorted by (lo, hi)) that conflict in time.
    d.addr = LowestFit(live, d.padded_size,
                       [&](const Placed& p) { return p.ts < e.te && e.ts < p.te; });
    const Placed placed{d.addr, d.end_addr(), e.ts, e.te};
    live.insert(std::upper_bound(live.begin(), live.end(), placed,
                                 [](const Placed& x, const Placed& y) {
                                   return x.lo != y.lo ? x.lo < y.lo : x.hi < y.hi;
                                 }),
                placed);
    live_min_te = std::min(live_min_te, e.te);
    live_max_ts = std::max(live_max_ts, e.ts);
    live_bytes += d.padded_size;
    peak = std::max(peak, live_bytes);
    plan.footprint = std::max(plan.footprint, d.end_addr());
    plan.ts = std::min(plan.ts, e.ts);
    plan.te = std::max(plan.te, e.te);
    plan.items.push_back(d);
  }
  if (peak_live != nullptr) {
    *peak_live = peak;
  }
  return plan;
}

}  // namespace

LocalPlan PackGroup(std::vector<MemoryEvent> events, PhaseId ps, PhaseId pe,
                    PhaseGroupWork* work) {
  STALLOC_CHECK(!events.empty());
  // Fully-overlapping groups pack the same under any order; mixed-lifespan groups are sensitive
  // to it. Try the classic dynamic-storage-allocation orders and keep the tightest: arrival
  // order (ts), latest-free first (survivors sink to low addresses), and longest-lived first.
  std::sort(events.begin(), events.end(), [](const MemoryEvent& a, const MemoryEvent& b) {
    if (a.ts != b.ts) {
      return a.ts < b.ts;
    }
    return a.size > b.size;  // larger first at equal start: denser packing
  });
  // No order packs below the group's peak live padded bytes (the items live at any one tick
  // pairwise overlap in time), and a later order replaces `best` only when strictly smaller.
  // Once `best` sits on that floor, the remaining orders cannot change the result.
  uint64_t floor = 0;
  LocalPlan best = PackInOrder(events, ps, pe, &floor);
  if (verify::Enabled()) {
    STALLOC_CHECK_EQ(floor, StaticPlan::PeakPaddedBytes(best.items));
  }
  auto at_floor = [&](uint64_t orders_left) {
    if (best.footprint != floor) {
      return false;
    }
    if (work != nullptr) {
      work->pack_orders_pruned += orders_left;
    }
    return true;
  };
  if (at_floor(2)) {
    return best;
  }

  std::vector<MemoryEvent> by_end = events;
  std::sort(by_end.begin(), by_end.end(), [](const MemoryEvent& a, const MemoryEvent& b) {
    if (a.te != b.te) {
      return a.te > b.te;
    }
    return a.ts < b.ts;
  });
  if (LocalPlan p = PackInOrder(by_end, ps, pe); p.footprint < best.footprint) {
    best = std::move(p);
  }
  if (at_floor(1)) {
    return best;
  }

  std::vector<MemoryEvent> by_duration = std::move(by_end);
  std::sort(by_duration.begin(), by_duration.end(),
            [](const MemoryEvent& a, const MemoryEvent& b) {
              const LogicalTime da = a.te - a.ts;
              const LogicalTime db = b.te - b.ts;
              if (da != db) {
                return da > db;
              }
              return a.ts < b.ts;
            });
  if (LocalPlan p = PackInOrder(by_duration, ps, pe); p.footprint < best.footprint) {
    best = std::move(p);
  }
  return best;
}

LocalPlan FusePlans(const LocalPlan& a, const LocalPlan& b) {
  // Insert the smaller-footprint plan into the larger (paper: assume D_gi.s > D_gj.s).
  const LocalPlan& big = a.footprint >= b.footprint ? a : b;
  const LocalPlan& small = a.footprint >= b.footprint ? b : a;

  LocalPlan fused;
  fused.items = big.items;
  fused.footprint = big.footprint;
  // Phase identity follows the time order of the two groups.
  const LocalPlan& first = a.ts <= b.ts ? a : b;
  const LocalPlan& second = a.ts <= b.ts ? b : a;
  fused.ps = first.ps;
  fused.pe = second.pe;
  fused.ts = std::min(a.ts, b.ts);
  fused.te = std::max(a.te, b.te);

  // Pending items of the smaller group, ordered by start time ("choose the earliest-starting d_j
  // that fits").
  std::vector<PlanDecision> pending = small.items;
  std::sort(pending.begin(), pending.end(), [](const PlanDecision& x, const PlanDecision& y) {
    return x.event.ts < y.event.ts;
  });
  std::vector<bool> placed(pending.size(), false);

  // Per pending item, the union of address ranges blocked by time-conflicting items of the
  // larger plan, as a sorted interval vector. Updated as small items are placed. Makes each fit
  // test O(log n).
  std::vector<std::vector<Interval>> blocked(pending.size());
  for (size_t i = 0; i < pending.size(); ++i) {
    for (const auto& it : big.items) {
      if (it.event.OverlapsInTime(pending[i].event)) {
        InsertMerged(&blocked[i], it.addr, it.end_addr());
      }
    }
  }
  auto note_placement = [&](const PlanDecision& d) {
    for (size_t i = 0; i < pending.size(); ++i) {
      if (!placed[i] && d.event.OverlapsInTime(pending[i].event)) {
        InsertMerged(&blocked[i], d.addr, d.end_addr());
      }
    }
  };

  // Candidate addresses: the base (0) plus each item address of the larger plan, ascending
  // (paper's "move addr to the next d_i.a").
  std::vector<uint64_t> anchors;
  anchors.push_back(0);
  for (const auto& it : big.items) {
    anchors.push_back(it.addr);
  }
  std::sort(anchors.begin(), anchors.end());
  anchors.erase(std::unique(anchors.begin(), anchors.end()), anchors.end());

  size_t remaining = pending.size();
  size_t anchor_idx = 0;
  uint64_t addr = 0;
  while (remaining > 0 && addr < fused.footprint) {
    bool placed_here = false;
    for (size_t i = 0; i < pending.size(); ++i) {
      if (placed[i]) {
        continue;
      }
      PlanDecision d = pending[i];
      if (addr + d.padded_size > fused.footprint) {
        continue;  // would extend the footprint; defer to the stacking fallback
      }
      if (OverlapsAny(blocked[i], addr, addr + d.padded_size)) {
        continue;
      }
      d.addr = addr;
      fused.items.push_back(d);
      placed[i] = true;
      --remaining;
      note_placement(d);
      addr += d.padded_size;
      placed_here = true;
      break;  // restart the earliest-starting scan at the new addr
    }
    if (!placed_here) {
      // Advance to the next anchor beyond the current address.
      while (anchor_idx < anchors.size() && anchors[anchor_idx] <= addr) {
        ++anchor_idx;
      }
      if (anchor_idx >= anchors.size()) {
        break;
      }
      addr = anchors[anchor_idx];
    }
  }

  // Anything that did not fit into the gaps stacks above the footprint: lowest free address
  // within its blocked set, possibly extending the footprint.
  for (size_t i = 0; i < pending.size(); ++i) {
    if (placed[i]) {
      continue;
    }
    PlanDecision d = pending[i];
    d.addr = LowestFit(blocked[i], d.padded_size);
    fused.items.push_back(d);
    fused.footprint = std::max(fused.footprint, d.end_addr());
    placed[i] = true;
    note_placement(d);
  }
  STALLOC_CHECK_EQ(fused.items.size(), a.items.size() + b.items.size());
  return fused;
}

namespace {

// Largest fused item count for which FusionCannotWin's rounding argument holds.
constexpr size_t kScreenMaxItems = size_t{1} << 20;
constexpr double kScreenMargin = 1e-9;

// True when fusing `a` and `b` provably yields Tmp() <= `weighted_avg`, so the TMP criterion
// rejects the fusion whatever FusePlans would place. The fused TMP numerator is `wa_num` (the
// same per-item terms) and the fused span is max(te) - min(ts), so Tmp(fused) <= wa_num / (F *
// span) for any lower bound F on the fused footprint. FusePlans starts from the larger plan and
// only grows it, so F >= max(fa, fb); and no valid placement of a ∪ b fits below its peak live
// padded bytes. `union_items` is a buffer reused across calls.
//
// Rounding: wa_num and the fused TmpNumerator() add the same n rounded terms in different
// orders, so each is within (n-1)·2^-53 of the exact sum, relatively, and they differ by at
// most about 2n·2^-53. Conversions, products and quotients of non-negative doubles round
// monotonically. For n < 2^20 the difference is below 2.4e-10, well inside the 1e-9 margin, so
// a bound at or below weighted_avg * (1 - 1e-9) means fused.Tmp() < weighted_avg exactly.
bool FusionCannotWin(const LocalPlan& a, const LocalPlan& b, double wa_num, double weighted_avg,
                     std::vector<PlanDecision>* union_items) {
  if (a.items.size() + b.items.size() >= kScreenMaxItems) {
    return false;
  }
  const double span = static_cast<double>(std::max(a.te, b.te) - std::min(a.ts, b.ts));
  auto bound_loses = [&](uint64_t footprint) {
    const double den = static_cast<double>(footprint) * span;
    return den > 0 && wa_num / den <= weighted_avg * (1 - kScreenMargin);
  };
  // The cheap bound first; the peak sweep only when it is not enough.
  const uint64_t larger = std::max(a.footprint, b.footprint);
  if (bound_loses(larger)) {
    return true;
  }
  union_items->assign(a.items.begin(), a.items.end());
  union_items->insert(union_items->end(), b.items.begin(), b.items.end());
  const uint64_t peak = StaticPlan::PeakPaddedBytes(*union_items);
  return peak > larger && bound_loses(peak);
}

}  // namespace

std::vector<LocalPlan> BuildPhaseGroups(const std::vector<MemoryEvent>& static_events,
                                        bool enable_fusion, PhaseGroupWork* work) {
  // Group by the (ps, pe) phase pair.
  std::map<std::pair<PhaseId, PhaseId>, std::vector<MemoryEvent>> groups;
  for (const auto& e : static_events) {
    STALLOC_CHECK(!e.dyn);
    groups[{e.ps, e.pe}].push_back(e);
  }
  std::vector<LocalPlan> plans;
  plans.reserve(groups.size());
  for (auto& [key, events] : groups) {
    plans.push_back(PackGroup(std::move(events), key.first, key.second, work));
  }
  if (!enable_fusion) {
    return plans;
  }

  // Sequential forward fusion: plans sorted by start time; for each plan, repeatedly try to fuse
  // a later plan whose start phase equals this plan's end phase. Chains (F,F)+(F,B)+(B,B) are
  // captured because an accepted fusion extends pe and the scan repeats. The TMP criterion
  // (Fig. 7) decides accept/reject.
  std::sort(plans.begin(), plans.end(),
            [](const LocalPlan& x, const LocalPlan& y) { return x.ts < y.ts; });
  std::vector<bool> dead(plans.size(), false);
  std::vector<PlanDecision> union_items;
  for (size_t i = 0; i < plans.size(); ++i) {
    if (dead[i]) {
      continue;
    }
    bool fused_any = true;
    while (fused_any) {
      fused_any = false;
      for (size_t j = 0; j < plans.size(); ++j) {
        if (j == i || dead[j]) {
          continue;
        }
        if (plans[i].pe != plans[j].ps || plans[i].pe == kInvalidPhase) {
          continue;
        }
        const double wa_num = plans[i].TmpNumerator() + plans[j].TmpNumerator();
        const double wa_den = plans[i].TmpDenominator() + plans[j].TmpDenominator();
        const double weighted_avg = wa_den <= 0 ? 1.0 : wa_num / wa_den;
        if (FusionCannotWin(plans[i], plans[j], wa_num, weighted_avg, &union_items)) {
          if (work != nullptr) {
            ++work->fusions_screened;
          }
          continue;
        }
        LocalPlan fused = FusePlans(plans[i], plans[j]);
        if (fused.Tmp() > weighted_avg) {
          plans[i] = std::move(fused);
          dead[j] = true;
          fused_any = true;
          if (work != nullptr) {
            ++work->fusions;
          }
          break;
        }
      }
    }
  }
  std::vector<LocalPlan> out;
  out.reserve(plans.size());
  for (size_t i = 0; i < plans.size(); ++i) {
    if (!dead[i]) {
      out.push_back(std::move(plans[i]));
    }
  }
  return out;
}

}  // namespace stalloc
