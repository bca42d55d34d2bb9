#include "src/core/dynamic_space.h"

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "src/common/check.h"

namespace stalloc {

namespace {

// Segment tree over address atoms: each atom holds the latest end among the decisions covering
// it (0 when none). Raise lifts a range of atoms to at least a value; every node keeps the
// minimum of its atoms, and a raise pending for a node's children is kept as its tag.
class LatestEndTree {
 public:
  explicit LatestEndTree(size_t atoms) : atoms_(atoms), min_(4 * atoms + 4), tag_(4 * atoms + 4) {}

  // Atoms [lo, hi) become at least `te`.
  void Raise(size_t lo, size_t hi, LogicalTime te) { Raise(1, 0, atoms_, lo, hi, te); }

  // Calls f(atom), in ascending order, for every atom below `limit` whose value is <= `at_most`.
  template <typename F>
  void ForEachAtMost(size_t limit, LogicalTime at_most, F&& f) {
    Visit(1, 0, atoms_, limit, at_most, f);
  }

 private:
  void Apply(size_t node, LogicalTime te) {
    min_[node] = std::max(min_[node], te);
    tag_[node] = std::max(tag_[node], te);
  }
  void Push(size_t node) {
    if (tag_[node] != 0) {
      Apply(2 * node, tag_[node]);
      Apply(2 * node + 1, tag_[node]);
      tag_[node] = 0;
    }
  }
  void Raise(size_t node, size_t nlo, size_t nhi, size_t lo, size_t hi, LogicalTime te) {
    if (hi <= nlo || nhi <= lo || min_[node] >= te) {
      return;  // disjoint, or every atom here is already that high
    }
    if (lo <= nlo && nhi <= hi) {
      Apply(node, te);
      return;
    }
    Push(node);
    const size_t mid = nlo + (nhi - nlo) / 2;
    Raise(2 * node, nlo, mid, lo, hi, te);
    Raise(2 * node + 1, mid, nhi, lo, hi, te);
    min_[node] = std::min(min_[2 * node], min_[2 * node + 1]);
  }
  template <typename F>
  void Visit(size_t node, size_t nlo, size_t nhi, size_t limit, LogicalTime at_most, F& f) {
    if (nlo >= limit || min_[node] > at_most) {
      return;
    }
    if (nhi - nlo == 1) {
      f(nlo);
      return;
    }
    Push(node);
    const size_t mid = nlo + (nhi - nlo) / 2;
    Visit(2 * node, nlo, mid, limit, at_most, f);
    Visit(2 * node + 1, mid, nhi, limit, at_most, f);
  }

  size_t atoms_;
  std::vector<LogicalTime> min_;
  std::vector<LogicalTime> tag_;
};

}  // namespace

uint64_t DynamicReusableSpace::TotalReusableBytes() const {
  uint64_t total = 0;
  for (const auto& [key, region] : regions) {
    for (const Interval& iv : region) {
      total += iv.length();
    }
  }
  return total;
}

DynamicReusableSpace LocateDynamicSpace(const Trace& trace, const StaticPlan& plan) {
  DynamicReusableSpace space;

  // Collect the HomoLayer groups and the matcher table, walking the dynamic mallocs in arrival
  // order as the runtime sees them: op order, i.e. by time, then by event id.
  // Runs of requests from one group are common, so the last group's entries are kept at hand.
  const TraceCursor c = trace.Cursor();
  std::pair<LayerId, LayerId> last_key = {kInvalidLayer, kInvalidLayer};
  std::vector<LayerId>* last_les = nullptr;
  for (uint64_t i = 0; i < c.num_ops(); ++i) {
    const uint64_t id = c.OpEventId(i);
    if (c.OpIsFree(i) || !c.EventDyn(id)) {
      continue;
    }
    const std::pair<LayerId, LayerId> key = {c.EventLs(id), c.EventLe(id)};
    if (key != last_key) {
      STALLOC_CHECK(key.first != kInvalidLayer && key.second != kInvalidLayer);
      space.regions.emplace(key, std::vector<Interval>{});
      if (last_les == nullptr || key.first != last_key.first) {
        last_les = &space.expected_le[key.first];
      }
      last_key = key;
    }
    last_les->push_back(key.second);
  }
  if (space.regions.empty()) {
    return space;
  }

  // A time sweep over the windows in end order. The plan's range boundaries (and 0 and the pool
  // size) cut the address space into atoms; a segment tree holds, per atom, the latest end among
  // the decisions started so far that cover it. At a window [start, end) every decision with
  // ts < end has been added, so an atom is free in the window exactly when that latest end is at
  // or before `start`, and the tree lists the free atoms by descending only into subtrees whose
  // minimum is. A window costs a tree path per idle atom, not a walk over every decision.
  std::vector<uint64_t> bounds = {0, plan.pool_size};
  bounds.reserve(2 * plan.decisions.size() + 2);
  for (const auto& d : plan.decisions) {
    bounds.push_back(d.addr);
    bounds.push_back(d.end_addr());
  }
  std::sort(bounds.begin(), bounds.end());
  bounds.erase(std::unique(bounds.begin(), bounds.end()), bounds.end());
  auto atom_of = [&](uint64_t addr) {
    return static_cast<size_t>(std::lower_bound(bounds.begin(), bounds.end(), addr) -
                               bounds.begin());
  };
  LatestEndTree tree(bounds.size() - 1);

  std::vector<const PlanDecision*> by_start;
  by_start.reserve(plan.decisions.size());
  for (const auto& d : plan.decisions) {
    by_start.push_back(&d);
  }
  std::sort(by_start.begin(), by_start.end(),
            [](const PlanDecision* a, const PlanDecision* b) { return a->event.ts < b->event.ts; });

  struct Window {
    LogicalTime start = 0;
    LogicalTime end = 0;
    std::vector<Interval>* region = nullptr;
  };
  std::vector<Window> windows;
  windows.reserve(space.regions.size());
  for (auto& [key, region] : space.regions) {
    const LogicalTime win_start = trace.layer(key.first).start;
    windows.push_back(
        Window{win_start, std::max(trace.layer(key.second).end, win_start + 1), &region});
  }
  std::sort(windows.begin(), windows.end(),
            [](const Window& x, const Window& y) { return x.end < y.end; });

  const size_t pool_atoms = atom_of(plan.pool_size);  // atoms below the pool size
  size_t next = 0;
  for (const Window& w : windows) {
    for (; next < by_start.size() && by_start[next]->event.ts < w.end; ++next) {
      const PlanDecision& d = *by_start[next];
      tree.Raise(atom_of(d.addr), atom_of(d.end_addr()), d.event.te);
    }
    // Adjacent free atoms merge, so the region is a sorted interval vector.
    std::vector<Interval>& region = *w.region;
    tree.ForEachAtMost(pool_atoms, w.start, [&](size_t atom) {
      if (!region.empty() && region.back().hi == bounds[atom]) {
        region.back().hi = bounds[atom + 1];
      } else {
        region.push_back(Interval{bounds[atom], bounds[atom + 1]});
      }
    });
  }
  return space;
}

}  // namespace stalloc
