#include "src/core/size_group.h"

#include <algorithm>
#include <cstdint>
#include <map>
#include <optional>
#include <utility>
#include <vector>

#include "src/common/check.h"
#include "src/interval/interval.h"

namespace stalloc {

namespace {

// Lowest height offset in `layer` where a request of `height` over [ts, te) fits without
// conflicting with existing occupants; nullopt when nothing fits below the layer top.
std::optional<uint64_t> FitInLayer(const MemoryLayer& layer, LogicalTime ts, LogicalTime te,
                                   uint64_t height) {
  if (height > layer.size) {
    return std::nullopt;
  }
  std::vector<Interval> conflicting;
  for (const auto& o : layer.occupants) {
    if (o.ts < te && ts < o.te) {
      conflicting.push_back({o.off, o.off + o.height});
    }
  }
  std::sort(conflicting.begin(), conflicting.end(),
            [](const Interval& x, const Interval& y) { return x.lo < y.lo; });
  const uint64_t off = LowestFit(conflicting, height);
  if (off + height > layer.size) {
    return std::nullopt;
  }
  return off;
}

}  // namespace

GlobalLayout PlanGlobally(const std::vector<GroupRequest>& requests, bool enable_gap_insertion) {
  GlobalLayout layout;
  // Provisional storage: (layer index, offset) per request; bases are patched at the end.
  std::vector<std::pair<size_t, uint64_t>> placement(requests.size(), {0, 0});

  // Partition request indices by exact size (HomoSize groups), largest size first.
  std::map<uint64_t, std::vector<size_t>, std::greater<uint64_t>> by_size;
  for (size_t i = 0; i < requests.size(); ++i) {
    STALLOC_CHECK(requests[i].ts < requests[i].te);
    by_size[requests[i].size].push_back(i);
  }

  for (auto& [size, indices] : by_size) {
    // Allocation-order processing within the group (Algorithm 1 line 2).
    std::sort(indices.begin(), indices.end(), [&](size_t a, size_t b) {
      return requests[a].ts < requests[b].ts;
    });

    // Layers of exactly this size, keyed by their last free time (Algorithm 1 line 4: the layer
    // whose end is closest to, but not after, the request's start).
    std::multimap<LogicalTime, size_t> same_size_layers;  // last_end -> layer index

    for (size_t ridx : indices) {
      const GroupRequest& r = requests[ridx];
      bool placed = false;

      if (enable_gap_insertion) {
        // Try the free spatio-temporal intervals of existing *larger* layers, preferring the
        // layer whose gap wastes the least height (Fig. 6: requests insertion before
        // HomoSizeGroup planning).
        size_t best_layer = layout.layers.size();
        uint64_t best_height = 0;
        uint64_t best_off = 0;
        for (size_t li = 0; li < layout.layers.size(); ++li) {
          MemoryLayer& layer = layout.layers[li];
          if (layer.size <= size) {
            continue;  // equal-size layers are handled by Algorithm 1 below
          }
          if (best_layer != layout.layers.size() && layer.size >= best_height) {
            continue;  // already found a tighter slot
          }
          auto off = FitInLayer(layer, r.ts, r.te, size);
          if (off.has_value()) {
            best_layer = li;
            best_height = layer.size;
            best_off = *off;
          }
        }
        if (best_layer != layout.layers.size()) {
          MemoryLayer& layer = layout.layers[best_layer];
          layer.occupants.push_back({ridx, r.ts, r.te, best_off, size});
          placement[ridx] = {best_layer, best_off};
          placed = true;
        }
      }

      if (!placed) {
        // Algorithm 1: the same-size layer with the greatest last_end <= r.ts. Same-size members
        // occupy the full layer height, so last_end ordering is a sufficient conflict check
        // (gap-inserted occupants are only ever larger sizes, placed in earlier rounds into
        // *larger* layers, never into this round's layers).
        auto it = same_size_layers.upper_bound(r.ts);
        if (it != same_size_layers.begin()) {
          --it;
          const size_t li = it->second;
          MemoryLayer& layer = layout.layers[li];
          layer.occupants.push_back({ridx, r.ts, r.te, 0, size});
          layer.last_end = r.te;
          placement[ridx] = {li, 0};
          same_size_layers.erase(it);
          same_size_layers.emplace(r.te, li);
        } else {
          MemoryLayer layer;
          layer.size = size;
          layer.occupants.push_back({ridx, r.ts, r.te, 0, size});
          layer.last_end = r.te;
          layout.layers.push_back(std::move(layer));
          const size_t li = layout.layers.size() - 1;
          same_size_layers.emplace(r.te, li);
          placement[ridx] = {li, 0};
        }
      }
    }
  }

  // Stack the layers: bases in construction order (largest sizes lowest).
  uint64_t base = 0;
  for (auto& layer : layout.layers) {
    layer.base = base;
    base += layer.size;
  }
  layout.pool_size = base;
  layout.request_addr.resize(requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    layout.request_addr[i] = layout.layers[placement[i].first].base + placement[i].second;
  }
  return layout;
}

}  // namespace stalloc
