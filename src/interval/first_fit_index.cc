#include "src/interval/first_fit_index.h"

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <limits>
#include <optional>

#include "src/common/check.h"

namespace stalloc {

void FirstFitIndex::Classify(uint64_t lo, uint64_t hi) {
  const int k = ClassOf(hi - lo);
  classes_[k].emplace(lo, hi);
  nonempty_classes_ |= uint64_t{1} << k;
}

void FirstFitIndex::Unclassify(uint64_t lo, uint64_t hi) {
  const int k = ClassOf(hi - lo);
  classes_[k].erase(Range{lo, hi});
  if (classes_[k].empty()) {
    nonempty_classes_ &= ~(uint64_t{1} << k);
  }
}

void FirstFitIndex::Reclassify(uint64_t lo, uint64_t hi, uint64_t new_lo, uint64_t new_hi) {
  const int k = ClassOf(hi - lo);
  auto node = classes_[k].extract(Range{lo, hi});
  if (classes_[k].empty()) {
    nonempty_classes_ &= ~(uint64_t{1} << k);
  }
  node.value() = Range{new_lo, new_hi};
  const int new_k = ClassOf(new_hi - new_lo);
  classes_[new_k].insert(std::move(node));
  nonempty_classes_ |= uint64_t{1} << new_k;
}

void FirstFitIndex::MoveStart(std::map<uint64_t, uint64_t>::iterator it, uint64_t new_lo) {
  const auto hint = std::next(it);
  auto node = spans_.extract(it);
  node.key() = new_lo;
  spans_.insert(hint, std::move(node));
}

void FirstFitIndex::Insert(uint64_t lo, uint64_t hi) {
  STALLOC_DCHECK(lo < hi, << "first-fit index: empty range [" << lo << ", " << hi << ")");
  total_ += hi - lo;
  auto next = spans_.lower_bound(lo);
  STALLOC_DCHECK(next == spans_.end() || next->first >= hi,
                 << "first-fit index: [" << lo << ", " << hi << ") overlaps a free range");
  const bool join_next = next != spans_.end() && next->first == hi;
  if (next != spans_.begin()) {
    auto prev = std::prev(next);
    STALLOC_DCHECK(prev->second <= lo,
                   << "first-fit index: [" << lo << ", " << hi << ") overlaps a free range");
    if (prev->second == lo) {  // extend the lower neighbour in place
      if (join_next) {
        Unclassify(next->first, next->second);
        hi = next->second;
        spans_.erase(next);
      }
      Reclassify(prev->first, prev->second, prev->first, hi);
      prev->second = hi;
      return;
    }
  }
  if (join_next) {  // the upper neighbour now starts at lo; its nodes are reused
    Reclassify(next->first, next->second, lo, next->second);
    MoveStart(next, lo);
    return;
  }
  spans_.emplace_hint(next, lo, hi);
  Classify(lo, hi);
}

std::optional<uint64_t> FirstFitIndex::TakeFirstFit(uint64_t size) {
  STALLOC_DCHECK(size > 0);
  const int c = ClassOf(size);
  // Every range in a class above c fits; the lowest of them is the smallest class minimum.
  uint64_t best = std::numeric_limits<uint64_t>::max();  // no range starts here: hi would wrap
  // Bits above c (for c == 63 the shift wraps to 0 and the mask to 0: no class is above).
  for (uint64_t above = nonempty_classes_ & ~((uint64_t{2} << c) - 1); above != 0;
       above &= above - 1) {
    best = std::min(best, classes_[__builtin_ctzll(above)].begin()->first);
  }
  // Class c may hold a fitting range below that candidate; nothing below class c fits.
  for (const Range& r : classes_[c]) {
    if (r.first >= best) {
      break;
    }
    if (r.second - r.first >= size) {
      best = r.first;
      break;
    }
  }
  if (best == std::numeric_limits<uint64_t>::max()) {
    return std::nullopt;
  }
  auto it = spans_.find(best);
  const uint64_t hi = it->second;
  if (best + size < hi) {  // the remainder stays free, in place, in the same nodes
    Reclassify(best, hi, best + size, hi);
    MoveStart(it, best + size);
  } else {
    Unclassify(best, hi);
    spans_.erase(it);
  }
  total_ -= size;
  return best;
}

uint64_t FirstFitIndex::largest() const {
  if (nonempty_classes_ == 0) {
    return 0;
  }
  uint64_t best = 0;
  // The top non-empty class is the highest set bit; every range outside it is shorter.
  for (const Range& r : classes_[ClassOf(nonempty_classes_)]) {
    best = std::max(best, r.second - r.first);
  }
  return best;
}

}  // namespace stalloc
