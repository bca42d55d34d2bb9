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

void FirstFitIndex::Insert(uint64_t lo, uint64_t hi) {
  STALLOC_DCHECK(lo < hi, << "first-fit index: empty range [" << lo << ", " << hi << ")");
  total_ += hi - lo;
  auto next = spans_.lower_bound(lo);
  STALLOC_DCHECK(next == spans_.end() || next->first >= hi,
                 << "first-fit index: [" << lo << ", " << hi << ") overlaps a free range");
  if (next != spans_.end() && next->first == hi) {
    Unclassify(next->first, next->second);
    hi = next->second;
    next = spans_.erase(next);
  }
  if (next != spans_.begin()) {
    auto prev = std::prev(next);
    STALLOC_DCHECK(prev->second <= lo,
                   << "first-fit index: [" << lo << ", " << hi << ") overlaps a free range");
    if (prev->second == lo) {
      Unclassify(prev->first, prev->second);
      prev->second = hi;
      Classify(prev->first, hi);
      return;
    }
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
  Unclassify(best, hi);
  it = spans_.erase(it);
  if (best + size < hi) {  // the remainder stays free, in place
    spans_.emplace_hint(it, best + size, hi);
    Classify(best + size, hi);
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
