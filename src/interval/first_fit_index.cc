#include "src/interval/first_fit_index.h"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <utility>

#include "src/common/check.h"

namespace stalloc {

void FirstFitIndex::Resummarize(size_t c) {
  const Chunk& chunk = chunks_[c];
  uint64_t longest = 0;
  for (const Range& r : chunk) {
    longest = std::max(longest, r.length());
  }
  chunk_lo_[c] = chunk.front().lo;
  chunk_max_[c] = longest;
}

void FirstFitIndex::AfterShrink(size_t c, uint64_t old_length) {
  if (old_length == chunk_max_[c]) {
    Resummarize(c);
  } else {
    chunk_lo_[c] = chunks_[c].front().lo;
  }
}

void FirstFitIndex::RemoveChunk(size_t c) {
  chunks_.erase(chunks_.begin() + static_cast<ptrdiff_t>(c));
  chunk_lo_.erase(chunk_lo_.begin() + static_cast<ptrdiff_t>(c));
  chunk_max_.erase(chunk_max_.begin() + static_cast<ptrdiff_t>(c));
}

void FirstFitIndex::SplitChunk(size_t c) {
  constexpr auto kHalf = static_cast<ptrdiff_t>(kChunkRanges / 2);
  Chunk upper(chunks_[c].begin() + kHalf, chunks_[c].end());
  chunks_[c].resize(kHalf);
  const auto at = static_cast<ptrdiff_t>(c + 1);
  chunks_.insert(chunks_.begin() + at, std::move(upper));
  chunk_lo_.insert(chunk_lo_.begin() + at, 0);
  chunk_max_.insert(chunk_max_.begin() + at, 0);
  Resummarize(c);
  Resummarize(c + 1);
}

void FirstFitIndex::Insert(uint64_t lo, uint64_t hi) {
  STALLOC_DCHECK(lo < hi, << "first-fit index: empty range [" << lo << ", " << hi << ")");
  total_ += hi - lo;
  if (chunks_.empty()) {
    chunks_.push_back(Chunk{Range{lo, hi}});
    chunk_lo_.push_back(lo);
    chunk_max_.push_back(hi - lo);
    if (verify_) {
      VerifyAll();
    }
    return;
  }
  // Chunk c is the last one starting at or below lo (chunk 0 when lo precedes every range), and
  // i is the first range in it starting above lo. The lower neighbour is range i - 1 of chunk c;
  // the upper one is range i, or the first range of chunk c + 1 when i is past the end.
  const auto after = std::upper_bound(chunk_lo_.begin(), chunk_lo_.end(), lo);
  size_t c = after == chunk_lo_.begin() ? 0 : static_cast<size_t>(after - chunk_lo_.begin()) - 1;
  Chunk& chunk = chunks_[c];
  size_t i = static_cast<size_t>(
      std::upper_bound(chunk.begin(), chunk.end(), lo,
                       [](uint64_t key, const Range& r) { return key < r.lo; }) -
      chunk.begin());
  const size_t nc = i < chunk.size() ? c : c + 1;
  const size_t ni = i < chunk.size() ? i : 0;
  Range* next = nc < chunks_.size() ? &chunks_[nc][ni] : nullptr;
  const bool join_next = next != nullptr && next->lo == hi;

  if (i > 0 && chunk[i - 1].hi == lo) {  // extend the lower neighbour in place
    Range& prev = chunk[i - 1];
    bool removed = false;
    if (join_next) {
      const uint64_t next_length = next->length();
      prev.hi = next->hi;
      if (nc == c) {
        chunk.erase(chunk.begin() + static_cast<ptrdiff_t>(i));
      } else {  // the upper neighbour opens the next chunk
        Chunk& upper = chunks_[nc];
        upper.erase(upper.begin());
        if (upper.empty()) {
          RemoveChunk(nc);
          removed = true;
        } else {
          AfterShrink(nc, next_length);
        }
      }
    } else {
      prev.hi = hi;
    }
    chunk_max_[c] = std::max(chunk_max_[c], prev.length());
    if (verify_) {
      if (removed) {
        VerifyAll();
      } else {
        VerifyAround(c, i - 1);
        if (join_next && nc != c) {
          VerifyChunkSummary(nc);  // it lost its first range
        }
      }
    }
    return;
  }
  if (join_next) {  // the upper neighbour now starts at lo
    next->lo = lo;
    chunk_lo_[nc] = chunks_[nc].front().lo;
    chunk_max_[nc] = std::max(chunk_max_[nc], next->length());
    if (verify_) {
      VerifyAround(nc, ni);
    }
    return;
  }
  const bool split = chunk.size() == kChunkRanges;
  if (split) {
    SplitChunk(c);  // invalidates `chunk`
    if (i > kChunkRanges / 2) {
      i -= kChunkRanges / 2;
      ++c;
    }
  }
  Chunk& home = chunks_[c];
  home.insert(home.begin() + static_cast<ptrdiff_t>(i), Range{lo, hi});
  chunk_lo_[c] = home.front().lo;
  chunk_max_[c] = std::max(chunk_max_[c], hi - lo);
  if (verify_) {
    if (split) {
      VerifyAll();
    } else {
      VerifyAround(c, i);
    }
  }
}

std::optional<uint64_t> FirstFitIndex::TakeFirstFit(uint64_t size) {
  STALLOC_DCHECK(size > 0);
  // Every range before the first chunk, then range, whose longest fits is shorter.
  const size_t num_chunks = chunk_max_.size();
  size_t c = 0;
  while (c < num_chunks && chunk_max_[c] < size) {
    ++c;
  }
  if (c == num_chunks) {
    return std::nullopt;
  }
  Chunk& chunk = chunks_[c];
  size_t i = 0;
  while (chunk[i].length() < size) {
    ++i;
  }
  Range& r = chunk[i];
  const uint64_t addr = r.lo;
  const uint64_t length = r.length();
  total_ -= size;
  if (length > size) {  // the remainder stays free, in place
    r.lo += size;
    AfterShrink(c, length);
    if (verify_) {
      VerifyAround(c, i);
    }
    return addr;
  }
  chunk.erase(chunk.begin() + static_cast<ptrdiff_t>(i));
  if (chunk.empty()) {
    RemoveChunk(c);
    if (verify_) {
      VerifyAll();
    }
    return addr;
  }
  AfterShrink(c, length);
  if (verify_) {
    VerifyAround(c, std::min(i, chunk.size() - 1));
  }
  return addr;
}

bool FirstFitIndex::TakeRange(uint64_t lo, uint64_t hi) {
  if (lo >= hi || chunks_.empty() || lo < chunk_lo_[0]) {
    return false;
  }
  // Range i of chunk c is the last one starting at or below lo: the only one that can cover it.
  size_t c = ChunkAtOrBelow(lo);
  size_t i = static_cast<size_t>(
                 std::upper_bound(chunks_[c].begin(), chunks_[c].end(), lo,
                                  [](uint64_t key, const Range& r) { return key < r.lo; }) -
                 chunks_[c].begin()) -
             1;
  Range& r = chunks_[c][i];
  if (r.hi < hi) {
    return false;
  }
  const uint64_t length = r.length();
  total_ -= hi - lo;
  if (r.lo < lo && hi < r.hi) {  // a middle carve: [r.lo, lo) stays, [hi, r.hi) follows it
    const bool split = chunks_[c].size() == kChunkRanges;
    if (split) {
      SplitChunk(c);  // invalidates `r`
      if (i >= kChunkRanges / 2) {
        i -= kChunkRanges / 2;
        ++c;
      }
    }
    Chunk& chunk = chunks_[c];
    const uint64_t upper_hi = chunk[i].hi;
    chunk[i].hi = lo;
    chunk.insert(chunk.begin() + static_cast<ptrdiff_t>(i + 1), Range{hi, upper_hi});
    AfterShrink(c, length);
    if (verify_) {
      if (split) {
        VerifyAll();
      } else {
        VerifyAround(c, i);
        VerifyAround(c, i + 1);
      }
    }
    return true;
  }
  if (r.lo < lo || hi < r.hi) {  // one end goes; the rest stays free, in place
    if (r.lo == lo) {
      r.lo = hi;
    } else {
      r.hi = lo;
    }
    AfterShrink(c, length);
    if (verify_) {
      VerifyAround(c, i);
    }
    return true;
  }
  Chunk& chunk = chunks_[c];  // the whole range goes
  chunk.erase(chunk.begin() + static_cast<ptrdiff_t>(i));
  if (chunk.empty()) {
    RemoveChunk(c);
    if (verify_) {
      VerifyAll();
    }
    return true;
  }
  AfterShrink(c, length);
  if (verify_) {
    VerifyAround(c, std::min(i, chunk.size() - 1));
  }
  return true;
}

uint64_t FirstFitIndex::largest() const {
  return chunk_max_.empty() ? 0 : *std::max_element(chunk_max_.begin(), chunk_max_.end());
}

void FirstFitIndex::VerifyChunkSummary(size_t c) const {
  const Chunk& chunk = chunks_[c];
  STALLOC_CHECK(!chunk.empty() && chunk.size() <= kChunkRanges,
                << "first-fit index: chunk " << c << " holds " << chunk.size() << " ranges");
  uint64_t longest = 0;
  for (const Range& r : chunk) {
    longest = std::max(longest, r.length());
  }
  STALLOC_CHECK_EQ(chunk_lo_[c], chunk.front().lo, << "first-fit index: chunk " << c << " start");
  STALLOC_CHECK_EQ(chunk_max_[c], longest, << "first-fit index: chunk " << c << " longest");
}

void FirstFitIndex::VerifyAround(size_t c, size_t i) const {
  const Range& r = chunks_[c][i];
  STALLOC_CHECK(r.lo < r.hi, << "first-fit index: empty range [" << r.lo << ", " << r.hi << ")");
  const Range* prev = i > 0 ? &chunks_[c][i - 1] : c > 0 ? &chunks_[c - 1].back() : nullptr;
  const Range* next = i + 1 < chunks_[c].size()   ? &chunks_[c][i + 1]
                      : c + 1 < chunks_.size() ? &chunks_[c + 1].front()
                                               : nullptr;
  STALLOC_CHECK(prev == nullptr || prev->hi < r.lo,
                << "first-fit index: [" << r.lo << ", " << r.hi << ") overlaps or touches ["
                << prev->lo << ", " << prev->hi << ")");
  STALLOC_CHECK(next == nullptr || r.hi < next->lo,
                << "first-fit index: [" << r.lo << ", " << r.hi << ") overlaps or touches ["
                << next->lo << ", " << next->hi << ")");
  VerifyChunkSummary(c);
}

void FirstFitIndex::VerifyAll() const {
  STALLOC_CHECK(chunk_lo_.size() == chunks_.size() && chunk_max_.size() == chunks_.size(),
                << "first-fit index: summary sizes");
  uint64_t sum = 0;
  const Range* prev = nullptr;
  for (size_t c = 0; c < chunks_.size(); ++c) {
    VerifyChunkSummary(c);
    for (const Range& r : chunks_[c]) {
      STALLOC_CHECK(r.lo < r.hi && (prev == nullptr || prev->hi < r.lo),
                    << "first-fit index: range [" << r.lo << ", " << r.hi
                    << ") out of order, empty or touching its predecessor");
      sum += r.length();
      prev = &r;
    }
  }
  STALLOC_CHECK_EQ(sum, total_, << "first-fit index: free bytes");
}

}  // namespace stalloc
