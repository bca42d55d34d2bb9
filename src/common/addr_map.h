// AddrMap: a flat open-addressing hash table keyed by 64-bit device addresses.
//
// The replay hot path keeps three exact-match address ledgers — AllocatorBase's live blocks,
// SimDevice's classic allocations and BlockArena's block slots. None of them needs address
// order, and a node-based map pays a heap allocation and a pointer chase per op. AddrMap keeps
// (key, value) slots inline in one array:
//   * linear probing over a power-of-two slot count, homed by Fibonacci hashing (the high bits
//     of key * 2^64/phi), which spreads 512-aligned and clustered addresses evenly;
//   * backward-shift deletion: no tombstones, so probe runs do not decay under churn;
//   * ~0 as the empty-key sentinel — address 0 is a real key, and no block starts at 2^64 - 1;
//   * growth by doubling at 3/4 load, never shrinking.
// Iteration order is unspecified; callers that need address order sort.

#ifndef SRC_COMMON_ADDR_MAP_H_
#define SRC_COMMON_ADDR_MAP_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/common/check.h"

namespace stalloc {

template <typename V>
class AddrMap {
 public:
  static constexpr uint64_t kEmptyKey = ~uint64_t{0};

  size_t size() const { return size_; }
  // Slot count (a power of two, 0 before the first insert) and the slot `key` probes first
  // (only with a nonzero capacity). For tests.
  size_t capacity() const { return slots_.size(); }
  size_t HomeSlot(uint64_t key) const { return Home(key); }

  // Inserts key -> value. Returns false if `key` is already present; its value is unchanged.
  bool Insert(uint64_t key, V value) {
    STALLOC_CHECK(key != kEmptyKey, << "AddrMap: key " << key << " is the empty-slot sentinel");
    if ((size_ + 1) * 4 > slots_.size() * 3) {
      Grow();
    }
    size_t i = Home(key);
    for (; slots_[i].key != kEmptyKey; i = (i + 1) & mask_) {
      if (slots_[i].key == key) {
        return false;
      }
    }
    slots_[i] = Slot{key, value};
    ++size_;
    return true;
  }

  // The value stored under `key`, or nullptr. Valid until the next Insert or Erase.
  const V* Find(uint64_t key) const {
    const size_t i = Locate(key);
    return i == kNotFound ? nullptr : &slots_[i].value;
  }

  // Removes `key`; returns false if it was absent.
  bool Erase(uint64_t key) {
    const size_t hole = Locate(key);
    if (hole == kNotFound) {
      return false;
    }
    EraseSlot(hole);
    return true;
  }

  // Removes `key` and stores its value in *value; returns false, with *value unchanged, if it
  // was absent.
  bool Erase(uint64_t key, V* value) {
    const size_t hole = Locate(key);
    if (hole == kNotFound) {
      return false;
    }
    *value = slots_[hole].value;
    EraseSlot(hole);
    return true;
  }

  // Calls f(key, value) for every entry, in slot order.
  template <typename F>
  void ForEach(F&& f) const {
    for (const Slot& s : slots_) {
      if (s.key != kEmptyKey) {
        f(s.key, s.value);
      }
    }
  }

 private:
  struct Slot {
    uint64_t key = kEmptyKey;
    V value{};
  };
  static_assert(sizeof(Slot) <= 16, "AddrMap keeps 16-byte slots");
  static constexpr size_t kNotFound = ~size_t{0};
  static constexpr size_t kMinSlots = 16;

  size_t Home(uint64_t key) const {
    return static_cast<size_t>((key * 0x9E3779B97F4A7C15ull) >> shift_);
  }

  size_t Locate(uint64_t key) const {
    if (size_ == 0 || key == kEmptyKey) {
      return kNotFound;
    }
    for (size_t i = Home(key);; i = (i + 1) & mask_) {
      if (slots_[i].key == key) {
        return i;
      }
      if (slots_[i].key == kEmptyKey) {
        return kNotFound;
      }
    }
  }

  // Backward shift: walk the rest of the probe run after the emptied slot `hole` and pull each
  // entry back into the hole unless that would move it before its home slot. Distances are
  // taken modulo the slot count, so runs that wrap past the end of the array shift like any
  // other.
  void EraseSlot(size_t hole) {
    for (size_t j = (hole + 1) & mask_; slots_[j].key != kEmptyKey; j = (j + 1) & mask_) {
      if (((j - Home(slots_[j].key)) & mask_) >= ((j - hole) & mask_)) {
        slots_[hole] = slots_[j];
        hole = j;
      }
    }
    slots_[hole].key = kEmptyKey;
    --size_;
  }

  void Grow() {
    std::vector<Slot> old(slots_.empty() ? kMinSlots : 2 * slots_.size());
    old.swap(slots_);
    mask_ = slots_.size() - 1;
    shift_ = 64;
    for (size_t n = slots_.size(); n > 1; n >>= 1) {
      --shift_;
    }
    for (const Slot& s : old) {
      if (s.key != kEmptyKey) {
        size_t i = Home(s.key);
        while (slots_[i].key != kEmptyKey) {
          i = (i + 1) & mask_;
        }
        slots_[i] = s;
      }
    }
  }

  std::vector<Slot> slots_;
  size_t size_ = 0;
  size_t mask_ = 0;
  int shift_ = 64;
};

}  // namespace stalloc

#endif  // SRC_COMMON_ADDR_MAP_H_
