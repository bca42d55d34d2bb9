#include "src/allocators/free_index.h"

#include <cstdint>
#include <optional>

#include "src/common/check.h"

namespace stalloc {

uint32_t BlockArena::NewBlock(uint64_t addr, uint64_t size, bool free, SegmentId id,
                              uint32_t prev) {
  uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = static_cast<uint32_t>(blocks_.size());
    blocks_.emplace_back();
  }
  Block& b = blocks_[slot];
  b.addr = addr;
  b.size = size;
  b.free = free;
  b.segment = id;
  b.prev = prev;
  b.next = prev == kNoBlock ? kNoBlock : blocks_[prev].next;
  if (prev != kNoBlock) {
    blocks_[prev].next = slot;
  }
  if (b.next != kNoBlock) {
    blocks_[b.next].prev = slot;
  } else {
    segments_[id].tail = slot;
  }
  const bool inserted = by_addr_.Insert(addr, slot);
  STALLOC_CHECK(inserted, << "block arena: block at " << addr << " already exists");
  return slot;
}

void BlockArena::DropBlock(uint32_t slot) {
  const Block& b = blocks_[slot];
  if (b.prev != kNoBlock) {
    blocks_[b.prev].next = b.next;
  }
  if (b.next != kNoBlock) {
    blocks_[b.next].prev = b.prev;
  } else {
    segments_[b.segment].tail = b.prev;
  }
  by_addr_.Erase(b.addr);
  free_slots_.push_back(slot);
}

uint32_t BlockArena::FindBlock(uint64_t addr) const {
  const uint32_t* slot = by_addr_.Find(addr);
  return slot == nullptr ? kNoBlock : *slot;
}

BlockArena::SegmentId BlockArena::AddSegment(uint64_t base, uint64_t size, PoolId pool,
                                             uint64_t take, uint64_t min_split) {
  STALLOC_CHECK_LE(take, size);
  const SegmentId id = static_cast<SegmentId>(segments_.size());
  Segment seg;
  seg.base = base;
  seg.size = size;
  seg.pool = pool;
  segments_.push_back(seg);
  Pool(pool);  // the pool's index exists from its first segment on
  if (size == 0) {
    return id;
  }
  const uint32_t slot = NewBlock(base, size, /*free=*/take == 0, id, kNoBlock);
  if (take == 0) {
    segments_[id].free_bytes = size;
    pools_[pool].Insert(size, base);
  } else {
    Split(slot, take, min_split);
  }
  return id;
}

std::optional<uint64_t> BlockArena::Take(PoolId pool, uint64_t size, uint64_t min_split) {
  auto best = Pool(pool).PopBestFit(size);
  if (!best.has_value()) {
    return std::nullopt;
  }
  const uint32_t slot = FindBlock(best->second);
  STALLOC_CHECK(slot != kNoBlock && blocks_[slot].free);
  blocks_[slot].free = false;
  segments_[blocks_[slot].segment].free_bytes -= blocks_[slot].size;
  Split(slot, size, min_split);
  return best->second;
}

void BlockArena::Split(uint32_t slot, uint64_t want, uint64_t min_split) {
  const Block& block = blocks_[slot];
  STALLOC_CHECK_GE(block.size, want);
  const uint64_t remainder = block.size - want;
  if (remainder == 0 || remainder < min_split) {
    return;
  }
  blocks_[slot].size = want;
  const uint64_t rest_addr = blocks_[slot].addr + want;
  Segment& seg = segments_[blocks_[slot].segment];
  NewBlock(rest_addr, remainder, /*free=*/true, blocks_[slot].segment, slot);
  seg.free_bytes += remainder;
  pools_[seg.pool].Insert(remainder, rest_addr);
}

BlockArena::Released BlockArena::Release(uint64_t addr) {
  const uint32_t slot = FindBlock(addr);
  STALLOC_CHECK(slot != kNoBlock && !blocks_[slot].free,
                << "block arena: release of unknown block " << addr);
  Block& block = blocks_[slot];
  const Released released{block.size, block.segment};
  block.free = true;
  segments_[block.segment].free_bytes += block.size;
  Coalesce(slot);
  return released;
}

void BlockArena::Coalesce(uint32_t slot) {
  BestFitIndex& free_list = pools_[segments_[blocks_[slot].segment].pool];
  // List neighbours are contiguous: blocks tile their segment.
  const uint32_t next = blocks_[slot].next;
  if (next != kNoBlock && blocks_[next].free) {
    if (verify_) {
      STALLOC_CHECK_EQ(blocks_[slot].addr + blocks_[slot].size, blocks_[next].addr);
    }
    free_list.Erase(blocks_[next].size, blocks_[next].addr);
    blocks_[slot].size += blocks_[next].size;
    DropBlock(next);
  }
  const uint32_t prev = blocks_[slot].prev;
  if (prev != kNoBlock && blocks_[prev].free) {
    if (verify_) {
      STALLOC_CHECK_EQ(blocks_[prev].addr + blocks_[prev].size, blocks_[slot].addr);
    }
    free_list.Erase(blocks_[prev].size, blocks_[prev].addr);
    blocks_[prev].size += blocks_[slot].size;
    DropBlock(slot);
    slot = prev;
  }
  free_list.Insert(blocks_[slot].size, blocks_[slot].addr);
}

void BlockArena::RemoveSegment(SegmentId id) {
  Segment& seg = segments_[id];
  STALLOC_CHECK(FullyFree(id), << "block arena: segment " << id << " is not fully free");
  if (seg.tail != kNoBlock) {
    // Coalescing leaves a fully-free segment as one block.
    const uint32_t slot = seg.tail;
    STALLOC_CHECK(blocks_[slot].addr == seg.base && blocks_[slot].size == seg.size);
    pools_[seg.pool].Erase(seg.size, seg.base);
    DropBlock(slot);
  }
  seg.live = false;
  seg.free_bytes = 0;
}

void BlockArena::GrowTail(SegmentId id, uint64_t bytes) {
  Segment& seg = segments_[id];
  STALLOC_CHECK(seg.live && bytes > 0);
  const uint64_t end = seg.base + seg.size;
  seg.size += bytes;
  seg.free_bytes += bytes;
  Coalesce(NewBlock(end, bytes, /*free=*/true, id, seg.tail));
}

uint64_t BlockArena::TailFree(SegmentId id) const {
  const uint32_t tail = segments_[id].tail;
  return tail != kNoBlock && blocks_[tail].free ? blocks_[tail].size : 0;
}

void BlockArena::TrimTail(SegmentId id, uint64_t new_size) {
  Segment& seg = segments_[id];
  const uint32_t tail = seg.tail;
  const uint64_t new_end = seg.base + new_size;
  STALLOC_CHECK(tail != kNoBlock && blocks_[tail].free && blocks_[tail].addr <= new_end &&
                new_size <= seg.size);
  BestFitIndex& free_list = pools_[seg.pool];
  free_list.Erase(blocks_[tail].size, blocks_[tail].addr);
  seg.free_bytes -= seg.size - new_size;
  seg.size = new_size;
  if (blocks_[tail].addr < new_end) {
    blocks_[tail].size = new_end - blocks_[tail].addr;
    free_list.Insert(blocks_[tail].size, blocks_[tail].addr);
  } else {
    DropBlock(tail);
  }
}

}  // namespace stalloc
