// Heap-map observability: block-level address-space snapshots per allocator, with a
// fragmentation-attribution pass that explains *where* external fragmentation comes from.
//
// The paper's headline metric (E = Ma/Mr) says how much fragmentation a run paid, not which
// allocations caused it. A HeapSnapshot captures the allocator's whole address space at one
// instant — every reserved segment, every live block with its request context (phase, layer,
// stream, dyn, tenant), and by subtraction every free gap. The attribution pass then charges
// each gap's bytes to the live blocks pinning it (half to each neighbour, all of it at segment
// edges, an "idle" bucket for empty segments), keyed by the pinning block's size group, phase
// and tenant. Summed over a run this yields the attribution table `stalloc_diff` compares
// between runs: "the Mr regression is 512M-1G backward-phase blocks pinning gaps".
//
// Capture model mirrors the OOM flight recorder (flight_recorder.h):
//   * per-allocator trigger state (sequence counter, last phase, peak watermark, tag ledger)
//     lives in AllocatorBase, lazily created on the first op while the recorder is armed, so
//     disabled runs never pay for it;
//   * snapshots are handed to the process-wide HeapMapRecorder (mutex-guarded: parallel fleets
//     snapshot from worker threads); Drain() sorts by (allocator label, seq) so the timeline
//     is bit-identical across worker counts;
//   * everything sits behind the same STALLOC_TELEMETRY compile-time + runtime gate as the
//     rest of src/telemetry/ — and additionally behind Arm(), so `--trace`-only runs do not
//     pay for snapshots either.
//
// Determinism: snapshots carry no host time. Triggers derive only from allocator-local state
// (op counts, phases, peaks), which is deterministic on pinned seeds; tests pin the golden
// cluster digest with the recorder armed and compare serialized timelines across --workers.

#ifndef SRC_TELEMETRY_HEAP_MAP_H_
#define SRC_TELEMETRY_HEAP_MAP_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "src/api/report.h"
#include "src/trace/event.h"

namespace stalloc {
namespace telemetry {

// What caused a snapshot to be taken.
enum class HeapTrigger : uint8_t {
  kPhaseChange,  // the issuing phase of a malloc differs from the previous one
  kPeak,         // allocated bytes crossed a new high-water mark (with hysteresis)
  kOom,          // a malloc failed; the snapshot is the address space at failure
  kEveryN,       // periodic: every N ops (opt-in, off by default)
  kManual,       // explicit CaptureHeapSnapshot call (tests, tools)
};

const char* HeapTriggerName(HeapTrigger trigger);

// One live block, with the request context captured at malloc time. Blocks allocated before
// the recorder was armed carry default tags (kInvalidPhase etc.).
struct HeapBlock {
  uint64_t addr = 0;
  uint64_t size = 0;  // requested bytes
  PhaseId phase = kInvalidPhase;
  LayerId layer = kInvalidLayer;
  StreamId stream = kComputeStream;
  bool dyn = false;
  uint64_t tenant = 0;
};

// One reserved address range (a caching segment, a VMM reservation, a slab, the static pool).
struct HeapSegment {
  uint64_t base = 0;
  uint64_t size = 0;
  StreamId stream = kComputeStream;
  std::string pool;  // "large", "small", "static-pool", "expandable", "slab", "direct", ...
};

// External-fragmentation bytes charged to one (size group, phase, tenant) class of pinning
// blocks. "idle" size group collects gaps in segments with no live block at all.
struct FragAttributionRow {
  std::string size_group;
  PhaseId phase = kInvalidPhase;
  uint64_t tenant = 0;
  uint64_t bytes = 0;  // gap bytes attributed to this class
  uint64_t gaps = 0;   // number of gaps contributing
};

// The allocator's whole address space at one instant. Segments and blocks are sorted by
// address; derived fields (free_bytes, gaps, attribution) are filled by FinalizeHeapSnapshot
// and satisfy: sum(attribution[].bytes) == free_bytes == sum(segments) - sum(in-segment blocks).
struct HeapSnapshot {
  std::string allocator;  // heap label (Allocator::HeapLabel(); fleet devices get "@devNNN")
  HeapTrigger trigger = HeapTrigger::kManual;
  uint64_t seq = 0;       // per-allocator snapshot sequence (drain order key; deterministic)
  uint64_t op_index = 0;  // num_mallocs + num_frees at capture
  uint64_t allocated = 0;
  uint64_t reserved = 0;
  uint64_t num_oom = 0;
  uint64_t failed_size = 0;  // kOom only: bytes the failing malloc asked for

  std::vector<HeapSegment> segments;
  std::vector<HeapBlock> blocks;

  // Derived by FinalizeHeapSnapshot:
  uint64_t free_bytes = 0;   // in-segment bytes not covered by live blocks
  uint64_t largest_gap = 0;
  uint64_t num_gaps = 0;
  std::vector<FragAttributionRow> attribution;  // sorted by bytes desc, then key
};

// Deterministic size-group bucket label for a block size ("<64K", "64K-256K", ..., ">=1G").
// Used as the attribution key so tables stay readable and stable across runs.
std::string SizeGroupLabel(uint64_t size);

// Snapshot triggers. Copied into each allocator's local trigger state on its first armed op —
// arm the recorder before running, not mid-run.
struct HeapMapConfig {
  bool on_phase_change = true;
  bool on_peak = true;
  bool on_oom = true;
  uint64_t every_n_ops = 0;  // 0 = periodic trigger off
  // Peak hysteresis: a new allocated high-water mark triggers only when it exceeds the last
  // peak-snapshotted value by this fraction, so monotone growth does not snapshot every op.
  double peak_growth = 0.05;
  // Hard per-allocator snapshot cap (deterministic: each allocator stops on its own counter,
  // never on global arrival order).
  uint64_t max_snapshots_per_allocator = 64;
};

// Process-wide snapshot collector. Thread-safe: parallel fleets snapshot device allocators
// from worker threads concurrently.
class HeapMapRecorder {
 public:
  static HeapMapRecorder& Global();

  // Arms capture with `config` and clears pending snapshots. Emission points check armed()
  // with one relaxed load, so an unarmed telemetry run pays a single branch per op.
  void Arm(const HeapMapConfig& config);
  void Disarm();
  bool armed() const { return armed_.load(std::memory_order_relaxed); }
  HeapMapConfig config() const;

  void Record(HeapSnapshot snapshot);

  // Moves out every pending snapshot sorted by (allocator label, seq) and clears the
  // recorder. The sort makes the drained timeline independent of worker interleaving.
  std::vector<HeapSnapshot> Drain();

  size_t pending() const;

 private:
  mutable std::mutex mu_;
  std::atomic<bool> armed_{false};
  HeapMapConfig config_;
  std::vector<HeapSnapshot> snapshots_;
};

// Computes gaps and the attribution table of a captured snapshot (segments/blocks must be
// address-sorted). Guarantees sum(attribution[].bytes) == free_bytes exactly.
void FinalizeHeapSnapshot(HeapSnapshot* snapshot);

// Rolls a drained timeline up into one per-run attribution table: for each allocator label,
// the attribution of its peak snapshot (max allocated, then max reserved; earliest seq on
// ties — the frame at the Ma high-water mark, where in-segment free space is the run's
// external fragmentation), merged across labels by (size_group, phase, tenant). When any
// label equals `prefer` (or "<prefer>@...",
// the fleet's per-device form), only those labels contribute — this keeps e.g. the profiling
// pass's native allocator out of a stalloc run's table.
std::vector<FragAttributionRow> RunAttribution(const std::vector<HeapSnapshot>& timeline,
                                               const std::string& prefer);

// Renders a self-contained HTML heap-timeline viewer (inline JSON + canvas, no external
// dependencies). `payload` is the document produced by stalloc_run --heapmap: a "runs" array
// of {allocator, variant, heap_timeline}.
std::string HeapTimelineHtml(const std::string& title, const Json& payload);

}  // namespace telemetry
}  // namespace stalloc

#endif  // SRC_TELEMETRY_HEAP_MAP_H_
