// Verify mode: the one switch for checks too slow for the replay hot path.
//
// Cheap invariants stay always on (STALLOC_CHECK). Checks that cost a tree walk per op or a
// sweep per plan run only in verify mode:
//   * AllocatorBase's ordered overlap walk over every live block (memory stomping);
//   * StaticPlan::Validate on every synthesized or compacted plan;
//   * FirstFitIndex's chunk invariants: the touched range against its neighbours and its
//     chunk's summaries after every op, and a walk of every chunk on a split or removal;
//   * BlockArena's contiguity of the list neighbours each Coalesce merges.
// The flag defaults to the STALLOC_VERIFY CMake option (OFF) and is flipped at run time by
// SetEnabled (`stalloc_run --verify`; every ctest binary links an object that turns it on).
// Consumers read it once when they are built or start a unit of work — an allocator or an
// index at construction, the planner per synthesis — never per op, so flipping it mid-run
// affects only what is built afterwards. Verify mode never changes a result: only whether a
// bug aborts.

#ifndef SRC_COMMON_VERIFY_H_
#define SRC_COMMON_VERIFY_H_

#include <atomic>

namespace stalloc {
namespace verify {

namespace internal {
extern std::atomic<bool> g_enabled;
}  // namespace internal

inline bool Enabled() { return internal::g_enabled.load(std::memory_order_relaxed); }

void SetEnabled(bool on);

}  // namespace verify
}  // namespace stalloc

#endif  // SRC_COMMON_VERIFY_H_
