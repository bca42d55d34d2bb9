#include "src/common/verify.h"

// 1 when configured with -DSTALLOC_VERIFY=ON (set on this file only by CMakeLists.txt).
#ifndef STALLOC_VERIFY_DEFAULT
#define STALLOC_VERIFY_DEFAULT 0
#endif

namespace stalloc {
namespace verify {

namespace internal {
std::atomic<bool> g_enabled{STALLOC_VERIFY_DEFAULT != 0};
}  // namespace internal

void SetEnabled(bool on) { internal::g_enabled.store(on, std::memory_order_relaxed); }

}  // namespace verify
}  // namespace stalloc
