// Sets verify mode (src/common/verify.h) for one scope and restores the previous setting.
// Verify mode is read when an allocator is built, so build the allocators under test inside
// the scope.

#ifndef TESTS_SUPPORT_SCOPED_VERIFY_H_
#define TESTS_SUPPORT_SCOPED_VERIFY_H_

#include "src/common/verify.h"

namespace stalloc {

class ScopedVerify {
 public:
  explicit ScopedVerify(bool on) : previous_(verify::Enabled()) { verify::SetEnabled(on); }
  ~ScopedVerify() { verify::SetEnabled(previous_); }
  ScopedVerify(const ScopedVerify&) = delete;
  ScopedVerify& operator=(const ScopedVerify&) = delete;

 private:
  bool previous_;
};

}  // namespace stalloc

#endif  // TESTS_SUPPORT_SCOPED_VERIFY_H_
