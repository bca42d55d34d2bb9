// Linked into every test binary: tests run in verify mode (src/common/verify.h), so the overlap
// walk and the post-synthesis plan sweep check every allocator and plan a test builds. Tests
// that need verify mode off turn it off around their own body.

#include "src/common/verify.h"

namespace {

[[maybe_unused]] const bool kVerifyOn = [] {
  stalloc::verify::SetEnabled(true);
  return true;
}();

}  // namespace
