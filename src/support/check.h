// Lightweight invariant checking for xcverifier.
//
// XCV_CHECK is always on (the verifier's soundness claims rest on these
// invariants, so they are not compiled out in release builds); XCV_DCHECK is
// debug-only and used on hot paths.
#pragma once

#include <sstream>
#include <stdexcept>
#include <string>

namespace xcv {

/// Thrown when an internal invariant is violated. Public API functions
/// document which argument errors raise this.
class InternalError : public std::logic_error {
 public:
  using std::logic_error::logic_error;
};

namespace detail {

[[noreturn]] inline void CheckFailed(const char* cond, const char* file,
                                     int line) {
  std::ostringstream os;
  os << file << ":" << line << ": check failed: " << cond;
  throw InternalError(os.str());
}

}  // namespace detail
}  // namespace xcv

#define XCV_CHECK(cond)                                              \
  do {                                                               \
    if (!(cond)) ::xcv::detail::CheckFailed(#cond, __FILE__, __LINE__); \
  } while (0)

// The message alone: it is what a usage error or an HTTP 400 body shows, so
// it carries no source path and no C++ expression.
#define XCV_CHECK_MSG(cond, msg)                                     \
  do {                                                               \
    if (!(cond)) {                                                   \
      std::ostringstream xcv_os_;                                    \
      xcv_os_ << msg;                                                \
      throw ::xcv::InternalError(xcv_os_.str());                     \
    }                                                                \
  } while (0)

#ifdef NDEBUG
#define XCV_DCHECK(cond) \
  do {                   \
  } while (0)
#else
#define XCV_DCHECK(cond) XCV_CHECK(cond)
#endif
