#ifndef TGM_BASE_INVARIANTS_H_
#define TGM_BASE_INVARIANTS_H_

#include <cstdio>
#include <cstdlib>
#include <string>

/// \file invariants.h
/// Structural invariant validation hooks.
///
/// Validators (`PartialTable::CheckInvariants`,
/// `StreamEngine::CheckInvariants`) are ordinary methods that return an
/// empty string when every invariant holds and a description of the first
/// violated invariant otherwise. They compile in every build so tests can
/// call them directly (tests/check_invariants_test.cc corrupts state
/// through test peers and pins the exact message).
///
/// The `TGMINER_CHECK_INVARIANTS` CMake option additionally wires them
/// into the hot paths: with the option ON, TGM_VALIDATE_INVARIANTS runs
/// the named validator at every stream-engine batch boundary and aborts
/// with the violation text on failure. Debug CI turns the option on; the
/// default build pays nothing.

namespace tgm {

/// True in builds configured with -DTGMINER_CHECK_INVARIANTS=ON.
#if defined(TGMINER_CHECK_INVARIANTS)
inline constexpr bool kInvariantChecksEnabled = true;
#else
inline constexpr bool kInvariantChecksEnabled = false;
#endif

namespace internal {

[[noreturn]] inline void InvariantFailed(const char* where,
                                         const std::string& what) {
  std::fprintf(stderr, "Invariant violation in %s: %s\n", where,
               what.c_str());
  std::abort();
}

}  // namespace internal
}  // namespace tgm

/// Evaluates `check_expr` (an expression yielding std::string) and aborts
/// with the message when it is non-empty. Compiled out unless the build
/// enables TGMINER_CHECK_INVARIANTS.
#if defined(TGMINER_CHECK_INVARIANTS)
#define TGM_VALIDATE_INVARIANTS(where, check_expr)              \
  do {                                                          \
    const std::string tgm_iv_msg_ = (check_expr);               \
    if (!tgm_iv_msg_.empty()) {                                 \
      ::tgm::internal::InvariantFailed((where), tgm_iv_msg_);   \
    }                                                           \
  } while (0)
#else
#define TGM_VALIDATE_INVARIANTS(where, check_expr) \
  do {                                             \
  } while (0)
#endif

#endif  // TGM_BASE_INVARIANTS_H_
