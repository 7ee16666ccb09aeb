// Inverse-projection helpers for HC4 backward contraction.
//
// These are the restricted inverse images the backward sweep pushes through
// non-ring operations (odd roots for integer powers, tan for atan, atanh for
// tanh). They live out of line in one TU compiled with the project default
// flags, so the batched backward kernel (src/expr/interval_backward_batch.cpp)
// — which is built with per-source optimization flags — and the scalar
// reference sweep it is audited against (tests/scalar_reference.h) get the
// same bits from one copy.
#pragma once

#include "interval/interval.h"

namespace xcv {

inline constexpr double kHalfPi = 1.57079632679489661923;

/// Signed p-th root for odd integer p: monotone increasing over all reals.
Interval OddRoot(const Interval& z, long long p);

/// tan over an interval strictly inside (-pi/2, pi/2); entire otherwise
/// (no contraction).
Interval TanRestricted(const Interval& z);

/// atanh over an interval inside (-1, 1); entire otherwise (no contraction).
Interval AtanhRestricted(const Interval& z);

}  // namespace xcv
