// Inverse-projection helpers for HC4 backward contraction.
//
// These are the restricted inverse images the backward sweep pushes through
// non-ring operations (roots for constant powers, tan for atan, atanh for
// tanh). They live out of line in one TU compiled with the project default
// flags, so the batched backward kernel (src/expr/interval_backward_batch.cpp)
// — which is built with per-source optimization flags — and the scalar
// reference sweep it is audited against (tests/scalar_reference.h) get the
// same bits from one copy.
#pragma once

#include "interval/interval.h"

namespace xcv {

inline constexpr double kHalfPi = 1.57079632679489661923;

/// The backward projection of z = x^p for a constant exponent p (kPow with
/// a constant exponent and kPowN): an enclosure of every x on the branch
/// `x` selects whose forward point enclosure Pow(Interval(x), p) meets z.
/// So it keeps every real solution of x^p ∈ z, and projecting Pow(X, p)
/// back onto X leaves X's bits unchanged. Each finite root endpoint is
/// pow(v, 1/p) stepped outward by a closed-form bound on the error of the
/// rounded exponent 1/p (|ln v|/|p| ulps) plus libm's. Branches:
///   odd p > 0:        increasing over the reals;
///   odd p < 0:        the half-line of z's sign; Entire if z contains 0;
///   even p > 0:       [-r, r] with r the root of z.hi; Empty if z < 0;
///   even p < 0, and non-integer p: the x >= 0 branch, only when x.lo() >= 0
///                     (Entire otherwise, and for even p when z contains 0);
///                     Empty if z < 0.
/// Entire means no contraction; Empty means no x maps into z.
Interval PowPreimage(const Interval& z, const Interval& x, double p);

/// tan over an interval strictly inside (-pi/2, pi/2); entire otherwise
/// (no contraction).
Interval TanRestricted(const Interval& z);

/// atanh over an interval inside (-1, 1); entire otherwise (no contraction).
Interval AtanhRestricted(const Interval& z);

}  // namespace xcv
