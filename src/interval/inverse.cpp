#include "interval/inverse.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numbers>

namespace xcv {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// A point's forward enclosure Pow(Interval(x), p) reaches past x^p by libm's
// error plus the 2-ulp widening, and for negative integer p by the
// reciprocal's rounding and widening on top: under 8 ulps of x^p in all.
constexpr std::int64_t kForwardUlps = 8;

// v moved `k` ulps (down for k < 0) through the ulp-ordered integers, where
// ±0 are both 0; the result saturates at ±inf.
double StepUlps(double v, std::int64_t k) {
  constexpr std::int64_t kInfOrdinal = 0x7ff0000000000000;
  const auto bits = std::bit_cast<std::int64_t>(v);
  const std::int64_t ordinal =
      bits < 0 ? -(bits & std::numeric_limits<std::int64_t>::max()) : bits;
  const std::int64_t o = std::clamp(ordinal + k, -kInfOrdinal, kInfOrdinal);
  return o < 0 ? -std::bit_cast<double>(-o) : std::bit_cast<double>(o);
}

// v^(1/p) for v >= 0, stepped `dir` (-1 down, +1 up) past every rounding:
// 1/p rounds by up to 2^-53 relative, which moves v^(1/p) by under
// |ln v|/|p| ulps, and pow errs by under one more. Zero and infinite v have
// exact roots.
double Root(double v, double p, int dir) {
  const double r = std::pow(v, 1.0 / p);
  if (v == 0.0 || std::isinf(v)) return r;
  const double ln_v = (std::abs(std::ilogb(v)) + 1) * std::numbers::ln2;
  const auto ulps = static_cast<std::int64_t>(ln_v / std::fabs(p)) + 3;
  return StepUlps(r, dir * ulps);
}

// The real (odd) root of v of either sign, stepped `dir`.
double SignedRoot(double v, double p, int dir) {
  return v < 0.0 ? -Root(-v, p, -dir) : Root(v, p, dir);
}

// z widened by the forward enclosure's reach.
Interval Reach(const Interval& z) {
  return Interval(StepUlps(z.lo(), -kForwardUlps),
                  StepUlps(z.hi(), kForwardUlps));
}

// The x > 0 branch for z >= 0: increasing for p > 0, decreasing for p < 0.
// A reach edge at or below zero bounds nothing on this branch.
Interval PositiveRoots(const Interval& z, double p) {
  const Interval w = Reach(z);
  if (p > 0.0)
    return Interval(w.lo() <= 0.0 ? -kInf : Root(w.lo(), p, -1),
                    Root(w.hi(), p, +1));
  return Interval(Root(w.hi(), p, -1),
                  w.lo() <= 0.0 ? kInf : Root(w.lo(), p, +1));
}

}  // namespace

Interval PowPreimage(const Interval& z, const Interval& x, double p) {
  if (z.IsEmpty()) return z;
  const bool integral = p == std::floor(p) && std::fabs(p) < 1e15;
  if (integral && std::fmod(p, 2.0) != 0.0) {
    if (p > 0.0) {
      const Interval w = Reach(z);
      return Interval(SignedRoot(w.lo(), p, -1), SignedRoot(w.hi(), p, +1));
    }
    if (z.ContainsZero()) return Interval::Entire();
    return z.hi() < 0.0 ? -PositiveRoots(-z, p) : PositiveRoots(z, p);
  }
  if (integral && p > 0.0) {
    if (z.hi() < 0.0) return Interval::Empty();
    const double r = Root(StepUlps(z.hi(), kForwardUlps), p, +1);
    return Interval(-r, r);
  }
  if (!(x.lo() >= 0.0) || (integral && z.ContainsZero()))
    return Interval::Entire();
  const Interval zz = z.Intersect(Interval::NonNegative());
  if (zz.IsEmpty()) return zz;
  return PositiveRoots(zz, p);
}

Interval TanRestricted(const Interval& z) {
  if (z.IsEmpty()) return z;
  if (z.lo() <= -kHalfPi || z.hi() >= kHalfPi) return Interval::Entire();
  return WidenUlps(Interval(std::tan(z.lo()), std::tan(z.hi())), 2);
}

Interval AtanhRestricted(const Interval& z) {
  if (z.IsEmpty()) return z;
  if (z.lo() <= -1.0 || z.hi() >= 1.0) return Interval::Entire();
  return WidenUlps(Interval(std::atanh(z.lo()), std::atanh(z.hi())), 2);
}

}  // namespace xcv
