#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>

#include <gtest/gtest.h>

#include "interval/interval.h"
#include "interval/inverse.h"
#include "support/check.h"
#include "test_util.h"

namespace xcv {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

TEST(Interval, DefaultIsEmpty) {
  Interval iv;
  EXPECT_TRUE(iv.IsEmpty());
  EXPECT_FALSE(iv.Contains(0.0));
  EXPECT_EQ(iv.Width(), 0.0);
}

TEST(Interval, ConstructionNormalizesInvalid) {
  EXPECT_TRUE(Interval(2.0, 1.0).IsEmpty());
  EXPECT_TRUE(Interval(std::nan(""), 1.0).IsEmpty());
  EXPECT_TRUE(Interval(0.0, std::nan("")).IsEmpty());
  EXPECT_FALSE(Interval(1.0, 2.0).IsEmpty());
  EXPECT_TRUE(Interval(3.0).IsPoint());
}

TEST(Interval, EntireAndBounds) {
  Interval e = Interval::Entire();
  EXPECT_TRUE(e.IsEntire());
  EXPECT_FALSE(e.IsBounded());
  EXPECT_TRUE(e.Contains(1e308));
  EXPECT_TRUE(Interval(0.0, 1.0).IsBounded());
  EXPECT_FALSE(Interval(0.0, kInf).IsBounded());
}

TEST(Interval, MidpointStaysInside) {
  Interval iv(1.0, 3.0);
  EXPECT_EQ(iv.Midpoint(), 2.0);
  EXPECT_EQ(Interval::Entire().Midpoint(), 0.0);
  Interval right(2.0, kInf);
  EXPECT_TRUE(right.Contains(right.Midpoint()));
  Interval left(-kInf, -2.0);
  EXPECT_TRUE(left.Contains(left.Midpoint()));
}

TEST(Interval, MagIsLargestAbsoluteValue) {
  EXPECT_EQ(Interval(-3.0, 2.0).Mag(), 3.0);
  EXPECT_EQ(Interval(1.0, 5.0).Mag(), 5.0);
  EXPECT_EQ(Interval::Empty().Mag(), 0.0);
}

TEST(Interval, SetOperations) {
  Interval a(0.0, 2.0), b(1.0, 3.0), c(5.0, 6.0);
  EXPECT_EQ(a.Intersect(b), Interval(1.0, 2.0));
  EXPECT_TRUE(a.Intersect(c).IsEmpty());
  EXPECT_EQ(a.Hull(c), Interval(0.0, 6.0));
  EXPECT_EQ(a.Hull(Interval::Empty()), a);
  EXPECT_TRUE(Interval(1.0, 1.5).SubsetOf(a));
  EXPECT_FALSE(b.SubsetOf(a));
  EXPECT_TRUE(Interval::Empty().SubsetOf(a));
  EXPECT_TRUE(a.Intersects(b));
  EXPECT_FALSE(a.Intersects(c));
}

TEST(Interval, BisectCoversOriginal) {
  Interval iv(0.0, 8.0), l, r;
  iv.Bisect(&l, &r);
  EXPECT_EQ(l.hi(), r.lo());
  EXPECT_EQ(l.lo(), 0.0);
  EXPECT_EQ(r.hi(), 8.0);
  EXPECT_THROW(Interval(1.0).Bisect(&l, &r), InternalError);
}

TEST(IntervalArith, AdditionEnclosesTrueSum) {
  Interval r = Interval(1.0, 2.0) + Interval(10.0, 20.0);
  EXPECT_LE(r.lo(), 11.0);
  EXPECT_GE(r.hi(), 22.0);
  EXPECT_TRUE((Interval::Empty() + Interval(1.0)).IsEmpty());
}

TEST(IntervalArith, SubtractionAndNegation) {
  Interval r = Interval(1.0, 2.0) - Interval(0.5, 4.0);
  EXPECT_LE(r.lo(), -3.0);
  EXPECT_GE(r.hi(), 1.5);
  EXPECT_EQ(-Interval(1.0, 2.0), Interval(-2.0, -1.0));
}

TEST(IntervalArith, MultiplicationSignCases) {
  // pos x pos, pos x neg, straddle x straddle.
  EXPECT_TRUE(Interval(2.0, 6.0).SubsetOf(Interval(1.0, 2.0) *
                                          Interval(2.0, 3.0)));
  EXPECT_TRUE(Interval(-6.0, -2.0).SubsetOf(Interval(1.0, 2.0) *
                                            Interval(-3.0, -2.0)));
  Interval straddle = Interval(-1.0, 2.0) * Interval(-3.0, 4.0);
  EXPECT_TRUE(Interval(-6.0, 8.0).SubsetOf(straddle));
}

TEST(IntervalArith, MultiplicationZeroTimesInfinity) {
  // [0,0] * [0, inf) must be exactly {0}, not NaN-poisoned.
  Interval r = Interval(0.0) * Interval(0.0, kInf);
  EXPECT_TRUE(r.Contains(0.0));
  EXPECT_TRUE(r.IsBounded() || r.hi() == 0.0);
}

TEST(IntervalArith, DivisionRegularCase) {
  Interval r = Interval(1.0, 4.0) / Interval(2.0, 4.0);
  EXPECT_TRUE(Interval(0.25, 2.0).SubsetOf(r));
  EXPECT_LE(r.lo(), 0.25);
  EXPECT_GE(r.hi(), 2.0);
}

TEST(IntervalArith, DivisionByZeroStraddle) {
  EXPECT_TRUE((Interval(1.0, 2.0) / Interval(-1.0, 1.0)).IsEntire());
  EXPECT_TRUE((Interval(1.0, 2.0) / Interval(0.0)).IsEmpty());
}

TEST(IntervalArith, DivisionByEndpointZero) {
  // Divisor (0, 2]: positive numerator diverges to +inf.
  Interval r = Interval(1.0, 2.0) / Interval(0.0, 2.0);
  EXPECT_EQ(r.hi(), kInf);
  EXPECT_LE(r.lo(), 0.5);
  EXPECT_GT(r.lo(), 0.0);  // but stays positive
  // Divisor [-2, 0): mirrored.
  Interval m = Interval(1.0, 2.0) / Interval(-2.0, 0.0);
  EXPECT_EQ(m.lo(), -kInf);
  EXPECT_LT(m.hi(), 0.0);
}

TEST(IntervalFns, SqrBehaviour) {
  EXPECT_TRUE(Interval(1.0, 4.0).SubsetOf(Sqr(Interval(-2.0, -1.0))));
  Interval straddle = Sqr(Interval(-1.0, 2.0));
  EXPECT_EQ(straddle.lo(), 0.0);
  EXPECT_GE(straddle.hi(), 4.0);
}

TEST(IntervalFns, SqrtClipsDomain) {
  Interval r = Sqrt(Interval(-4.0, 9.0));
  EXPECT_LE(r.lo(), 0.0 + 1e-12);
  EXPECT_GE(r.hi(), 3.0);
  EXPECT_TRUE(Sqrt(Interval(-2.0, -1.0)).IsEmpty());
}

TEST(IntervalFns, LogClipsDomainAndDiverges) {
  Interval r = Log(Interval(0.0, 1.0));
  EXPECT_EQ(r.lo(), -kInf);
  EXPECT_GE(r.hi(), 0.0);
  EXPECT_TRUE(Log(Interval(-3.0, -1.0)).IsEmpty());
}

TEST(IntervalFns, ExpIsNonNegative) {
  Interval r = Exp(Interval(-1000.0, 0.0));
  EXPECT_GE(r.lo(), 0.0);
  EXPECT_GE(r.hi(), 1.0);
}

TEST(IntervalFns, AbsCases) {
  EXPECT_EQ(Abs(Interval(2.0, 3.0)), Interval(2.0, 3.0));
  EXPECT_EQ(Abs(Interval(-3.0, -2.0)), Interval(2.0, 3.0));
  Interval straddle = Abs(Interval(-2.0, 1.0));
  EXPECT_EQ(straddle.lo(), 0.0);
  EXPECT_EQ(straddle.hi(), 2.0);
}

TEST(IntervalFns, MinMax) {
  EXPECT_EQ(Min(Interval(0.0, 5.0), Interval(2.0, 3.0)), Interval(0.0, 3.0));
  EXPECT_EQ(Max(Interval(0.0, 5.0), Interval(2.0, 3.0)), Interval(2.0, 5.0));
}

TEST(IntervalFns, PowIntegerCases) {
  EXPECT_TRUE(Interval(1.0, 8.0).SubsetOf(PowInt(Interval(1.0, 2.0), 3)));
  // Odd power preserves sign.
  Interval odd = PowInt(Interval(-2.0, -1.0), 3);
  EXPECT_LE(odd.hi(), -1.0 + 1e-9);
  // Even power of straddling interval reaches 0.
  Interval even = PowInt(Interval(-2.0, 1.0), 2);
  EXPECT_EQ(even.lo(), 0.0);
  EXPECT_GE(even.hi(), 4.0);
  // Zero and negative exponents.
  EXPECT_EQ(PowInt(Interval(3.0, 4.0), 0), Interval(1.0));
  Interval inv = PowInt(Interval(2.0, 4.0), -1);
  EXPECT_TRUE(Interval(0.25, 0.5).SubsetOf(inv));
}

TEST(IntervalFns, PowRealExponent) {
  Interval r = Pow(Interval(4.0, 9.0), 0.5);
  EXPECT_TRUE(Interval(2.0, 3.0).SubsetOf(r));
  // Negative base clipped for fractional exponents.
  EXPECT_TRUE(Pow(Interval(-2.0, -1.0), 0.5).IsEmpty());
  // Negative exponent is decreasing: check ordering.
  Interval d = Pow(Interval(2.0, 4.0), -0.5);
  EXPECT_LE(d.lo(), 0.5);
  EXPECT_GE(d.hi(), 1.0 / std::sqrt(2.0));
  // x^0 over x >= 0 is 1 (with the 0^0=1 convention used by pow).
  EXPECT_TRUE(Pow(Interval(1.0, 2.0), 0.0).Contains(1.0));
}

TEST(IntervalFns, PowIntervalExponent) {
  Interval r = Pow(Interval(2.0, 3.0), Interval(1.0, 2.0));
  EXPECT_LE(r.lo(), 2.0);
  EXPECT_GE(r.hi(), 9.0);
  // Base touching 0 with positive exponent includes 0.
  Interval z = Pow(Interval(0.0, 2.0), Interval(0.5, 1.0));
  EXPECT_TRUE(z.Contains(0.0));
}

TEST(IntervalFns, SinCosRanges) {
  Interval full = Sin(Interval(0.0, 10.0));
  EXPECT_LE(full.lo(), -1.0 + 1e-9);
  EXPECT_GE(full.hi(), 1.0 - 1e-9);
  Interval narrow = Sin(Interval(0.1, 0.2));
  EXPECT_GT(narrow.lo(), 0.0);
  EXPECT_LT(narrow.hi(), 0.25);
  Interval c = Cos(Interval(0.0, 0.1));
  EXPECT_GT(c.lo(), 0.9);
  EXPECT_TRUE(c.Contains(1.0));
  EXPECT_EQ(Sin(Interval::Entire()).lo(), -1.0);
}

TEST(IntervalFns, AtanTanhBounded) {
  Interval a = Atan(Interval::Entire());
  EXPECT_GE(a.lo(), -1.5709);
  EXPECT_LE(a.hi(), 1.5709);
  Interval t = Tanh(Interval::Entire());
  EXPECT_GE(t.lo(), -1.0);
  EXPECT_LE(t.hi(), 1.0);
}

TEST(IntervalRelations, CertainAndPossible) {
  Interval a(0.0, 1.0), b(2.0, 3.0), c(0.5, 2.5);
  EXPECT_TRUE(CertainlyLt(a, b));
  EXPECT_TRUE(CertainlyLe(a, b));
  EXPECT_FALSE(CertainlyLe(c, a));
  EXPECT_TRUE(PossiblyLe(c, a));
  EXPECT_TRUE(PossiblyLt(a, c));
  EXPECT_FALSE(PossiblyLe(b, a));
}

TEST(IntervalRounding, WidenMovesOutward) {
  Interval iv(1.0, 2.0);
  Interval w = Widen(iv);
  EXPECT_LT(w.lo(), 1.0);
  EXPECT_GT(w.hi(), 2.0);
  Interval w4 = WidenUlps(iv, 4);
  EXPECT_LT(w4.lo(), w.lo());
  EXPECT_GT(w4.hi(), w.hi());
  EXPECT_EQ(NextUp(kInf), kInf);
  EXPECT_EQ(NextDown(-kInf), -kInf);
}

// Property sweep: for every sampled op, f(x) for x in X must lie in F(X).
TEST(IntervalProperty, UnaryEnclosureSoundness) {
  xcv::testing::Rng rng(20240612);
  for (int trial = 0; trial < 2000; ++trial) {
    Interval x = rng.RandomInterval(-5.0, 5.0);
    const double p = rng.PointIn(x);
    struct Case {
      Interval iv;
      double val;
    };
    const Case cases[] = {
        {Sqr(x), p * p},
        {Cbrt(x), std::cbrt(p)},
        {Exp(x), std::exp(p)},
        {Abs(x), std::fabs(p)},
        {Atan(x), std::atan(p)},
        {Tanh(x), std::tanh(p)},
        {Sin(x), std::sin(p)},
        {Cos(x), std::cos(p)},
        {PowInt(x, 3), p * p * p},
        {PowInt(x, 2), p * p},
    };
    for (const auto& c : cases)
      ASSERT_TRUE(c.iv.Contains(c.val))
          << "value " << c.val << " escaped " << c.iv.ToString()
          << " for x=" << p << " in " << x.ToString();
    if (p > 0.0) {
      ASSERT_TRUE(Sqrt(x).Contains(std::sqrt(p)));
      ASSERT_TRUE(Log(x).Contains(std::log(p)));
      ASSERT_TRUE(Pow(x, 1.7).Contains(std::pow(p, 1.7)));
    }
  }
}

TEST(IntervalProperty, BinaryEnclosureSoundness) {
  xcv::testing::Rng rng(987654);
  for (int trial = 0; trial < 2000; ++trial) {
    Interval x = rng.RandomInterval(-5.0, 5.0);
    Interval y = rng.RandomInterval(-5.0, 5.0);
    const double a = rng.PointIn(x), b = rng.PointIn(y);
    ASSERT_TRUE((x + y).Contains(a + b));
    ASSERT_TRUE((x - y).Contains(a - b));
    ASSERT_TRUE((x * y).Contains(a * b));
    ASSERT_TRUE(Min(x, y).Contains(std::fmin(a, b)));
    ASSERT_TRUE(Max(x, y).Contains(std::fmax(a, b)));
    if (b != 0.0) {
      Interval q = x / y;
      ASSERT_TRUE(q.Contains(a / b))
          << a << "/" << b << " escaped " << q.ToString() << " x="
          << x.ToString() << " y=" << y.ToString();
    }
  }
}

// ---- Power preimage (the kPow/kPowN backward projection) -------------------

std::uint64_t Bits(double v) { return std::bit_cast<std::uint64_t>(v); }

std::string Exact(const Interval& iv) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "[%.17g, %.17g]", iv.lo(), iv.hi());
  return buf;
}

constexpr double kExponents[] = {3, 5, -3, 2, 4, -2, 0.5, 4.0 / 3.0,
                                 -11.0 / 3.0};

// Projecting the forward image Pow(X, p) back onto X leaves X's bits
// unchanged, for point and wide X with endpoints from 1e-300 to 1e300 (and
// their negatives, and X across zero, where p is an integer).
TEST(PowPreimage, ForwardImageProjectsBackOntoItself) {
  xcv::testing::Rng rng(22);
  const auto magnitude = [&] {
    return std::pow(10.0, rng.Uniform(-300.0, 300.0));
  };
  for (const double p : kExponents) {
    const bool integral = p == std::floor(p);
    for (int trial = 0; trial < 3000; ++trial) {
      double a = magnitude();
      double b = trial % 4 == 0 ? a : magnitude();
      if (a > b) std::swap(a, b);
      Interval x(a, b);
      if (integral && trial % 3 == 1) x = -x;
      if (integral && trial % 3 == 2) x = Interval(-a, b);
      const Interval back = x.Intersect(PowPreimage(Pow(x, p), x, p));
      ASSERT_EQ(Bits(back.lo()), Bits(x.lo())) << "p=" << p << " x="
                                               << Exact(x);
      ASSERT_EQ(Bits(back.hi()), Bits(x.hi())) << "p=" << p << " x="
                                               << Exact(x);
    }
  }
}

// The two cuts the rounded exponent 1/p made: LYP's x^3 lost the domain
// edge rs = 1e-4, and x^(-11/3) lost 8 ulps at the top of x.
TEST(PowPreimage, KeepsTheEdgesThatRoundedExponentsCut) {
  const Interval lyp(1e-4, 0.31259375);
  const Interval cube = Pow(lyp, 3.0);
  EXPECT_EQ(cube.lo(), 9.9999999999999978e-13);
  EXPECT_EQ(lyp.Intersect(PowPreimage(cube, lyp, 3.0)), lyp);

  const Interval top(1e-3, 0.0035606169542035425);
  const double p = -11.0 / 3.0;
  EXPECT_EQ(p, -3.6666666666666665);
  EXPECT_EQ(top.Intersect(PowPreimage(Pow(top, p), top, p)), top);
}

// Every x whose power, taken in long double, lies in z is kept: sampled at
// z's preimage edges, a few ulps either side, where rounding decides.
TEST(PowPreimage, KeepsEveryRealSolutionAtTheEdges) {
  xcv::testing::Rng rng(7);
  for (const double p : kExponents) {
    const bool integral = p == std::floor(p);
    const bool odd = integral && std::fmod(p, 2.0) != 0.0;
    const auto real_pow = [&](double x) {
      const long double m = std::pow(std::fabs(static_cast<long double>(x)),
                                     static_cast<long double>(p));
      return x < 0.0 && odd ? -m : m;
    };
    for (int trial = 0; trial < 2000; ++trial) {
      double a = std::pow(10.0, rng.Uniform(-250.0, 250.0));
      double b = std::pow(10.0, rng.Uniform(-250.0, 250.0));
      if (a > b) std::swap(a, b);
      // Odd powers take z of either sign (negative p: one sign per z).
      const bool negative = odd && trial % 2 == 1;
      const Interval z = negative ? Interval(-b, -a) : Interval(a, b);
      for (const double v : {z.lo(), z.hi()}) {
        const long double root = std::pow(std::fabs(static_cast<long double>(v)),
                                          1.0L / p);
        double x = static_cast<double>(negative ? -root : root);
        for (int k = 0; k < 4; ++k) x = NextDown(x);
        for (int k = 0; k < 9; ++k, x = NextUp(x)) {
          const long double image = real_pow(x);
          if (!(z.lo() <= image && image <= z.hi())) continue;
          EXPECT_TRUE(PowPreimage(z, Interval(x), p).Contains(x))
              << "p=" << p << " z=" << Exact(z) << " x=" << x;
        }
      }
    }
  }
}

}  // namespace
}  // namespace xcv
