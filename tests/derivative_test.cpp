#include <cmath>

#include <gtest/gtest.h>

#include "expr/expr.h"
#include "support/check.h"
#include "test_util.h"
#include "tests/scalar_reference.h"

namespace xcv::expr {
namespace {

using oracle::EvalDouble;

using xcv::testing::FiniteDifference;
using xcv::testing::RandomExprGen;
using xcv::testing::Rng;

Expr X() { return Expr::Variable("x", 0); }
Expr Y() { return Expr::Variable("y", 1); }
Expr C(double v) { return Expr::Constant(v); }

double EvalAt(const Expr& e, double x, double y = 0.0) {
  const double env[2] = {x, y};
  return EvalDouble(e, std::span<const double>(env, 2));
}

void ExpectDerivativeMatchesFd(const Expr& e, double x, double y = 0.0,
                               double tol = 1e-5) {
  const Expr d = Differentiate(e, X());
  const double sym = EvalAt(d, x, y);
  const double fd = FiniteDifference(e, {x, y}, 0);
  EXPECT_NEAR(sym, fd, tol * std::max(1.0, std::fabs(fd)))
      << "d/dx " << e.ToString() << " at x=" << x << " y=" << y;
}

TEST(Derivative, BaseCases) {
  EXPECT_EQ(Differentiate(C(5), X()).ConstantValue(), 0.0);
  EXPECT_EQ(Differentiate(X(), X()).ConstantValue(), 1.0);
  EXPECT_EQ(Differentiate(Y(), X()).ConstantValue(), 0.0);
}

TEST(Derivative, RejectsNonVariable) {
  EXPECT_THROW(Differentiate(X(), C(1)), InternalError);
}

TEST(Derivative, PolynomialRules) {
  // d/dx (3x² + 2x + 7) = 6x + 2.
  Expr e = C(3) * X() * X() + C(2) * X() + C(7);
  EXPECT_DOUBLE_EQ(EvalAt(Differentiate(e, X()), 2.0), 14.0);
  ExpectDerivativeMatchesFd(e, 1.3);
}

TEST(Derivative, QuotientRule) {
  Expr e = X() / (X() * X() + C(1));
  ExpectDerivativeMatchesFd(e, 0.7);
  ExpectDerivativeMatchesFd(e, -2.1);
}

TEST(Derivative, PowerRuleConstantExponent) {
  Expr e = Pow(X(), 3.5);
  ExpectDerivativeMatchesFd(e, 2.0);
  Expr n = Pow(X(), -2.0);
  ExpectDerivativeMatchesFd(n, 1.5);
}

TEST(Derivative, PowerRuleSymbolicExponent) {
  // d/dx x^y with y fixed: handled by the general rule through log.
  Expr e = Pow(X(), Y());
  const Expr d = Differentiate(e, X());
  // At x=2, y=3: d = 3 * 2^2 = 12.
  EXPECT_NEAR(EvalAt(d, 2.0, 3.0), 12.0, 1e-9);
  // Exponent derivative: d/dy x^y = x^y ln x.
  const Expr dy = Differentiate(e, Y());
  EXPECT_NEAR(EvalAt(dy, 2.0, 3.0), 8.0 * std::log(2.0), 1e-9);
}

TEST(Derivative, ElementaryFunctions) {
  ExpectDerivativeMatchesFd(ExpE(X()), 0.8);
  ExpectDerivativeMatchesFd(LogE(X()), 2.5);
  ExpectDerivativeMatchesFd(SqrtE(X()), 1.7);
  ExpectDerivativeMatchesFd(CbrtE(X()), 2.2);
  ExpectDerivativeMatchesFd(SinE(X()), 1.1);
  ExpectDerivativeMatchesFd(CosE(X()), 0.4);
  ExpectDerivativeMatchesFd(AtanE(X()), -0.9);
  ExpectDerivativeMatchesFd(TanhE(X()), 0.3);
}

TEST(Derivative, CbrtNegativeArgument) {
  // cbrt is defined on negatives; its derivative formula must hold there.
  ExpectDerivativeMatchesFd(CbrtE(X()), -1.8);
}

TEST(Derivative, AbsAwayFromKink) {
  ExpectDerivativeMatchesFd(AbsE(X()), 1.5);
  ExpectDerivativeMatchesFd(AbsE(X()), -1.5);
}

TEST(Derivative, LambertW) {
  // W'(x) = e^{-W}/(1+W); regular at 0 where W'(0) = 1.
  Expr e = LambertW0E(X());
  ExpectDerivativeMatchesFd(e, 0.5);
  ExpectDerivativeMatchesFd(e, 3.0);
  const Expr d = Differentiate(e, X());
  EXPECT_NEAR(EvalAt(d, 0.0), 1.0, 1e-9);
}

TEST(Derivative, MinMaxBranches) {
  Expr e = Min(X() * X(), X() + C(2));
  // x=0: x² < x+2, so d = 2x = 0.
  EXPECT_DOUBLE_EQ(EvalAt(Differentiate(e, X()), 0.0), 0.0);
  // x=3: x+2 < x², so d = 1.
  EXPECT_DOUBLE_EQ(EvalAt(Differentiate(e, X()), 3.0), 1.0);
  Expr m = Max(X() * X(), X() + C(2));
  EXPECT_DOUBLE_EQ(EvalAt(Differentiate(m, X()), 3.0), 6.0);
}

TEST(Derivative, IteBranchwise) {
  Expr e = Ite(X(), Rel::kLt, C(0), -X(), X() * X());
  EXPECT_DOUBLE_EQ(EvalAt(Differentiate(e, X()), -2.0), -1.0);
  EXPECT_DOUBLE_EQ(EvalAt(Differentiate(e, X()), 2.0), 4.0);
}

TEST(Derivative, ChainRuleComposition) {
  Expr e = ExpE(SinE(LogE(X() * X() + C(1))));
  ExpectDerivativeMatchesFd(e, 1.2);
  ExpectDerivativeMatchesFd(e, -0.7);
}

TEST(Derivative, SecondDerivative) {
  // d²/dx² sin(x) = -sin(x).
  Expr d2 = Differentiate(Differentiate(SinE(X()), X()), X());
  for (double x : {0.3, 1.0, 2.2})
    EXPECT_NEAR(EvalAt(d2, x), -std::sin(x), 1e-9);
}

TEST(Derivative, SharedSubexpressionsStaySane) {
  // f = g² + g with g = exp(x): f' = (2g + 1) g.
  Expr g = ExpE(X());
  Expr f = g * g + g;
  const Expr d = Differentiate(f, X());
  const double x = 0.6, gv = std::exp(x);
  EXPECT_NEAR(EvalAt(d, x), (2.0 * gv + 1.0) * gv, 1e-9);
}

TEST(DerivativeProperty, RandomExpressionsMatchFiniteDifferences) {
  Rng rng(777);
  RandomExprGen gen(rng, {X(), Y()});
  int checked = 0;
  for (int trial = 0; trial < 300; ++trial) {
    const Expr e = gen.Gen(4);
    const Expr d = Differentiate(e, X());
    for (int pt = 0; pt < 3; ++pt) {
      const double x = rng.Uniform(0.3, 2.5);
      const double y = rng.Uniform(0.3, 2.5);
      const double sym = EvalAt(d, x, y);
      const double fd = FiniteDifference(e, {x, y}, 0, 1e-6);
      if (!std::isfinite(sym) || !std::isfinite(fd)) continue;
      // Skip points near branch switches (min/max/ite kinks) where FD and
      // the branchwise derivative legitimately disagree.
      const double fd2 = FiniteDifference(e, {x, y}, 0, 2e-6);
      if (std::fabs(fd - fd2) > 1e-3 * (1.0 + std::fabs(fd))) continue;
      ASSERT_NEAR(sym, fd, 2e-4 * std::max(1.0, std::fabs(fd)))
          << "expr: " << e.ToString() << " at (" << x << "," << y << ")";
      ++checked;
    }
  }
  EXPECT_GT(checked, 300);  // the sweep must actually exercise points
}

}  // namespace
}  // namespace xcv::expr
