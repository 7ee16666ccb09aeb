#include <cmath>

#include <gtest/gtest.h>

#include "expr/compile.h"
#include "expr/expr.h"
#include "support/check.h"
#include "test_util.h"
#include "tests/scalar_reference.h"

namespace xcv::expr {
namespace {

using oracle::EvalDouble;

using xcv::testing::RandomExprGen;
using xcv::testing::Rng;

Expr X() { return Expr::Variable("x", 0); }
Expr Y() { return Expr::Variable("y", 1); }
Expr C(double v) { return Expr::Constant(v); }

// Interval enclosure of `e` over `box` from the production evaluator: the
// compiled tape through the batched kernels at width 1.
Interval Enclose(const Expr& e, std::span<const Interval> box) {
  TapeIntervalBatchScratch scratch;
  return EvalTapeInterval(Compile(e), box, scratch);
}

TEST(EvalDouble, BasicArithmetic) {
  const double env[2] = {3.0, 4.0};
  std::span<const double> s(env, 2);
  EXPECT_DOUBLE_EQ(EvalDouble(X() + Y(), s), 7.0);
  EXPECT_DOUBLE_EQ(EvalDouble(X() * Y(), s), 12.0);
  EXPECT_DOUBLE_EQ(EvalDouble(X() / Y(), s), 0.75);
  EXPECT_DOUBLE_EQ(EvalDouble(X() - Y(), s), -1.0);
  EXPECT_DOUBLE_EQ(EvalDouble(Pow(X(), 2.0), s), 9.0);
  EXPECT_DOUBLE_EQ(EvalDouble(-X(), s), -3.0);
}

TEST(EvalDouble, ElementaryFunctions) {
  const double env[1] = {0.5};
  std::span<const double> s(env, 1);
  EXPECT_DOUBLE_EQ(EvalDouble(ExpE(X()), s), std::exp(0.5));
  EXPECT_DOUBLE_EQ(EvalDouble(LogE(X()), s), std::log(0.5));
  EXPECT_DOUBLE_EQ(EvalDouble(SqrtE(X()), s), std::sqrt(0.5));
  EXPECT_DOUBLE_EQ(EvalDouble(CbrtE(X()), s), std::cbrt(0.5));
  EXPECT_DOUBLE_EQ(EvalDouble(SinE(X()), s), std::sin(0.5));
  EXPECT_DOUBLE_EQ(EvalDouble(CosE(X()), s), std::cos(0.5));
  EXPECT_DOUBLE_EQ(EvalDouble(AtanE(X()), s), std::atan(0.5));
  EXPECT_DOUBLE_EQ(EvalDouble(TanhE(X()), s), std::tanh(0.5));
  EXPECT_DOUBLE_EQ(EvalDouble(AbsE(-X()), s), 0.5);
}

TEST(EvalDouble, MinMaxIte) {
  const double env[2] = {1.0, 2.0};
  std::span<const double> s(env, 2);
  EXPECT_DOUBLE_EQ(EvalDouble(Min(X(), Y()), s), 1.0);
  EXPECT_DOUBLE_EQ(EvalDouble(Max(X(), Y()), s), 2.0);
  Expr ite = Ite(X(), Rel::kLe, Y(), C(10), C(20));
  EXPECT_DOUBLE_EQ(EvalDouble(ite, s), 10.0);
  Expr ite2 = Ite(Y(), Rel::kLt, X(), C(10), C(20));
  EXPECT_DOUBLE_EQ(EvalDouble(ite2, s), 20.0);
}

TEST(EvalDouble, IteBoundaryUsesRelation) {
  const double env[2] = {2.0, 2.0};
  std::span<const double> s(env, 2);
  EXPECT_DOUBLE_EQ(EvalDouble(Ite(X(), Rel::kLe, Y(), C(1), C(0)), s), 1.0);
  EXPECT_DOUBLE_EQ(EvalDouble(Ite(X(), Rel::kLt, Y(), C(1), C(0)), s), 0.0);
}

TEST(EvalDouble, OutOfRangeVariableThrows) {
  const double env[1] = {1.0};
  EXPECT_THROW(EvalDouble(Y(), std::span<const double>(env, 1)),
               xcv::InternalError);
}

TEST(EvalDouble, NanPropagates) {
  const double env[1] = {-1.0};
  EXPECT_TRUE(std::isnan(EvalDouble(SqrtE(X()),
                                    std::span<const double>(env, 1))));
}

TEST(EvalTapeInterval, ConstantsAndVariables) {
  std::vector<Interval> box{Interval(1.0, 2.0)};
  EXPECT_EQ(Enclose(C(5), box), Interval(5.0));
  EXPECT_EQ(Enclose(X(), box), Interval(1.0, 2.0));
}

TEST(EvalTapeInterval, IteHullsUncertainBranches) {
  // ite(x <= 1, 10, 20) over x in [0, 2]: both branches possible.
  std::vector<Interval> box{Interval(0.0, 2.0)};
  Expr e = Ite(X(), Rel::kLe, C(1), C(10), C(20));
  Interval r = Enclose(e, box);
  EXPECT_TRUE(r.Contains(10.0));
  EXPECT_TRUE(r.Contains(20.0));
  // Over x in [2, 3] only the else branch applies.
  std::vector<Interval> right{Interval(2.0, 3.0)};
  EXPECT_EQ(Enclose(e, right), Interval(20.0));
  // Over x in [0, 0.5] only the then branch applies.
  std::vector<Interval> left{Interval(0.0, 0.5)};
  EXPECT_EQ(Enclose(e, left), Interval(10.0));
}

TEST(EvalTapeInterval, SharedSubexpressionEvaluatedConsistently) {
  // (x - x) evaluates to an interval containing 0 (interval arithmetic
  // cannot collapse it, but must contain the true value 0).
  std::vector<Interval> box{Interval(1.0, 2.0)};
  Expr e = X() - X();
  EXPECT_TRUE(Enclose(e, box).Contains(0.0));
}

TEST(EvalTapeInterval, EmptyBoxPropagates) {
  std::vector<Interval> box{Interval::Empty()};
  EXPECT_TRUE(Enclose(X() + C(1), box).IsEmpty());
}

TEST(EvalTapeIntervalProperty, EnclosesPointEvaluationOnRandomExprs) {
  Rng rng(4242);
  RandomExprGen gen(rng, {X(), Y()});
  int checked = 0;
  for (int trial = 0; trial < 250; ++trial) {
    const Expr e = gen.Gen(4);
    std::vector<Interval> box{rng.RandomInterval(0.2, 3.0),
                              rng.RandomInterval(0.2, 3.0)};
    const Interval enclosure = Enclose(e, box);
    for (int pt = 0; pt < 5; ++pt) {
      const double env[2] = {rng.PointIn(box[0]), rng.PointIn(box[1])};
      const double v = EvalDouble(e, std::span<const double>(env, 2));
      if (!std::isfinite(v)) continue;
      ASSERT_TRUE(enclosure.Contains(v))
          << "value " << v << " at (" << env[0] << "," << env[1]
          << ") escaped " << enclosure.ToString() << " for "
          << e.ToString();
      ++checked;
    }
  }
  EXPECT_GT(checked, 500);
}

}  // namespace
}  // namespace xcv::expr
