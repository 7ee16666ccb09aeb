#include <gtest/gtest.h>

#include "expr/bool_expr.h"
#include "expr/expr.h"

namespace xcv::expr {
namespace {

Expr X() { return Expr::Variable("x", 0); }
Expr Y() { return Expr::Variable("y", 1); }
Expr C(double v) { return Expr::Constant(v); }

bool EvalAt(const BoolExpr& b, double x, double y = 0.0) {
  const double env[2] = {x, y};
  return EvalBool(b, std::span<const double>(env, 2));
}

TEST(BoolExpr, TrueFalseLiterals) {
  EXPECT_TRUE(EvalAt(BoolExpr::True(), 0));
  EXPECT_FALSE(EvalAt(BoolExpr::False(), 0));
}

TEST(BoolExpr, ComparisonFactories) {
  // x <= 1.
  BoolExpr le = BoolExpr::Le(X(), C(1));
  EXPECT_TRUE(EvalAt(le, 0.5));
  EXPECT_TRUE(EvalAt(le, 1.0));
  EXPECT_FALSE(EvalAt(le, 1.5));
  BoolExpr lt = BoolExpr::Lt(X(), C(1));
  EXPECT_FALSE(EvalAt(lt, 1.0));
  BoolExpr ge = BoolExpr::Ge(X(), C(1));
  EXPECT_TRUE(EvalAt(ge, 1.0));
  EXPECT_FALSE(EvalAt(ge, 0.5));
  BoolExpr gt = BoolExpr::Gt(X(), C(1));
  EXPECT_FALSE(EvalAt(gt, 1.0));
  EXPECT_TRUE(EvalAt(gt, 2.0));
}

TEST(BoolExpr, ConstantAtomsFold) {
  EXPECT_EQ(BoolExpr::Le(C(1), C(2)).kind(), BoolExpr::Kind::kTrue);
  EXPECT_EQ(BoolExpr::Lt(C(2), C(1)).kind(), BoolExpr::Kind::kFalse);
  EXPECT_EQ(BoolExpr::Le(C(2), C(2)).kind(), BoolExpr::Kind::kTrue);
  EXPECT_EQ(BoolExpr::Lt(C(2), C(2)).kind(), BoolExpr::Kind::kFalse);
}

TEST(BoolExpr, AndOrShortcuts) {
  BoolExpr a = BoolExpr::Le(X(), C(1));
  EXPECT_EQ(BoolExpr::And({a, BoolExpr::False()}).kind(),
            BoolExpr::Kind::kFalse);
  EXPECT_EQ(BoolExpr::And({BoolExpr::True(), a}), a);
  EXPECT_EQ(BoolExpr::Or({a, BoolExpr::True()}).kind(),
            BoolExpr::Kind::kTrue);
  EXPECT_EQ(BoolExpr::Or({BoolExpr::False(), a}), a);
  EXPECT_EQ(BoolExpr::And({}).kind(), BoolExpr::Kind::kTrue);
  EXPECT_EQ(BoolExpr::Or({}).kind(), BoolExpr::Kind::kFalse);
}

TEST(BoolExpr, AndOrFlatten) {
  BoolExpr a = BoolExpr::Le(X(), C(1));
  BoolExpr b = BoolExpr::Le(Y(), C(1));
  BoolExpr c = BoolExpr::Le(X() + Y(), C(1));
  BoolExpr nested = BoolExpr::And({BoolExpr::And({a, b}), c});
  ASSERT_EQ(nested.kind(), BoolExpr::Kind::kAnd);
  EXPECT_EQ(nested.children().size(), 3u);
}

TEST(BoolExpr, EvalAndOr) {
  BoolExpr both = BoolExpr::And({BoolExpr::Le(X(), C(1)),
                                 BoolExpr::Ge(Y(), C(0))});
  EXPECT_TRUE(EvalAt(both, 0.5, 0.5));
  EXPECT_FALSE(EvalAt(both, 2.0, 0.5));
  EXPECT_FALSE(EvalAt(both, 0.5, -0.5));
  BoolExpr either = BoolExpr::Or({BoolExpr::Le(X(), C(0)),
                                  BoolExpr::Ge(Y(), C(1))});
  EXPECT_TRUE(EvalAt(either, -1.0, 0.0));
  EXPECT_TRUE(EvalAt(either, 1.0, 2.0));
  EXPECT_FALSE(EvalAt(either, 1.0, 0.0));
}

TEST(BoolExpr, NotFlipsAtomsExactly) {
  // ¬(x ≤ 1) must be x > 1: boundary belongs to exactly one side.
  BoolExpr le = BoolExpr::Le(X(), C(1));
  BoolExpr not_le = BoolExpr::Not(le);
  for (double x : {0.0, 1.0, 2.0})
    EXPECT_NE(EvalAt(le, x), EvalAt(not_le, x)) << "x=" << x;
  // Involution at the semantic level.
  BoolExpr back = BoolExpr::Not(not_le);
  for (double x : {0.0, 1.0, 2.0})
    EXPECT_EQ(EvalAt(le, x), EvalAt(back, x)) << "x=" << x;
}

TEST(BoolExpr, NotAppliesDeMorgan) {
  BoolExpr a = BoolExpr::Le(X(), C(1));
  BoolExpr b = BoolExpr::Ge(Y(), C(0));
  BoolExpr neg = BoolExpr::Not(BoolExpr::And({a, b}));
  EXPECT_EQ(neg.kind(), BoolExpr::Kind::kOr);
  for (double x : {0.5, 2.0})
    for (double y : {-1.0, 0.5})
      EXPECT_EQ(EvalAt(neg, x, y), !EvalAt(BoolExpr::And({a, b}), x, y));
}

TEST(BoolExpr, NanSatisfiesNoAtom) {
  // An undefined point (sqrt of a negative) satisfies neither e<=0 nor its
  // negation — matching dReal's treatment of undefined terms.
  BoolExpr atom = BoolExpr::Le(SqrtE(X()), C(10));
  EXPECT_FALSE(EvalAt(atom, -1.0));
  EXPECT_FALSE(EvalAt(BoolExpr::Not(atom), -1.0));
}

TEST(BoolExpr, CollectAtoms) {
  BoolExpr a = BoolExpr::Le(X(), C(1));
  BoolExpr b = BoolExpr::Ge(Y(), C(0));
  BoolExpr c = BoolExpr::Lt(X() * Y(), C(2));
  BoolExpr f = BoolExpr::Or({BoolExpr::And({a, b}), c});
  EXPECT_EQ(CollectAtoms(f).size(), 3u);
  EXPECT_TRUE(CollectAtoms(BoolExpr::True()).empty());
}

TEST(BoolExpr, ToStringMentionsStructure) {
  BoolExpr f = BoolExpr::And({BoolExpr::Le(X(), C(1)),
                              BoolExpr::Lt(Y(), C(0))});
  const std::string s = f.ToString();
  EXPECT_NE(s.find("and"), std::string::npos);
  EXPECT_NE(s.find("<= 0"), std::string::npos);
  EXPECT_NE(s.find("< 0"), std::string::npos);
}

}  // namespace
}  // namespace xcv::expr
