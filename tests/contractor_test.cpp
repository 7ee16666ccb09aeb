// Behaviour and soundness of the solver's atom classification and HC4
// contraction, exercised through the production batched path at width 1:
// DeltaSolver::ClassifyBoxes for certainty, and EvalTapeIntervalBatch +
// ContractTapeIntervalBatch over one box for contraction.
#include <cmath>

#include <gtest/gtest.h>

#include "expr/compile.h"
#include "expr/interval_backward_batch.h"
#include "expr/optimize.h"
#include "solver/icp.h"
#include "test_util.h"
#include "tests/scalar_reference.h"

namespace xcv::solver {
namespace {

using expr::BoolExpr;
using expr::Expr;
using expr::Rel;
using xcv::testing::RandomExprGen;
using xcv::testing::Rng;

Expr X() { return Expr::Variable("x", 0); }
Expr Y() { return Expr::Variable("y", 1); }
Expr C(double v) { return Expr::Constant(v); }

constexpr signed char kEmpty = expr::kContractLaneEmpty;
constexpr signed char kContracted = expr::kContractLaneContracted;
constexpr signed char kNoChange = expr::kContractLaneNoChange;

// Truth of `formula` over `box` as the solver classifies it: +1 certainly
// true, -1 certainly false, 0 undecided.
int Classify(const BoolExpr& formula, const Box& box) {
  DeltaSolver solver(formula, SolverOptions{});
  std::vector<int> out;
  solver.ClassifyBoxes(std::span<const Box>(&box, 1), out);
  return out.at(0);
}

// One HC4-revise pass of the atom "e ≤ 0" (the backward sweep narrows the
// root to (-inf, 0] for either relation) over `box`, on the optimized tape
// the solver compiles. Narrows `box` in place; returns the lane outcome.
signed char Contract(const Expr& e, Box& box) {
  const expr::Tape tape = expr::CompileOptimized(e);
  const std::size_t dims = box.size();
  std::vector<double> lo(dims), hi(dims);
  std::vector<double*> lop(dims), hip(dims);
  std::vector<const double*> clop(dims), chip(dims);
  for (std::size_t d = 0; d < dims; ++d) {
    lo[d] = box[d].lo();
    hi[d] = box[d].hi();
    clop[d] = lop[d] = &lo[d];
    chip[d] = hip[d] = &hi[d];
  }
  expr::TapeIntervalBatchScratch fwd;
  expr::TapeBackwardBatchScratch bwd;
  signed char outcome = kNoChange;
  expr::EvalTapeIntervalBatch(tape, clop, chip, 1, fwd);
  expr::ContractTapeIntervalBatch(tape, fwd, lop, hip, 1, nullptr, &outcome,
                                  bwd);
  if (outcome != kEmpty)
    for (std::size_t d = 0; d < dims; ++d) box[d] = Interval(lo[d], hi[d]);
  return outcome;
}

TEST(Contractor, ClassifyCertainties) {
  // Atom: x - 1 <= 0, i.e. x <= 1.
  const BoolExpr atom = BoolExpr::Atom(X() - C(1), Rel::kLe);
  EXPECT_EQ(Classify(atom, Box({Interval(0.0, 0.5)})), 1);
  EXPECT_EQ(Classify(atom, Box({Interval(2.0, 3.0)})), -1);
  EXPECT_EQ(Classify(atom, Box({Interval(0.0, 3.0)})), 0);
}

TEST(Contractor, StrictVsNonStrictNearBoundary) {
  // Outward rounding makes exact-boundary classification conservative
  // (Unknown); a small margin restores certainty, and strictness shows up
  // in which side is certain.
  Box just_below({Interval(1.0 - 1e-9)});
  Box just_above({Interval(1.0 + 1e-9)});
  const BoolExpr le = BoolExpr::Atom(X() - C(1), Rel::kLe);
  const BoolExpr lt = BoolExpr::Atom(X() - C(1), Rel::kLt);
  EXPECT_EQ(Classify(le, just_below), 1);
  EXPECT_EQ(Classify(lt, just_below), 1);
  EXPECT_EQ(Classify(le, just_above), -1);
  EXPECT_EQ(Classify(lt, just_above), -1);
  // At the exact boundary the widened enclosure straddles 0: Unknown is
  // the sound answer for both relations.
  Box point({Interval(1.0)});
  EXPECT_EQ(Classify(le, point), 0);
  EXPECT_EQ(Classify(lt, point), 0);
}

TEST(Contractor, ClassifyThroughConnectives) {
  const Box box({Interval(0.0, 0.5), Interval(2.0, 3.0)});
  const BoolExpr conj = BoolExpr::And({BoolExpr::Le(X(), C(1)),
                                       BoolExpr::Ge(Y(), C(1))});
  EXPECT_EQ(Classify(conj, box), 1);
  const BoolExpr disj = BoolExpr::Or({BoolExpr::Ge(X(), C(1)),
                                      BoolExpr::Le(Y(), C(1))});
  EXPECT_EQ(Classify(disj, box), -1);
  // One certain conjunct and one undecided one leave the conjunction open.
  const BoolExpr open = BoolExpr::And({BoolExpr::Le(X(), C(1)),
                                       BoolExpr::Le(Y(), C(2.5))});
  EXPECT_EQ(Classify(open, box), 0);
}

TEST(Contractor, NowhereDefinedIsCertainlyFalse) {
  // sqrt(x) over x < 0 has an empty enclosure: the atom holds nowhere in the
  // box, and so does its negation.
  const Box box({Interval(-5.0, -1.0)});
  EXPECT_EQ(Classify(BoolExpr::Le(expr::SqrtE(X()), C(1)), box), -1);
  EXPECT_EQ(Classify(BoolExpr::Gt(expr::SqrtE(X()), C(1)), box), -1);
}

TEST(Contractor, ContractsLinearAtom) {
  // x + y - 1 <= 0 over [0,5] x [0,5]: x must be <= 1.
  const Expr c = X() + Y() - C(1);
  Box box({Interval(0.0, 5.0), Interval(0.0, 5.0)});
  EXPECT_EQ(Contract(c, box), kContracted);
  EXPECT_LE(box[0].hi(), 1.0 + 1e-9);
  EXPECT_LE(box[1].hi(), 1.0 + 1e-9);
}

TEST(Contractor, DetectsEmptiness) {
  // x^2 + 1 <= 0 is unsatisfiable. (Written with Pow: the x*x product form
  // suffers interval dependency — [-3,3]*[-3,3] = [-9,9] — and cannot be
  // refuted by a single contraction; that case is the solver's job.)
  const Expr c = expr::Pow(X(), 2.0) + C(1);
  Box box({Interval(-3.0, 3.0)});
  EXPECT_EQ(Contract(c, box), kEmpty);
}

TEST(Contractor, ProductFormIsRecognizedAsSquare) {
  // The same constraint in x*x form: the tape optimizer rewrites the
  // duplicated product to sqr(x), whose enclosure [0,9] has no dependency
  // problem, so one pass now refutes it just like the Pow spelling.
  const Expr c = X() * X() + C(1);
  Box box({Interval(-3.0, 3.0)});
  EXPECT_EQ(Contract(c, box), kEmpty);
}

TEST(Contractor, DependentProductIsNotRefutedLocally) {
  // A genuinely dependent spelling of x^2 + 1 the optimizer cannot
  // collapse: x*(x+1) - x + 1. One HC4 pass cannot empty it ([-3,3]*[-2,4]
  // loses the correlation), but there are no solutions, so anything
  // non-empty is merely conservative — never unsound.
  const Expr c = X() * (X() + C(1)) - X() + C(1);
  Box box({Interval(-3.0, 3.0)});
  EXPECT_NE(Contract(c, box), kEmpty);
}

TEST(Contractor, NoChangeWhenAlreadyTight) {
  const Expr c = X() - C(10);  // x <= 10, box is [0,1]
  Box box({Interval(0.0, 1.0)});
  EXPECT_EQ(Contract(c, box), kNoChange);
  EXPECT_EQ(box[0], Interval(0.0, 1.0));
}

TEST(Contractor, DuplicatedOperandRegression) {
  // z = x + x <= 1 over x in [0.4, 5]: true solution set x <= 0.5.
  // A naive backward rule that skips *all* occurrences of a duplicated
  // operand would wrongly contract to x >= 0.8.
  const Expr c = expr::Add(X(), X()) - C(1);
  Box box({Interval(0.4, 5.0)});
  ASSERT_NE(Contract(c, box), kEmpty);
  EXPECT_TRUE(box[0].Contains(0.45));  // a genuine solution survives
  // Same for multiplication: x * x <= 4 over [1, 10] keeps x = 1.5.
  const Expr m = expr::Mul(X(), X()) - C(4);
  Box mbox({Interval(1.0, 10.0)});
  ASSERT_NE(Contract(m, mbox), kEmpty);
  EXPECT_TRUE(mbox[0].Contains(1.5));
}

TEST(Contractor, BackwardThroughExp) {
  // exp(x) - 2 <= 0  =>  x <= ln 2.
  const Expr c = expr::ExpE(X()) - C(2);
  Box box({Interval(-10.0, 10.0)});
  EXPECT_EQ(Contract(c, box), kContracted);
  EXPECT_LE(box[0].hi(), std::log(2.0) + 1e-9);
  EXPECT_TRUE(box[0].Contains(0.0));
}

TEST(Contractor, BackwardThroughLog) {
  // log(x) <= 0  =>  x <= 1 (and x > 0 survives).
  const Expr c = expr::LogE(X());
  Box box({Interval(0.1, 10.0)});
  EXPECT_EQ(Contract(c, box), kContracted);
  EXPECT_LE(box[0].hi(), 1.0 + 1e-9);
  EXPECT_TRUE(box[0].Contains(0.5));
}

TEST(Contractor, BackwardThroughSqrtAndAbs) {
  // sqrt(x) - 2 <= 0  =>  x <= 4.
  const Expr c = expr::SqrtE(X()) - C(2);
  Box box({Interval(0.0, 100.0)});
  EXPECT_EQ(Contract(c, box), kContracted);
  EXPECT_LE(box[0].hi(), 4.0 + 1e-6);
  // |x| - 1 <= 0  =>  x in [-1, 1].
  const Expr a = expr::AbsE(X()) - C(1);
  Box abox({Interval(-10.0, 10.0)});
  EXPECT_EQ(Contract(a, abox), kContracted);
  EXPECT_LE(abox[0].hi(), 1.0 + 1e-9);
  EXPECT_GE(abox[0].lo(), -1.0 - 1e-9);
}

TEST(Contractor, BackwardThroughEvenPower) {
  // x^2 - 4 <= 0  =>  x in [-2, 2].
  const Expr c = expr::Pow(X(), 2.0) - C(4);
  Box box({Interval(-10.0, 10.0)});
  EXPECT_EQ(Contract(c, box), kContracted);
  EXPECT_LE(box[0].hi(), 2.0 + 1e-6);
  EXPECT_GE(box[0].lo(), -2.0 - 1e-6);
}

TEST(Contractor, BackwardThroughOddPower) {
  // x^3 - 8 <= 0  =>  x <= 2 (negatives untouched).
  const Expr c = expr::Pow(X(), 3.0) - C(8);
  Box box({Interval(-10.0, 10.0)});
  EXPECT_EQ(Contract(c, box), kContracted);
  EXPECT_LE(box[0].hi(), 2.0 + 1e-6);
  EXPECT_TRUE(box[0].Contains(-5.0));
}

TEST(Contractor, BackwardThroughLambertW) {
  // W(x) - 1 <= 0  =>  x <= e.
  const Expr c = expr::LambertW0E(X()) - C(1);
  Box box({Interval(0.0, 100.0)});
  EXPECT_EQ(Contract(c, box), kContracted);
  EXPECT_LE(box[0].hi(), M_E + 1e-6);
}

TEST(Contractor, BackwardThroughNegationAndDiv) {
  // -x + 1 <= 0  =>  x >= 1.
  const Expr c = C(1) - X();
  Box box({Interval(-5.0, 5.0)});
  EXPECT_EQ(Contract(c, box), kContracted);
  EXPECT_GE(box[0].lo(), 1.0 - 1e-9);
  // x / y - 1 <= 0 with y in [1, 2]: x <= 2.
  const Expr d = X() / Y() - C(1);
  Box dbox({Interval(0.0, 100.0), Interval(1.0, 2.0)});
  EXPECT_EQ(Contract(d, dbox), kContracted);
  EXPECT_LE(dbox[0].hi(), 2.0 + 1e-9);
}

TEST(Contractor, UndefinedEverywhereIsEmpty) {
  // sqrt(x) over x < 0: expression nowhere defined on the box.
  const Expr c = expr::SqrtE(X()) - C(1);
  Box box({Interval(-5.0, -1.0)});
  EXPECT_EQ(Contract(c, box), kEmpty);
}

// HC4 soundness sweep: contraction never removes a satisfying point.
TEST(ContractorProperty, NeverRemovesSolutions) {
  Rng rng(31415);
  RandomExprGen gen(rng, {X(), Y()});
  int solutions_checked = 0;
  for (int trial = 0; trial < 250; ++trial) {
    const Expr e = gen.Gen(3) - C(rng.Uniform(-2.0, 2.0));
    const Rel rel = rng.Bernoulli() ? Rel::kLe : Rel::kLt;
    Box box({rng.RandomInterval(0.2, 3.0), rng.RandomInterval(0.2, 3.0)});

    // Collect satisfying sample points before contraction.
    std::vector<std::vector<double>> sat;
    for (int pt = 0; pt < 20; ++pt) {
      std::vector<double> p = rng.PointIn(box);
      const double v = oracle::EvalDouble(e, p);
      const bool holds = rel == Rel::kLe ? v <= 0.0 : v < 0.0;
      if (std::isfinite(v) && holds) sat.push_back(std::move(p));
    }

    Box contracted = box;
    const signed char outcome = Contract(e, contracted);
    if (outcome == kEmpty) {
      ASSERT_TRUE(sat.empty())
          << "contractor emptied a box containing solutions for "
          << e.ToString();
      continue;
    }
    for (const auto& p : sat) {
      ASSERT_TRUE(contracted.Contains(p))
          << "solution removed by contraction of " << e.ToString();
      ++solutions_checked;
    }
  }
  EXPECT_GT(solutions_checked, 300);
}

}  // namespace
}  // namespace xcv::solver
