#include <atomic>
#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "solver/icp.h"
#include "support/check.h"
#include "test_util.h"
#include "tests/scalar_reference.h"

namespace xcv::solver {
namespace {

using expr::BoolExpr;
using expr::Expr;
using xcv::testing::Rng;

Expr X() { return Expr::Variable("x", 0); }
Expr Y() { return Expr::Variable("y", 1); }
Expr C(double v) { return Expr::Constant(v); }

SolverOptions Fast() {
  SolverOptions o;
  o.max_nodes = 50'000;
  o.delta = 1e-4;
  return o;
}

TEST(DeltaSolver, UnsatisfiableFormula) {
  // x^2 + 1 < 0 has no real solution.
  DeltaSolver solver(BoolExpr::Lt(X() * X() + C(1), C(0)), Fast());
  auto r = solver.Check(Box({Interval(-10.0, 10.0)}));
  EXPECT_EQ(r.kind, SatKind::kUnsat);
  EXPECT_GT(r.stats.nodes, 0u);
}

TEST(DeltaSolver, SatisfiableWithValidModel) {
  // x - 1 <= 0 over [0, 10].
  DeltaSolver solver(BoolExpr::Le(X() - C(1), C(0)), Fast());
  auto r = solver.Check(Box({Interval(0.0, 10.0)}));
  ASSERT_EQ(r.kind, SatKind::kDeltaSat);
  ASSERT_EQ(r.model.size(), 1u);
  EXPECT_LE(r.model[0], 1.0 + 1e-6);
  EXPECT_TRUE(solver.ValidateModel(r.model));
}

TEST(DeltaSolver, NonlinearSat) {
  // sin(x) >= 0.99 has solutions near pi/2.
  DeltaSolver solver(BoolExpr::Ge(expr::SinE(X()), C(0.99)), Fast());
  auto r = solver.Check(Box({Interval(0.0, 3.0)}));
  ASSERT_EQ(r.kind, SatKind::kDeltaSat);
  EXPECT_NEAR(r.model[0], M_PI / 2.0, 0.2);
  EXPECT_TRUE(solver.ValidateModel(r.model));
}

TEST(DeltaSolver, InfeasibleBelowDeltaIsDeltaSatWithInvalidModel) {
  // x^2 >= x^2 + 1e-8 is unsatisfiable, but the violation margin (1e-8) is
  // far below delta: interval dependency on the shared x^2 term keeps the
  // residual enclosure wider than the margin at every split level, so the
  // delta-decision is delta-SAT — and the model fails exact validation.
  // This is precisely dReal's delta-weakening semantics.
  DeltaSolver solver(
      BoolExpr::Ge(X() * X(), X() * X() + C(1e-8)), Fast());
  auto r = solver.Check(Box({Interval(0.0, 1.0)}));
  ASSERT_EQ(r.kind, SatKind::kDeltaSat);
  EXPECT_FALSE(solver.ValidateModel(r.model));
}

TEST(DeltaSolver, DeltaSatMayBeInvalid) {
  // x*(1-x) >= 0.2500001 is infeasible (max of x(1-x) is 0.25) but only by
  // 1e-7 — far below delta, so the solver reports delta-sat with a model
  // that fails exact validation. This is the paper's "inconclusive" case.
  SolverOptions opts = Fast();
  opts.delta = 1e-3;
  DeltaSolver solver(
      BoolExpr::Ge(X() * (C(1) - X()), C(0.2500001)), opts);
  auto r = solver.Check(Box({Interval(0.0, 1.0)}));
  ASSERT_EQ(r.kind, SatKind::kDeltaSat);
  EXPECT_FALSE(solver.ValidateModel(r.model));
}

// A formula whose atom stays Unknown on wide boxes: the dependency
// x*x - x*x never collapses, so the enclosure of (x*x + eps - x*x) is
// [eps - w, eps + w] and refutation requires descending to tiny boxes.
BoolExpr SlowToDecide() {
  return BoolExpr::Le(X() * X() + C(1e-3) - X() * X(), C(0));
}

TEST(DeltaSolver, TimeoutOnTinyBudget) {
  SolverOptions opts = Fast();
  opts.max_nodes = 2;  // nowhere near enough
  DeltaSolver solver(SlowToDecide(), opts);
  auto r = solver.Check(Box({Interval(0.0, 100.0)}));
  EXPECT_EQ(r.kind, SatKind::kTimeout);
}

TEST(DeltaSolver, WallClockTimeout) {
  SolverOptions opts = Fast();
  opts.max_nodes = 100'000'000;
  opts.time_budget_seconds = 0.0;  // already expired
  DeltaSolver solver(SlowToDecide(), opts);
  auto r = solver.Check(Box({Interval(0.0, 100.0)}));
  EXPECT_EQ(r.kind, SatKind::kTimeout);
}

TEST(DeltaSolver, Conjunction) {
  // x >= 1 and x <= 1: only x = 1.
  BoolExpr f = BoolExpr::And(
      {BoolExpr::Ge(X(), C(1)), BoolExpr::Le(X(), C(1))});
  DeltaSolver solver(f, Fast());
  auto r = solver.Check(Box({Interval(-5.0, 5.0)}));
  ASSERT_EQ(r.kind, SatKind::kDeltaSat);
  EXPECT_NEAR(r.model[0], 1.0, 1e-3);
}

TEST(DeltaSolver, ConjunctionUnsat) {
  BoolExpr f = BoolExpr::And(
      {BoolExpr::Ge(X(), C(2)), BoolExpr::Le(X(), C(1))});
  DeltaSolver solver(f, Fast());
  EXPECT_EQ(solver.Check(Box({Interval(-5.0, 5.0)})).kind, SatKind::kUnsat);
}

TEST(DeltaSolver, Disjunction) {
  // x <= -3 or x >= 3 over [-1, 5]: satisfiable on the right branch.
  BoolExpr f = BoolExpr::Or(
      {BoolExpr::Le(X(), C(-3)), BoolExpr::Ge(X(), C(3))});
  DeltaSolver solver(f, Fast());
  auto r = solver.Check(Box({Interval(-1.0, 5.0)}));
  ASSERT_EQ(r.kind, SatKind::kDeltaSat);
  EXPECT_GE(r.model[0], 3.0 - 1e-3);
  // Over [-1, 2] it is UNSAT.
  EXPECT_EQ(solver.Check(Box({Interval(-1.0, 2.0)})).kind, SatKind::kUnsat);
}

TEST(DeltaSolver, TwoVariables) {
  // x^2 + y^2 <= 0.01 within [0.5, 1]^2 is UNSAT.
  BoolExpr f = BoolExpr::Le(X() * X() + Y() * Y(), C(0.01));
  DeltaSolver solver(f, Fast());
  EXPECT_EQ(
      solver.Check(Box({Interval(0.5, 1.0), Interval(0.5, 1.0)})).kind,
      SatKind::kUnsat);
  // Within [-1, 1]^2 it is satisfiable near the origin.
  auto r = solver.Check(Box({Interval(-1.0, 1.0), Interval(-1.0, 1.0)}));
  ASSERT_EQ(r.kind, SatKind::kDeltaSat);
  EXPECT_LE(r.model[0] * r.model[0] + r.model[1] * r.model[1], 0.02);
}

TEST(DeltaSolver, TrivialFormulas) {
  DeltaSolver t(BoolExpr::True(), Fast());
  auto rt = t.Check(Box({Interval(0.0, 1.0)}));
  EXPECT_EQ(rt.kind, SatKind::kDeltaSat);
  DeltaSolver f(BoolExpr::False(), Fast());
  EXPECT_EQ(f.Check(Box({Interval(0.0, 1.0)})).kind, SatKind::kUnsat);
}

TEST(DeltaSolver, EmptyDomainIsUnsat) {
  DeltaSolver solver(BoolExpr::Le(X(), C(100)), Fast());
  EXPECT_EQ(solver.Check(Box({Interval::Empty()})).kind, SatKind::kUnsat);
}

TEST(DeltaSolver, CancelDropsOnlyTheSearchesStillRunning) {
  // The empty box is decided before the first lockstep round; the other
  // two need branching, so a set flag drops them before any node.
  DeltaSolver solver(BoolExpr::Lt(X() * X() + C(1), C(0)), Fast());
  const std::vector<Box> batch{Box({Interval(-2.0, 2.0)}),
                               Box({Interval::Empty()}),
                               Box({Interval(3.0, 4.0)})};
  const std::atomic<bool> cancel{true};
  const auto dropped = solver.CheckMany(batch, &cancel);
  ASSERT_EQ(dropped.size(), 3u);
  EXPECT_TRUE(dropped[0].cancelled);
  EXPECT_FALSE(dropped[1].cancelled);
  EXPECT_EQ(dropped[1].kind, SatKind::kUnsat);
  EXPECT_TRUE(dropped[2].cancelled);
  // The same solver then decides the batch in full, each box as alone.
  const auto decided = solver.CheckMany(batch);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    EXPECT_FALSE(decided[i].cancelled);
    EXPECT_EQ(decided[i].kind, SatKind::kUnsat);
    EXPECT_EQ(decided[i].stats.nodes, solver.Check(batch[i]).stats.nodes);
  }
}

TEST(DeltaSolver, RejectsBadOptions) {
  SolverOptions bad;
  bad.delta = 0.0;
  EXPECT_THROW(DeltaSolver(BoolExpr::True(), bad), xcv::InternalError);
}

TEST(DeltaSolver, ContractionReducesNodesVsPureBranchAndPrune) {
  // The §III-B ablation in miniature: HC4 on vs off for the same query.
  BoolExpr f = BoolExpr::Le(expr::ExpE(X()) + X() * X(), C(0.2));
  SolverOptions with = Fast();
  SolverOptions without = Fast();
  without.contraction_rounds = 0;
  auto r_with = DeltaSolver(f, with).Check(Box({Interval(-50.0, 50.0)}));
  auto r_without =
      DeltaSolver(f, without).Check(Box({Interval(-50.0, 50.0)}));
  // Both must agree on satisfiability.
  EXPECT_EQ(r_with.kind, r_without.kind);
  // And contraction must not be slower in node count.
  EXPECT_LE(r_with.stats.nodes, r_without.stats.nodes);
}

TEST(DeltaSolver, StatsArePopulated) {
  DeltaSolver solver(BoolExpr::Lt(X() * X() + C(1), C(0)), Fast());
  auto r = solver.Check(Box({Interval(-2.0, 2.0)}));
  EXPECT_GT(r.stats.nodes, 0u);
  EXPECT_GT(r.stats.prunes, 0u);
  EXPECT_GE(r.stats.seconds, 0.0);
}

TEST(SatKindNames, AreReadable) {
  EXPECT_EQ(SatKindName(SatKind::kUnsat), "UNSAT");
  EXPECT_EQ(SatKindName(SatKind::kDeltaSat), "delta-SAT");
  EXPECT_EQ(SatKindName(SatKind::kTimeout), "TIMEOUT");
}

// Soundness sweep: UNSAT answers must never contradict a sampled model.
TEST(DeltaSolverProperty, UnsatAnswersAreSound) {
  Rng rng(60221023);
  xcv::testing::RandomExprGen gen(rng, {X(), Y()});
  for (int trial = 0; trial < 120; ++trial) {
    const Expr e = gen.Gen(3) - C(rng.Uniform(-1.0, 1.0));
    BoolExpr f = BoolExpr::Le(e, C(0));
    Box box({rng.RandomInterval(0.2, 3.0), rng.RandomInterval(0.2, 3.0)});
    SolverOptions opts = Fast();
    opts.max_nodes = 20'000;
    auto r = DeltaSolver(f, opts).Check(box);
    if (r.kind != SatKind::kUnsat) continue;
    for (int pt = 0; pt < 30; ++pt) {
      const auto p = rng.PointIn(box);
      const double v = oracle::EvalDouble(e, p);
      ASSERT_FALSE(std::isfinite(v) && v <= 0.0)
          << "UNSAT contradicted by point for " << e.ToString();
    }
  }
}

}  // namespace
}  // namespace xcv::solver
