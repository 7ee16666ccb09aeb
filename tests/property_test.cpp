// Parameterized property suites (TEST_P sweeps) over the verification
// pipeline's core invariants:
//   1. Interval enclosures are sound for every operator (through the
//      batched tape evaluator at width 1, as the solver runs it).
//   2. HC4 contraction preserves every solution.
//   3. Verified regions from Algorithm 1 contain no violation — checked by
//      dense sampling against plain double evaluation.
//   4. The delta-solver's three answers are mutually consistent with
//      sampling evidence.
#include <cmath>

#include <gtest/gtest.h>

#include "conditions/conditions.h"
#include "expr/compile.h"
#include "interval/lambert_w.h"
#include "functionals/functional.h"
#include "solver/icp.h"
#include "test_util.h"
#include "verifier/verifier.h"
#include "tests/scalar_reference.h"

namespace xcv {
namespace {

using expr::BoolExpr;
using expr::Expr;
using solver::Box;
using xcv::testing::RandomExprGen;
using xcv::testing::Rng;

// ---------------------------------------------------------------------------
// 1. Interval soundness, parameterized over unary operators.
// ---------------------------------------------------------------------------

struct UnaryOpCase {
  const char* name;
  Expr (*build)(const Expr&);
  double (*eval)(double);
  double domain_lo;
  double domain_hi;
};

class UnaryIntervalSoundness : public ::testing::TestWithParam<UnaryOpCase> {};

TEST_P(UnaryIntervalSoundness, PointStaysInsideEnclosure) {
  const UnaryOpCase& op = GetParam();
  // Through int64: a negative double cast straight to uint64 is undefined
  // (UBSan float-cast-overflow); this gives the seed x86-64 always used.
  Rng rng(0xC0FFEE ^ static_cast<std::uint64_t>(
                         static_cast<std::int64_t>(op.domain_lo * 100)));
  const Expr x = Expr::Variable("x", 0);
  const expr::Tape tape = expr::Compile(op.build(x));
  expr::TapeIntervalBatchScratch scratch;
  for (int trial = 0; trial < 500; ++trial) {
    const Interval box = rng.RandomInterval(op.domain_lo, op.domain_hi);
    std::vector<Interval> dims{box};
    const Interval enclosure = expr::EvalTapeInterval(tape, dims, scratch);
    for (int pt = 0; pt < 4; ++pt) {
      const double v = op.eval(rng.PointIn(box));
      if (!std::isfinite(v)) continue;
      ASSERT_TRUE(enclosure.Contains(v))
          << op.name << ": " << v << " escaped " << enclosure.ToString();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllUnaryOps, UnaryIntervalSoundness,
    ::testing::Values(
        UnaryOpCase{"exp", [](const Expr& x) { return expr::ExpE(x); },
                    [](double v) { return std::exp(v); }, -5.0, 5.0},
        UnaryOpCase{"log", [](const Expr& x) { return expr::LogE(x); },
                    [](double v) { return std::log(v); }, 0.01, 10.0},
        UnaryOpCase{"sqrt", [](const Expr& x) { return expr::SqrtE(x); },
                    [](double v) { return std::sqrt(v); }, 0.0, 10.0},
        UnaryOpCase{"cbrt", [](const Expr& x) { return expr::CbrtE(x); },
                    [](double v) { return std::cbrt(v); }, -10.0, 10.0},
        UnaryOpCase{"sin", [](const Expr& x) { return expr::SinE(x); },
                    [](double v) { return std::sin(v); }, -10.0, 10.0},
        UnaryOpCase{"cos", [](const Expr& x) { return expr::CosE(x); },
                    [](double v) { return std::cos(v); }, -10.0, 10.0},
        UnaryOpCase{"atan", [](const Expr& x) { return expr::AtanE(x); },
                    [](double v) { return std::atan(v); }, -20.0, 20.0},
        UnaryOpCase{"tanh", [](const Expr& x) { return expr::TanhE(x); },
                    [](double v) { return std::tanh(v); }, -5.0, 5.0},
        UnaryOpCase{"abs", [](const Expr& x) { return expr::AbsE(x); },
                    [](double v) { return std::fabs(v); }, -5.0, 5.0},
        UnaryOpCase{"lambertw",
                    [](const Expr& x) { return expr::LambertW0E(x); },
                    [](double v) { return LambertW0(v); }, -0.36, 10.0},
        UnaryOpCase{"neg", [](const Expr& x) { return expr::Neg(x); },
                    [](double v) { return -v; }, -5.0, 5.0}),
    [](const ::testing::TestParamInfo<UnaryOpCase>& info) {
      return info.param.name;
    });

// ---------------------------------------------------------------------------
// 2. Power soundness, parameterized over exponents.
// ---------------------------------------------------------------------------

class PowIntervalSoundness : public ::testing::TestWithParam<double> {};

TEST_P(PowIntervalSoundness, PointStaysInsideEnclosure) {
  const double p = GetParam();
  Rng rng(0xBEEF ^ static_cast<std::uint64_t>(p * 7 + 100));
  const Expr x = Expr::Variable("x", 0);
  const expr::Tape tape = expr::Compile(expr::Pow(x, p));
  expr::TapeIntervalBatchScratch scratch;
  const bool integral = p == std::floor(p);
  const double lo = integral ? -4.0 : 0.0;
  for (int trial = 0; trial < 400; ++trial) {
    Interval box = rng.RandomInterval(lo, 4.0);
    std::vector<Interval> dims{box};
    const Interval enclosure = expr::EvalTapeInterval(tape, dims, scratch);
    for (int pt = 0; pt < 4; ++pt) {
      const double v = std::pow(rng.PointIn(box), p);
      if (!std::isfinite(v)) continue;
      ASSERT_TRUE(enclosure.Contains(v))
          << "x^" << p << ": " << v << " escaped " << enclosure.ToString()
          << " over " << box.ToString();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Exponents, PowIntervalSoundness,
                         ::testing::Values(-3.0, -2.0, -1.0, 2.0, 3.0, 4.0,
                                           0.5, 1.5, -0.25, 8.0 / 3.0,
                                           -11.0 / 3.0));

// ---------------------------------------------------------------------------
// 3. Verified regions contain no violations (per functional-condition pair).
// ---------------------------------------------------------------------------

struct PairCase {
  const char* functional;
  const char* condition;
};

class VerifiedRegionsSound : public ::testing::TestWithParam<PairCase> {};

TEST_P(VerifiedRegionsSound, NoViolationInsideVerifiedLeaves) {
  const auto& [fname, cname] = GetParam();
  const auto& f = *functionals::FindFunctional(fname);
  const auto& cond = *conditions::FindCondition(cname);
  const auto psi = conditions::BuildCondition(cond, f);
  ASSERT_TRUE(psi.has_value());

  verifier::VerifierOptions opts;
  opts.split_threshold = 0.35;
  opts.solver.max_nodes = 20'000;
  opts.solver.time_budget_seconds = 0.5;
  opts.total_time_budget_seconds = 10.0;
  verifier::Verifier v(*psi, opts);
  const auto report = v.Run(conditions::PaperDomain(f));

  Rng rng(20250612);
  int sampled = 0;
  for (const auto& leaf : report.leaves) {
    if (leaf.status != verifier::RegionStatus::kVerified) continue;
    for (int pt = 0; pt < 20; ++pt) {
      const auto p = rng.PointIn(leaf.box);
      ASSERT_TRUE(oracle::EvalBool(*psi, p))
          << fname << "/" << cname << ": condition violated inside a "
          << "verified region at a sampled point";
      ++sampled;
    }
  }
  // At least some pairs must produce verified area for the sweep to mean
  // anything; pairs chosen below all do at this budget.
  EXPECT_GT(sampled, 0) << fname << "/" << cname;
}

INSTANTIATE_TEST_SUITE_P(
    PaperPairs, VerifiedRegionsSound,
    ::testing::Values(PairCase{"VWN_RPA", "EC1"}, PairCase{"VWN_RPA", "EC6"},
                      PairCase{"LYP", "EC1"}, PairCase{"PBE", "EC5"},
                      PairCase{"PBE", "EC1"}, PairCase{"AM05", "EC1"}),
    [](const ::testing::TestParamInfo<PairCase>& info) {
      return std::string(info.param.functional) + "_" +
             info.param.condition;
    });

// ---------------------------------------------------------------------------
// 4. Solver answer consistency on random constraint systems.
// ---------------------------------------------------------------------------

class SolverConsistency : public ::testing::TestWithParam<int> {};

TEST_P(SolverConsistency, AnswersAgreeWithSampling) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 2654435761u + 17);
  const Expr x = Expr::Variable("x", 0);
  const Expr y = Expr::Variable("y", 1);
  RandomExprGen gen(rng, {x, y});
  for (int trial = 0; trial < 40; ++trial) {
    const Expr e = gen.Gen(3) - Expr::Constant(rng.Uniform(-1.5, 1.5));
    BoolExpr formula = BoolExpr::Le(e, Expr::Constant(0.0));
    Box box({rng.RandomInterval(0.3, 2.5), rng.RandomInterval(0.3, 2.5)});

    solver::SolverOptions opts;
    opts.max_nodes = 15'000;
    opts.delta = 1e-3;
    solver::DeltaSolver ds(formula, opts);
    const auto result = ds.Check(box);

    // Sample satisfying points by brute force.
    bool any_sat = false;
    for (int pt = 0; pt < 60; ++pt) {
      const auto p = rng.PointIn(box);
      const double v = oracle::EvalDouble(e, p);
      if (std::isfinite(v) && v <= 0.0) {
        any_sat = true;
        break;
      }
    }
    if (result.kind == solver::SatKind::kUnsat) {
      ASSERT_FALSE(any_sat) << "UNSAT but a satisfying sample exists: "
                            << e.ToString();
    }
    // Delta-sat with a model that validates must genuinely satisfy.
    if (result.kind == solver::SatKind::kDeltaSat &&
        ds.ValidateModel(result.model)) {
      const double v = oracle::EvalDouble(e, result.model);
      ASSERT_TRUE(v <= 0.0);
      ASSERT_TRUE(box.Contains(result.model));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SolverConsistency,
                         ::testing::Range(1, 6));

}  // namespace
}  // namespace xcv
