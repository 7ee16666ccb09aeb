// Tests for the tape optimizer (expr/optimize.h) and the batched SoA
// evaluator (EvalTapeBatch): scalar equivalence, interval-enclosure
// soundness, batch-vs-scalar consistency against the scalar oracle
// (tests/scalar_reference.h), and the structural rewrites.
#include "expr/optimize.h"

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "conditions/enhancement.h"
#include "expr/compile.h"
#include "expr/expr.h"
#include "functionals/functional.h"
#include "tests/scalar_reference.h"
#include "tests/test_util.h"

namespace xcv::expr {
namespace {

using oracle::EvalDouble;

using testing::RandomExprGen;
using testing::Rng;

Expr X() { return Expr::Variable("x", 0); }
Expr Y() { return Expr::Variable("y", 1); }

bool CountsOp(const Tape& tape, Op op) {
  for (const Instr& ins : tape.instrs)
    if (ins.op == op) return true;
  return false;
}

// Strength reduction replaces pow with sqr/pown/sqrt chains, so values can
// legitimately move by a few ulps; everything else is bit-preserving.
void ExpectSameValue(double got, double want, const std::string& context) {
  if (std::isnan(got) && std::isnan(want)) return;
  const double tol = 1e-12 * std::max(1.0, std::fabs(want));
  EXPECT_NEAR(got, want, tol) << context;
}

TEST(Optimize, StrengthReducesIntegerPow) {
  const Expr e = Pow(X(), 2.0) + Pow(Y(), 7.0);
  const Tape opt = CompileOptimized(e);
  EXPECT_FALSE(CountsOp(opt, Op::kPow));
  EXPECT_TRUE(CountsOp(opt, Op::kSqr));
  EXPECT_TRUE(CountsOp(opt, Op::kPowN));
}

TEST(Optimize, StrengthReducesHalfIntegerPow) {
  const Expr e = Pow(X(), 0.5) * Pow(Y(), 2.5) * Pow(X(), -1.5);
  const Tape opt = CompileOptimized(e);
  EXPECT_FALSE(CountsOp(opt, Op::kPow));
  EXPECT_TRUE(CountsOp(opt, Op::kSqrt));

  oracle::TapeScratch scratch;
  const Tape plain = Compile(e);
  const double env[2] = {1.7, 2.3};
  ExpectSameValue(oracle::EvalTape(opt, env, scratch),
                  oracle::EvalTape(plain, env, scratch), e.ToString());
}

TEST(Optimize, LeavesInexactExponentsAlone) {
  // 1/3 is not representable; a cbrt rewrite would change the function.
  const Tape opt = CompileOptimized(Pow(X(), 1.0 / 3.0) + Pow(Y(), 0.27));
  EXPECT_TRUE(CountsOp(opt, Op::kPow));
}

TEST(Optimize, HoistsNegationOutOfProducts) {
  // The builder spells -x as mul(-1, x); the optimizer should recover kNeg
  // and drop the constant slot.
  const Expr e = Neg(X() * Y());
  const Tape plain = Compile(e);
  const Tape opt = Optimize(plain);
  EXPECT_TRUE(CountsOp(opt, Op::kNeg));
  // Trades the -1 constant slot for a kNeg: never larger, one multiply less.
  EXPECT_LE(opt.size(), plain.size());

  // neg(neg(x)) collapses entirely: the builder flattens mul(-1, mul(-1, x))
  // to x, and the tape pass must not regress it.
  const Tape double_neg = CompileOptimized(Neg(Neg(X())));
  EXPECT_EQ(double_neg.size(), 1u);
  EXPECT_EQ(double_neg.instrs[0].op, Op::kVar);
}

TEST(Optimize, CollapsesMinMaxAndIteWhoseOperandsCseMerged) {
  // x^2 and x*x are distinct DAG nodes, so the builder keeps min/max/ite
  // over them; on the tape both become sqr(x), and only the tape pass can
  // see that the operands coincide.
  const Expr by_pow = Pow(X(), 2.0);
  const Expr by_mul = X() * X();
  for (const Expr& e :
       {Min(by_pow, by_mul), Max(by_pow, by_mul),
        Ite(Y(), Rel::kLe, Expr::Constant(1.0), by_pow, by_mul)}) {
    const Tape opt = CompileOptimized(e);
    ASSERT_EQ(opt.size(), 2u) << e.ToString();
    EXPECT_EQ(opt.instrs[1].op, Op::kSqr) << e.ToString();
  }
}

TEST(Optimize, EliminatesDeadExponentSlots) {
  OptimizeStats stats;
  const Tape opt = CompileOptimized(Pow(X(), 2.0) * Pow(X(), 3.0), &stats);
  EXPECT_GT(stats.strength_reduced, 0u);
  EXPECT_GT(stats.eliminated, 0u);
  // No orphaned constants: every slot reachable from the root.
  for (const Instr& ins : opt.instrs) {
    EXPECT_LT(ins.a, static_cast<std::int32_t>(opt.size()));
  }
  EXPECT_LT(stats.size_after, stats.size_before);
}

TEST(Optimize, RewritesEveryFunctionalTape) {
  for (const auto& f : functionals::PaperFunctionals()) {
    OptimizeStats stats;
    const Tape plain = Compile(f.eps_c);
    const Tape opt = Optimize(plain, &stats);
    // Every paper functional's correlation tape contains constant powers or
    // hand-written squares; the optimizer must find work in all of them.
    // (Slot count may grow — a pow becomes a sqrt/mul chain — but each
    // remaining instruction is cheaper.)
    EXPECT_GT(stats.strength_reduced + stats.simplified, 0u)
        << f.name;
    oracle::TapeScratch scratch;
    const double env[3] = {1.3, 0.9, 1.4};
    ExpectSameValue(oracle::EvalTape(opt, env, scratch),
                    oracle::EvalTape(plain, env, scratch), f.name);
  }
  // SCAN's interpolation switch is built on quarter-integer powers; they
  // must all reduce to sqrt chains.
  OptimizeStats scan_stats;
  CompileOptimized(functionals::FindFunctional("SCAN")->eps_c, &scan_stats);
  EXPECT_GT(scan_stats.strength_reduced, 0u);
}

TEST(Optimize, PreservesVariableIndexing) {
  const Expr e = Pow(Y(), 2.0) + Y();  // x does not occur
  const Tape opt = CompileOptimized(e);
  ASSERT_EQ(opt.num_env_slots, 2);
  EXPECT_EQ(opt.var_slot[0], -1);
  ASSERT_GE(opt.var_slot[1], 0);
  EXPECT_EQ(opt.instrs[static_cast<std::size_t>(opt.var_slot[1])].var, 1);
}

TEST(OptimizeProperty, ScalarValuesMatchUnoptimized) {
  Rng rng(97531);
  RandomExprGen gen(rng, {X(), Y()});
  oracle::TapeScratch scratch;
  for (int trial = 0; trial < 400; ++trial) {
    const Expr e = gen.Gen(5);
    const Tape plain = Compile(e);
    const Tape opt = Optimize(plain);
    for (int pt = 0; pt < 3; ++pt) {
      const double env[2] = {rng.Uniform(0.2, 3.0), rng.Uniform(0.2, 3.0)};
      std::span<const double> s(env, 2);
      ExpectSameValue(oracle::EvalTape(opt, s, scratch),
                      oracle::EvalTape(plain, s, scratch), e.ToString());
    }
  }
}

TEST(OptimizeProperty, IntervalEnclosureStaysSound) {
  Rng rng(86420);
  RandomExprGen gen(rng, {X(), Y()});
  TapeIntervalBatchScratch scratch;
  int checked = 0;
  for (int trial = 0; trial < 250; ++trial) {
    const Expr e = gen.Gen(5);
    const Tape opt = CompileOptimized(e);
    std::vector<Interval> box{rng.RandomInterval(0.2, 3.0),
                              rng.RandomInterval(0.2, 3.0)};
    const Interval enclosure = EvalTapeInterval(opt, box, scratch);
    for (int pt = 0; pt < 4; ++pt) {
      const double env[2] = {rng.PointIn(box[0]), rng.PointIn(box[1])};
      const double v = EvalDouble(e, std::span<const double>(env, 2));
      if (!std::isfinite(v)) continue;
      ASSERT_TRUE(enclosure.Contains(v))
          << v << " escaped optimized enclosure " << enclosure.ToString()
          << " for " << e.ToString();
      ++checked;
    }
  }
  EXPECT_GT(checked, 500);
}

TEST(OptimizeProperty, BatchMatchesScalarEvaluation) {
  Rng rng(11223);
  RandomExprGen gen(rng, {X(), Y()});
  oracle::TapeScratch scratch;
  TapeBatchScratch batch_scratch;
  constexpr std::size_t kPoints = 64;
  for (int trial = 0; trial < 120; ++trial) {
    const Expr e = gen.Gen(5);
    const Tape opt = CompileOptimized(e);

    std::vector<double> xs(kPoints), ys(kPoints), batch(kPoints);
    for (std::size_t j = 0; j < kPoints; ++j) {
      xs[j] = rng.Uniform(0.2, 3.0);
      ys[j] = rng.Uniform(0.2, 3.0);
    }
    const double* inputs[2] = {xs.data(), ys.data()};
    EvalTapeBatch(opt, inputs, kPoints, batch.data(), batch_scratch);

    for (std::size_t j = 0; j < kPoints; ++j) {
      const double env[2] = {xs[j], ys[j]};
      const double scalar =
          oracle::EvalTape(opt, std::span<const double>(env, 2), scratch);
      if (std::isnan(scalar) && std::isnan(batch[j])) continue;
      // Same tape, same instruction semantics: bit-identical.
      EXPECT_EQ(scalar, batch[j]) << e.ToString() << " at point " << j;
    }
  }
}

TEST(OptimizeProperty, BatchHandlesFunctionalTapesAndReusedScratch) {
  // One shared scratch across tapes of different sizes and chunk widths —
  // the usage pattern of the grid evaluator.
  TapeBatchScratch batch_scratch;
  oracle::TapeScratch scratch;
  Rng rng(5150);
  for (const auto& f : functionals::PaperFunctionals()) {
    const Tape opt = CompileOptimized(conditions::CorrelationEnhancement(f));
    for (std::size_t n : {1UL, 7UL, 33UL}) {
      std::vector<double> rs(n), s(n), alpha(n), batch(n);
      for (std::size_t j = 0; j < n; ++j) {
        rs[j] = rng.Uniform(0.5, 3.0);
        s[j] = rng.Uniform(0.1, 3.0);
        alpha[j] = rng.Uniform(0.1, 2.0);
      }
      std::vector<const double*> inputs{rs.data(), s.data(), alpha.data()};
      inputs.resize(std::max<std::size_t>(
          static_cast<std::size_t>(opt.num_env_slots), 1));
      EvalTapeBatch(opt, inputs, n, batch.data(), batch_scratch);
      for (std::size_t j = 0; j < n; ++j) {
        const double env[3] = {rs[j], s[j], alpha[j]};
        EXPECT_EQ(
            oracle::EvalTape(opt, std::span<const double>(env, 3), scratch),
            batch[j])
            << f.name;
      }
    }
  }
}

}  // namespace
}  // namespace xcv::expr
