#include <cmath>

#include <gtest/gtest.h>

#include "expr/compile.h"
#include "expr/expr.h"
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

// Double evaluation of the tape at the point `env`: the batched evaluator at
// width 1 (each input row is one value).
double EvalAt(const Tape& tape, std::span<const double> env) {
  std::vector<const double*> inputs;
  for (const double& v : env) inputs.push_back(&v);
  TapeBatchScratch scratch;
  double out = 0.0;
  EvalTapeBatch(tape, inputs, 1, &out, scratch);
  return out;
}

TEST(Compile, TopologicalOrder) {
  Tape tape = Compile(ExpE(X() + C(1)) * X());
  // Every operand slot must refer to an earlier instruction.
  for (std::size_t i = 0; i < tape.size(); ++i) {
    const Instr& ins = tape.instrs[i];
    for (int slot : {static_cast<int>(ins.a), static_cast<int>(ins.b),
                     static_cast<int>(ins.c), static_cast<int>(ins.d)})
      if (slot >= 0) EXPECT_LT(static_cast<std::size_t>(slot), i);
    for (auto slot : ins.rest) EXPECT_LT(static_cast<std::size_t>(slot), i);
  }
}

TEST(Compile, SharedNodesCompileOnce) {
  Expr g = ExpE(X());
  Tape tape = Compile(g * g + g);
  std::size_t exp_count = 0;
  for (const Instr& ins : tape.instrs)
    if (ins.op == Op::kExp) ++exp_count;
  EXPECT_EQ(exp_count, 1u);
}

TEST(Compile, VarSlotMapping) {
  Tape tape = Compile(X() + Y());
  ASSERT_EQ(tape.num_env_slots, 2);
  ASSERT_EQ(tape.var_slot.size(), 2u);
  EXPECT_GE(tape.var_slot[0], 0);
  EXPECT_GE(tape.var_slot[1], 0);
  EXPECT_EQ(tape.instrs[static_cast<std::size_t>(tape.var_slot[0])].var, 0);
  EXPECT_EQ(tape.instrs[static_cast<std::size_t>(tape.var_slot[1])].var, 1);
}

TEST(Compile, AbsentVariableSlotIsMinusOne) {
  Tape tape = Compile(Y() + C(1));  // only var index 1 present
  ASSERT_EQ(tape.num_env_slots, 2);
  EXPECT_EQ(tape.var_slot[0], -1);
  EXPECT_GE(tape.var_slot[1], 0);
}

TEST(EvalTapeBatch, MatchesRecursiveEvaluator) {
  Expr e = ExpE(X() * Y()) / (C(1) + SqrtE(AbsE(X() - Y()) + C(0.1)));
  Tape tape = Compile(e);
  const double env[2] = {1.3, 0.4};
  std::span<const double> s(env, 2);
  EXPECT_DOUBLE_EQ(EvalAt(tape, s), EvalDouble(e, s));
}

TEST(EvalTapeBatch, NaryOperands) {
  Expr e = Add({X(), Y(), C(2), ExpE(X())});
  Tape tape = Compile(e);
  const double env[2] = {1.0, 2.0};
  std::span<const double> s(env, 2);
  EXPECT_DOUBLE_EQ(EvalAt(tape, s), 5.0 + std::exp(1.0));
  Expr m = Mul({X(), Y(), C(3), X()});
  Tape mt = Compile(m);
  EXPECT_DOUBLE_EQ(EvalAt(mt, s), 6.0);
}

TEST(EvalTapeBatch, IteBranches) {
  Expr e = Ite(X(), Rel::kLt, Y(), X() + Y(), X() * Y());
  Tape tape = Compile(e);
  const double lt[2] = {1.0, 2.0};
  const double ge[2] = {3.0, 2.0};
  EXPECT_DOUBLE_EQ(EvalAt(tape, std::span<const double>(lt, 2)), 3.0);
  EXPECT_DOUBLE_EQ(EvalAt(tape, std::span<const double>(ge, 2)), 6.0);
}

TEST(EvalTapeBatchProperty, TapeAgreesWithRecursiveOnRandomExprs) {
  Rng rng(1357);
  RandomExprGen gen(rng, {X(), Y()});
  for (int trial = 0; trial < 300; ++trial) {
    const Expr e = gen.Gen(4);
    Tape tape = Compile(e);
    for (int pt = 0; pt < 3; ++pt) {
      const double env[2] = {rng.Uniform(0.2, 3.0), rng.Uniform(0.2, 3.0)};
      std::span<const double> s(env, 2);
      const double a = EvalAt(tape, s);
      const double b = EvalDouble(e, s);
      if (std::isnan(a) && std::isnan(b)) continue;
      ASSERT_DOUBLE_EQ(a, b) << e.ToString();
    }
  }
}

TEST(EvalTapeIntervalProperty, SoundOnRandomExprs) {
  Rng rng(2468);
  RandomExprGen gen(rng, {X(), Y()});
  int checked = 0;
  for (int trial = 0; trial < 200; ++trial) {
    const Expr e = gen.Gen(4);
    Tape tape = Compile(e);
    std::vector<Interval> box{rng.RandomInterval(0.2, 3.0),
                              rng.RandomInterval(0.2, 3.0)};
    TapeIntervalBatchScratch scratch;
    const Interval enclosure = EvalTapeInterval(tape, box, scratch);
    for (int pt = 0; pt < 4; ++pt) {
      const double env[2] = {rng.PointIn(box[0]), rng.PointIn(box[1])};
      const double v = EvalDouble(e, std::span<const double>(env, 2));
      if (!std::isfinite(v)) continue;
      ASSERT_TRUE(enclosure.Contains(v))
          << v << " escaped " << enclosure.ToString() << " for "
          << e.ToString();
      ++checked;
    }
  }
  EXPECT_GT(checked, 400);
}

}  // namespace
}  // namespace xcv::expr
