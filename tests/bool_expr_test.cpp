// BoolExpr construction and NNF negation (checked on the tree-walk
// oracle), and the audit of CompiledFormula — exact point truth on
// unoptimized tapes at width 1 — against that oracle: every atom value bit
// for bit and every truth value, over the whole condition catalogue and
// random expressions, including signed zeros and subnormal coordinates.
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <unordered_set>
#include <vector>

#include <gtest/gtest.h>

#include "conditions/conditions.h"
#include "expr/bool_expr.h"
#include "expr/compile.h"
#include "expr/expr.h"
#include "functionals/functional.h"
#include "tests/scalar_reference.h"
#include "tests/test_util.h"

namespace xcv::expr {
namespace {

using oracle::CollectAtoms;
using oracle::EvalBool;

Expr X() { return Expr::Variable("x", 0); }
Expr Y() { return Expr::Variable("y", 1); }
Expr C(double v) { return Expr::Constant(v); }

// Truth at (x, y) on the tree-walk oracle; CompiledFormula must agree.
bool EvalAt(const BoolExpr& b, double x, double y = 0.0) {
  const double env[2] = {x, y};
  const bool truth = EvalBool(b, std::span<const double>(env, 2));
  TapeBatchScratch scratch;
  EXPECT_EQ(CompiledFormula(b).Holds(env, 0.0, scratch), truth)
      << b.ToString() << " at (" << x << ", " << y << ")";
  return truth;
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

// ---- CompiledFormula ----------------------------------------------------------

// The formula's distinct atoms in first-occurrence pre-order, deduplicated
// by (expression id, relation) — the order CompiledFormula must use.
std::vector<BoolExpr> DistinctAtoms(const BoolExpr& b) {
  std::vector<BoolExpr> out;
  std::unordered_set<std::uint64_t> seen;
  for (const BoolExpr& a : CollectAtoms(b)) {
    const std::uint64_t key = (std::uint64_t{a.atom().id()} << 1) |
                              static_cast<std::uint64_t>(a.rel());
    if (seen.insert(key).second) out.push_back(a);
  }
  return out;
}

bool SameBits(double a, double b) {
  return (std::isnan(a) && std::isnan(b)) ||
         std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

// Checks `formula` at `point` against the oracle: each compiled atom's
// width-1 tape value equals the tree walk bit for bit, and Holds /
// HoldsGiven equal EvalBoolWithSlack at slack 0 and 1e-6. Returns the
// number of atom values compared.
std::size_t AuditPoint(const BoolExpr& formula, const CompiledFormula& cf,
                       const std::vector<BoolExpr>& atoms,
                       std::span<const double> point,
                       TapeBatchScratch& scratch) {
  std::vector<const double*> inputs(point.size());
  for (std::size_t v = 0; v < point.size(); ++v) inputs[v] = &point[v];
  std::vector<double> values(atoms.size());
  for (std::size_t a = 0; a < atoms.size(); ++a) {
    EvalTapeBatch(cf.atoms()[a].tape, inputs, 1, &values[a], scratch);
    const double want = oracle::EvalDouble(atoms[a].atom(), point);
    EXPECT_TRUE(SameBits(values[a], want))
        << "atom " << a << ": tape " << values[a] << ", tree " << want;
  }
  for (double slack : {0.0, 1e-6}) {
    const bool want = oracle::EvalBoolWithSlack(formula, point, slack);
    EXPECT_EQ(cf.Holds(point, slack, scratch), want) << "slack " << slack;
    EXPECT_EQ(cf.HoldsGiven(values, slack), want) << "slack " << slack;
  }
  return atoms.size();
}

TEST(CompiledFormula, DedupsAtomsInFirstOccurrencePreOrder) {
  const BoolExpr a = BoolExpr::Le(X(), C(1));
  const BoolExpr b = BoolExpr::Lt(X() * Y(), C(2));
  // Same expression as `a` under the other relation: a distinct atom.
  const BoolExpr a_lt = BoolExpr::Atom(a.atom(), Rel::kLt);
  const BoolExpr f = BoolExpr::Or(
      {BoolExpr::And({b, a}), BoolExpr::And({a, a_lt}), b});
  const CompiledFormula cf(f);
  ASSERT_EQ(cf.atoms().size(), 3u);
  EXPECT_EQ(cf.atoms()[0].rel, Rel::kLt);  // b
  EXPECT_EQ(cf.atoms()[1].rel, Rel::kLe);  // a
  EXPECT_EQ(cf.atoms()[2].rel, Rel::kLt);  // a_lt
  const CompiledFormula::Node& root = cf.skeleton();
  ASSERT_EQ(root.kind, BoolExpr::Kind::kOr);
  ASSERT_EQ(root.children.size(), 3u);
  EXPECT_EQ(root.children[0].children[0].atom, 0);
  EXPECT_EQ(root.children[0].children[1].atom, 1);
  EXPECT_EQ(root.children[1].children[0].atom, 1);
  EXPECT_EQ(root.children[1].children[1].atom, 2);
  EXPECT_EQ(root.children[2].atom, 0);
  EXPECT_TRUE(CompiledFormula(BoolExpr::True()).atoms().empty());
}

TEST(CompiledFormula, SignedZeroSumStartsFromPositiveZero) {
  // The tree seeds a sum with +0.0, so x*y + x*z at (-0, 1, 2) is +0 and
  // its reciprocal +inf; a sum that starts from its first operand gets -0
  // and -inf, and the atom below would flip.
  const Expr z = Expr::Variable("z", 2);
  const Expr e = C(1) / (X() * Y() + X() * z);
  const BoolExpr atom = BoolExpr::Atom(e, Rel::kLe);
  ASSERT_EQ(atom.kind(), BoolExpr::Kind::kAtom);
  const double point[3] = {-0.0, 1.0, 2.0};
  ASSERT_EQ(oracle::EvalDouble(e, point),
            std::numeric_limits<double>::infinity());
  const CompiledFormula cf(atom);
  TapeBatchScratch scratch;
  EXPECT_FALSE(cf.Holds(point, 0.0, scratch));
  EXPECT_TRUE(CompiledFormula(BoolExpr::Not(atom)).Holds(point, 0.0, scratch));
  EXPECT_EQ(AuditPoint(atom, cf, DistinctAtoms(atom), point, scratch), 1u);
}

// Per-axis lattice over a paper domain: both faces, interior points, and on
// a zero face also -0.0 and subnormal coordinates.
std::vector<std::vector<double>> AuditLattice(const solver::Box& domain) {
  std::vector<std::vector<double>> out;
  std::vector<std::vector<double>> axes;
  for (std::size_t d = 0; d < domain.size(); ++d) {
    const Interval& iv = domain[d];
    std::vector<double> axis{iv.lo(), iv.hi()};
    constexpr int kInterior = 4;
    for (int i = 0; i < kInterior; ++i)
      axis.push_back(iv.lo() + (i + 0.5) / kInterior * iv.Width());
    if (iv.lo() == 0.0) {
      axis.push_back(-0.0);
      axis.push_back(std::numeric_limits<double>::denorm_min());
      axis.push_back(1e-310);
    }
    axes.push_back(std::move(axis));
  }
  std::vector<double> point(axes.size());
  auto fill = [&](auto&& self, std::size_t d) -> void {
    if (d == axes.size()) {
      out.push_back(point);
      return;
    }
    for (double v : axes[d]) {
      point[d] = v;
      self(self, d + 1);
    }
  };
  fill(fill, 0);
  return out;
}

TEST(CompiledFormulaAudit, CatalogueMatchesTreeWalkBitForBit) {
  int pairs = 0;
  std::size_t compared = 0;
  TapeBatchScratch scratch;
  std::vector<functionals::Functional> catalogue =
      functionals::PaperFunctionals();
  for (const functionals::Functional& f : functionals::ExtensionFunctionals())
    catalogue.push_back(f);
  for (const functionals::Functional& f : catalogue) {
    const auto lattice = AuditLattice(conditions::PaperDomain(f));
    for (const conditions::ConditionInfo& cond :
         conditions::AllConditions()) {
      if (!conditions::Applies(cond, f)) continue;
      const auto psi = conditions::BuildCondition(cond, f);
      if (!psi.has_value()) continue;
      ++pairs;
      for (const BoolExpr& formula : {*psi, BoolExpr::Not(*psi)}) {
        SCOPED_TRACE(f.name + " " + cond.short_id + " " + formula.ToString());
        const CompiledFormula cf(formula);
        const std::vector<BoolExpr> atoms = DistinctAtoms(formula);
        ASSERT_EQ(cf.atoms().size(), atoms.size());
        for (std::size_t a = 0; a < atoms.size(); ++a)
          ASSERT_EQ(cf.atoms()[a].rel, atoms[a].rel());
        for (const std::vector<double>& p : lattice)
          compared += AuditPoint(formula, cf, atoms, p, scratch);
      }
    }
  }
  EXPECT_EQ(pairs, 45);
  EXPECT_GT(compared, 0u);
}

TEST(CompiledFormulaAudit, RandomExpressionsMatchTreeWalk) {
  testing::Rng rng(20261017);
  testing::RandomExprGen gen(rng, {X(), Y()});
  TapeBatchScratch scratch;
  const double special[] = {-0.0, 0.0, std::numeric_limits<double>::denorm_min(),
                            -1e-310, 1.0, -2.5};
  for (int trial = 0; trial < 150; ++trial) {
    const BoolExpr a = BoolExpr::Le(gen.Gen(4), C(rng.Uniform(-1.0, 1.0)));
    const BoolExpr b = BoolExpr::Lt(gen.Gen(3), gen.Gen(3));
    const BoolExpr c = BoolExpr::Atom(gen.Gen(4), Rel::kLe);
    const BoolExpr formula =
        BoolExpr::Or({BoolExpr::And({a, b}), BoolExpr::Not(c), a});
    SCOPED_TRACE(formula.ToString());
    const CompiledFormula cf(formula);
    const std::vector<BoolExpr> atoms = DistinctAtoms(formula);
    ASSERT_EQ(cf.atoms().size(), atoms.size());
    for (int k = 0; k < 12; ++k) {
      const double p[2] = {rng.Uniform(-4.0, 4.0), rng.Uniform(-4.0, 4.0)};
      AuditPoint(formula, cf, atoms, p, scratch);
    }
    for (double x : special)
      for (double y : special) {
        const double p[2] = {x, y};
        AuditPoint(formula, cf, atoms, p, scratch);
      }
  }
}

}  // namespace
}  // namespace xcv::expr
