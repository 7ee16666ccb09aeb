#include <cmath>

#include <gtest/gtest.h>

#include "conditions/conditions.h"
#include "conditions/enhancement.h"
#include "functionals/functional.h"
#include "functionals/variables.h"
#include "test_util.h"
#include "tests/scalar_reference.h"

namespace xcv::conditions {
namespace {

using functionals::FindFunctional;
using functionals::Functional;

double Eval3(const expr::Expr& e, double rs, double s = 0.0,
             double alpha = 1.0) {
  const double env[3] = {rs, s, alpha};
  return oracle::EvalDouble(e, std::span<const double>(env, 3));
}

TEST(Enhancement, FcSignMirrorsEpsC) {
  // F_c = ε_c/ε_x^unif with ε_x^unif < 0: F_c >= 0 iff ε_c <= 0 (EC1's two
  // phrasings, paper Eqs. 3 and 4).
  const auto& lyp = *FindFunctional("LYP");
  const expr::Expr fc = CorrelationEnhancement(lyp);
  for (double rs : {0.5, 1.0, 3.0})
    for (double s : {0.0, 1.0, 2.5}) {
      const double eps = Eval3(lyp.eps_c, rs, s);
      const double f = Eval3(fc, rs, s);
      EXPECT_EQ(eps <= 0.0, f >= 0.0) << rs << " " << s;
    }
}

TEST(Enhancement, FxOfPbeMatchesClosedForm) {
  const auto& pbe = *FindFunctional("PBE");
  const expr::Expr fx = ExchangeEnhancement(pbe);
  const double kappa = 0.804, mu = 0.2195149727645171;
  for (double s : {0.0, 1.0, 2.0})
    EXPECT_NEAR(Eval3(fx, 1.7, s),
                1.0 + kappa - kappa / (1.0 + mu * s * s / kappa), 1e-12);
}

TEST(Enhancement, XcIsSumOfParts) {
  const auto& pbe = *FindFunctional("PBE");
  const expr::Expr fxc = XcEnhancement(pbe);
  const expr::Expr fx = ExchangeEnhancement(pbe);
  const expr::Expr fc = CorrelationEnhancement(pbe);
  for (double rs : {0.5, 2.0})
    for (double s : {0.0, 1.5})
      EXPECT_NEAR(Eval3(fxc, rs, s), Eval3(fx, rs, s) + Eval3(fc, rs, s),
                  1e-12);
}

TEST(Enhancement, DerivativesMatchFiniteDifferences) {
  for (const char* name : {"PBE", "LYP", "AM05", "VWN_RPA"}) {
    const auto& f = *FindFunctional(name);
    const expr::Expr fc = CorrelationEnhancement(f);
    const expr::Expr dfc = DFcDrs(f);
    const expr::Expr d2fc = D2FcDrs2(f);
    for (double rs : {0.5, 1.5, 4.0}) {
      for (double s : {0.3, 2.0}) {
        const double fd =
            xcv::testing::FiniteDifference(fc, {rs, s, 1.0}, 0, 1e-6);
        EXPECT_NEAR(Eval3(dfc, rs, s), fd,
                    1e-4 * std::max(1.0, std::fabs(fd)))
            << name << " rs=" << rs << " s=" << s;
        const double fd2 =
            xcv::testing::FiniteDifference(dfc, {rs, s, 1.0}, 0, 1e-6);
        EXPECT_NEAR(Eval3(d2fc, rs, s), fd2,
                    1e-3 * std::max(1.0, std::fabs(fd2)))
            << name << " rs=" << rs << " s=" << s;
      }
    }
  }
}

TEST(Enhancement, FcAtInfinityHasNoRsDependence) {
  const auto& pbe = *FindFunctional("PBE");
  const expr::Expr fc_inf = FcAtInfinity(pbe);
  for (const expr::Expr& v : expr::FreeVariables(fc_inf))
    EXPECT_NE(v.node().var_index(), functionals::kRsIndex);
  // And equals F_c evaluated at rs = 100.
  const expr::Expr fc = CorrelationEnhancement(pbe);
  for (double s : {0.2, 1.0, 3.0})
    EXPECT_NEAR(Eval3(fc_inf, 55.0, s), Eval3(fc, 100.0, s), 1e-12);
}

TEST(Catalog, SevenConditionsInTableOrder) {
  const auto& all = AllConditions();
  ASSERT_EQ(all.size(), 7u);
  EXPECT_EQ(all[0].short_id, "EC1");
  EXPECT_EQ(all[1].short_id, "EC2");
  EXPECT_EQ(all[2].short_id, "EC3");
  EXPECT_EQ(all[3].short_id, "EC6");
  EXPECT_EQ(all[4].short_id, "EC7");
  EXPECT_EQ(all[5].short_id, "EC4");
  EXPECT_EQ(all[6].short_id, "EC5");
}

TEST(Catalog, LookupByShortId) {
  EXPECT_NE(FindCondition("EC1"), nullptr);
  EXPECT_NE(FindCondition("ec7"), nullptr);
  EXPECT_EQ(FindCondition("EC9"), nullptr);
}

TEST(Catalog, DerivativeOrders) {
  EXPECT_EQ(FindCondition("EC1")->derivative_order, 0);
  EXPECT_EQ(FindCondition("EC2")->derivative_order, 1);
  EXPECT_EQ(FindCondition("EC3")->derivative_order, 2);
  EXPECT_EQ(FindCondition("EC5")->derivative_order, 0);
}

TEST(Applicability, ThirtyOnePairs) {
  // 5 DFAs x 7 conditions - 2 LO conditions x 2 correlation-only DFAs = 31.
  int applicable = 0;
  for (const auto& f : functionals::PaperFunctionals())
    for (const auto& c : AllConditions())
      if (Applies(c, f)) ++applicable;
  EXPECT_EQ(applicable, 31);
}

TEST(Applicability, LoNeedsExchange) {
  const auto& lyp = *FindFunctional("LYP");
  const auto& pbe = *FindFunctional("PBE");
  EXPECT_FALSE(Applies(*FindCondition("EC4"), lyp));
  EXPECT_FALSE(Applies(*FindCondition("EC5"), lyp));
  EXPECT_TRUE(Applies(*FindCondition("EC4"), pbe));
  EXPECT_TRUE(Applies(*FindCondition("EC1"), lyp));
}

TEST(BuildCondition, ReturnsNulloptForInapplicable) {
  const auto& vwn = *FindFunctional("VWN_RPA");
  EXPECT_FALSE(BuildCondition(*FindCondition("EC5"), vwn).has_value());
  EXPECT_TRUE(BuildCondition(*FindCondition("EC1"), vwn).has_value());
}

TEST(BuildCondition, Ec1AgreesWithEpsCSign) {
  const auto& lyp = *FindFunctional("LYP");
  const auto psi = *BuildCondition(*FindCondition("EC1"), lyp);
  for (double rs : {0.5, 1.0, 4.0})
    for (double s : {0.0, 1.0, 2.0, 3.0}) {
      const double env[2] = {rs, s};
      const bool holds = oracle::EvalBool(psi, std::span<const double>(env, 2));
      EXPECT_EQ(holds, Eval3(lyp.eps_c, rs, s) <= 0.0) << rs << " " << s;
    }
}

TEST(BuildCondition, Ec5AgreesWithClosedForm) {
  const auto& pbe = *FindFunctional("PBE");
  const auto psi = *BuildCondition(*FindCondition("EC5"), pbe);
  const expr::Expr fxc = XcEnhancement(pbe);
  for (double rs : {0.5, 2.0})
    for (double s : {0.0, 2.0, 5.0}) {
      const double env[2] = {rs, s};
      const bool holds = oracle::EvalBool(psi, std::span<const double>(env, 2));
      EXPECT_EQ(holds, Eval3(fxc, rs, s) <= kLiebOxford);
    }
}

TEST(BuildCondition, Ec7MatchesResidualForm) {
  // ψ_EC7: rs·∂F_c/∂rs - F_c ≤ 0.
  const auto& pbe = *FindFunctional("PBE");
  const auto psi = *BuildCondition(*FindCondition("EC7"), pbe);
  const expr::Expr fc = CorrelationEnhancement(pbe);
  const expr::Expr dfc = DFcDrs(pbe);
  for (double rs : {0.5, 1.0, 3.0})
    for (double s : {0.5, 2.0, 4.0}) {
      const double env[2] = {rs, s};
      const bool holds = oracle::EvalBool(psi, std::span<const double>(env, 2));
      const double residual =
          rs * Eval3(dfc, rs, s) - Eval3(fc, rs, s);
      EXPECT_EQ(holds, residual <= 0.0) << rs << " " << s;
    }
}

TEST(BuildCondition, Ec6UsesInfinityLimit) {
  const auto& vwn = *FindFunctional("VWN_RPA");
  const auto psi = *BuildCondition(*FindCondition("EC6"), vwn);
  const expr::Expr fc = CorrelationEnhancement(vwn);
  const expr::Expr dfc = DFcDrs(vwn);
  for (double rs : {0.5, 1.0, 3.0}) {
    const double env[1] = {rs};
    const bool holds = oracle::EvalBool(psi, std::span<const double>(env, 1));
    const double fc_inf = Eval3(fc, 100.0);
    const double residual =
        rs * Eval3(dfc, rs) - (fc_inf - Eval3(fc, rs));
    EXPECT_EQ(holds, residual <= 0.0) << rs;
  }
}

TEST(PaperDomains, MatchFunctionalArity) {
  EXPECT_EQ(PaperDomain(*FindFunctional("VWN_RPA")).size(), 1u);
  EXPECT_EQ(PaperDomain(*FindFunctional("PBE")).size(), 2u);
  EXPECT_EQ(PaperDomain(*FindFunctional("SCAN")).size(), 3u);
  const auto box = PaperDomain(*FindFunctional("PBE"));
  EXPECT_DOUBLE_EQ(box[0].lo(), 1e-4);
  EXPECT_DOUBLE_EQ(box[0].hi(), 5.0);
  EXPECT_DOUBLE_EQ(box[1].lo(), 0.0);
  EXPECT_DOUBLE_EQ(box[1].hi(), 5.0);
}

TEST(KnownViolations, LypViolatesEveryApplicableCondition) {
  // The paper's strongest qualitative finding (Table I row LYP: all ✗).
  // Check a concrete violating point exists for each applicable condition.
  const auto& lyp = *FindFunctional("LYP");
  for (const auto& cond : AllConditions()) {
    if (!Applies(cond, lyp)) continue;
    const auto psi = *BuildCondition(cond, lyp);
    bool violated = false;
    // EC6's violation region is a small corner at rs > 4.84, s > 2.42
    // (paper Fig. 2f), so the sweep must reach close to rs = 5.
    for (double rs = 0.2; rs <= 4.99 && !violated; rs += 0.0995)
      for (double s = 0.1; s <= 5.0 && !violated; s += 0.1) {
        const double env[2] = {rs, s};
        if (!oracle::EvalBool(psi, std::span<const double>(env, 2)))
          violated = true;
      }
    EXPECT_TRUE(violated) << "no violation found for " << cond.short_id;
  }
}

TEST(KnownViolations, PbeViolatesOnlyConjecturedTcBound) {
  // Table I PBE column: ✗ only for EC7.
  const auto& pbe = *FindFunctional("PBE");
  for (const auto& cond : AllConditions()) {
    const auto psi = *BuildCondition(cond, pbe);
    bool violated = false;
    double where_rs = 0, where_s = 0;
    for (double rs = 0.05; rs <= 5.0 && !violated; rs += 0.1)
      for (double s = 0.05; s <= 5.0 && !violated; s += 0.1) {
        const double env[2] = {rs, s};
        if (!oracle::EvalBool(psi, std::span<const double>(env, 2))) {
          violated = true;
          where_rs = rs;
          where_s = s;
        }
      }
    if (cond.short_id == "EC7") {
      EXPECT_TRUE(violated);
      // Paper Fig. 1f: the counterexample region covers the upper-left
      // diagonal (small rs, larger s).
      EXPECT_LT(where_rs, 2.5);
    } else {
      EXPECT_FALSE(violated) << cond.short_id << " violated at rs="
                             << where_rs << " s=" << where_s;
    }
  }
}

TEST(KnownViolations, VwnSatisfiesEverything) {
  const auto& vwn = *FindFunctional("VWN_RPA");
  for (const auto& cond : AllConditions()) {
    if (!Applies(cond, vwn)) continue;
    const auto psi = *BuildCondition(cond, vwn);
    for (double rs = 0.05; rs <= 5.0; rs += 0.05) {
      const double env[1] = {rs};
      EXPECT_TRUE(oracle::EvalBool(psi, std::span<const double>(env, 1)))
          << cond.short_id << " violated at rs=" << rs;
    }
  }
}

}  // namespace
}  // namespace xcv::conditions
