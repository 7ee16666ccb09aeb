#include <cmath>

#include <gtest/gtest.h>

#include "expr/expr.h"
#include "functionals/functional.h"
#include "functionals/variables.h"
#include "support/check.h"
#include "test_util.h"
#include "tests/scalar_reference.h"

namespace xcv::functionals {
namespace {

double Eval3(const expr::Expr& e, double rs, double s = 0.0,
             double alpha = 1.0) {
  const double env[3] = {rs, s, alpha};
  return oracle::EvalDouble(e, std::span<const double>(env, 3));
}

TEST(Variables, CanonicalIndices) {
  EXPECT_EQ(VarRs().node().var_index(), kRsIndex);
  EXPECT_EQ(VarS().node().var_index(), kSIndex);
  EXPECT_EQ(VarAlpha().node().var_index(), kAlphaIndex);
}

TEST(Variables, DensityMatchesWignerSeitz) {
  // n = 3/(4π rs³): at rs = 1, n ≈ 0.238732.
  EXPECT_NEAR(Eval3(Density(), 1.0), 3.0 / (4.0 * M_PI), 1e-15);
  EXPECT_NEAR(Eval3(Density(), 2.0), 3.0 / (4.0 * M_PI * 8.0), 1e-15);
}

TEST(Variables, GradConsistentWithS) {
  // By construction s = |∇n|/(2 k_F n): rebuilding s from GradDensitySquared
  // must return the input s.
  const expr::Expr n = Density();
  const expr::Expr kf =
      expr::Expr::Constant(KFRsConstant()) / VarRs();
  const expr::Expr s_back =
      expr::SqrtE(GradDensitySquared()) / (2.0 * kf * n);
  for (double rs : {0.1, 1.0, 3.0})
    for (double s : {0.1, 1.0, 4.0})
      EXPECT_NEAR(Eval3(s_back, rs, s), s, 1e-12);
}

TEST(Variables, TSquaredMatchesDefinition) {
  // t² = s² k_F π/4.
  for (double rs : {0.5, 1.0, 2.0}) {
    const double kf = KFRsConstant() / rs;
    EXPECT_NEAR(Eval3(TSquared(), rs, 1.0), kf * M_PI / 4.0, 1e-12);
  }
}

TEST(LdaPieces, SlaterExchangeValue) {
  // ε_x^unif(rs=1) = -0.458165... Ha (textbook value).
  EXPECT_NEAR(Eval3(EpsXUnif(), 1.0), -0.45816529328314287, 1e-12);
  EXPECT_NEAR(Eval3(EpsXUnif(), 2.0), -0.45816529328314287 / 2.0, 1e-12);
}

TEST(LdaPieces, Pw92ReferenceValues) {
  // PW92 ζ=0 correlation energies (Perdew & Wang 1992, Table).
  EXPECT_NEAR(Eval3(EpsCPw92(), 1.0), -0.0598, 2e-4);
  EXPECT_NEAR(Eval3(EpsCPw92(), 2.0), -0.0448, 2e-4);
  EXPECT_NEAR(Eval3(EpsCPw92(), 5.0), -0.0282, 2e-4);
  // Negative and monotonically shrinking in magnitude with rs.
  double prev = Eval3(EpsCPw92(), 0.1);
  for (double rs = 0.5; rs <= 10.0; rs += 0.5) {
    const double v = Eval3(EpsCPw92(), rs);
    EXPECT_LT(v, 0.0);
    EXPECT_GT(v, prev);
    prev = v;
  }
}

TEST(Registry, ContainsAllFivePaperDfas) {
  const auto& all = PaperFunctionals();
  ASSERT_EQ(all.size(), 5u);
  EXPECT_EQ(all[0].name, "PBE");
  EXPECT_EQ(all[1].name, "LYP");
  EXPECT_EQ(all[2].name, "AM05");
  EXPECT_EQ(all[3].name, "SCAN");
  EXPECT_EQ(all[4].name, "VWN_RPA");
}

TEST(Registry, LookupIsCaseInsensitive) {
  EXPECT_NE(FindFunctional("pbe"), nullptr);
  EXPECT_NE(FindFunctional("Scan"), nullptr);
  EXPECT_NE(FindFunctional("VWN_RPA"), nullptr);
  EXPECT_EQ(FindFunctional("B3LYP"), nullptr);
}

TEST(Registry, MetadataMatchesPaper) {
  EXPECT_EQ(FindFunctional("PBE")->family, Family::kGga);
  EXPECT_EQ(FindFunctional("PBE")->design, Design::kNonEmpirical);
  EXPECT_EQ(FindFunctional("LYP")->design, Design::kEmpirical);
  EXPECT_EQ(FindFunctional("SCAN")->family, Family::kMetaGga);
  EXPECT_EQ(FindFunctional("SCAN")->num_inputs, 3);
  EXPECT_EQ(FindFunctional("VWN_RPA")->family, Family::kLda);
  EXPECT_EQ(FindFunctional("VWN_RPA")->num_inputs, 1);
}

TEST(Registry, ExchangeAvailability) {
  // LO conditions only apply to PBE, AM05, SCAN (paper §IV-A).
  EXPECT_TRUE(FindFunctional("PBE")->HasExchange());
  EXPECT_TRUE(FindFunctional("AM05")->HasExchange());
  EXPECT_TRUE(FindFunctional("SCAN")->HasExchange());
  EXPECT_FALSE(FindFunctional("LYP")->HasExchange());
  EXPECT_FALSE(FindFunctional("VWN_RPA")->HasExchange());
  EXPECT_THROW(FindFunctional("LYP")->EpsXc(), xcv::InternalError);
}

TEST(Pbe, ExchangeEnhancementClosedForm) {
  const auto& pbe = *FindFunctional("PBE");
  const double kappa = 0.804, mu = 0.2195149727645171;
  for (double s : {0.0, 0.5, 1.0, 3.0, 5.0}) {
    const double fx = 1.0 + kappa - kappa / (1.0 + mu * s * s / kappa);
    EXPECT_NEAR(Eval3(pbe.eps_x, 1.0, s) / Eval3(EpsXUnif(), 1.0), fx,
                1e-12);
  }
}

TEST(Pbe, CorrelationReducesToPw92AtZeroGradient) {
  const auto& pbe = *FindFunctional("PBE");
  for (double rs : {0.2, 1.0, 4.0})
    EXPECT_NEAR(Eval3(pbe.eps_c, rs, 0.0), Eval3(EpsCPw92(), rs), 1e-10);
}

TEST(Pbe, CorrelationVanishesAtLargeGradient) {
  const auto& pbe = *FindFunctional("PBE");
  // H cancels ε_c^PW92 as t → ∞; ε_c → 0 from below.
  const double v = Eval3(pbe.eps_c, 1.0, 5.0);
  EXPECT_LT(v, 0.0);
  EXPECT_GT(v, -2e-3);
}

TEST(Pbe, CorrelationStaysNonPositive) {
  // PBE is constructed to satisfy Ec non-positivity (Table I: no ✗).
  const auto& pbe = *FindFunctional("PBE");
  for (double rs = 0.1; rs <= 5.0; rs += 0.35)
    for (double s = 0.0; s <= 5.0; s += 0.35)
      EXPECT_LE(Eval3(pbe.eps_c, rs, s), 1e-15) << rs << " " << s;
}

TEST(Lyp, NegativeAtSmallGradientPositiveAtLarge) {
  const auto& lyp = *FindFunctional("LYP");
  EXPECT_LT(Eval3(lyp.eps_c, 1.0, 0.0), 0.0);
  // The paper (Fig. 2d) reports EC1 counterexamples around s > 1.66.
  EXPECT_GT(Eval3(lyp.eps_c, 1.0, 2.5), 0.0);
}

TEST(Lyp, MagnitudeAtUniformDensity) {
  // Closed-shell LYP at rs=1, s=0 is about -0.039 Ha (smaller than PW92:
  // LYP underestimates uniform-gas correlation).
  const auto& lyp = *FindFunctional("LYP");
  const double v = Eval3(lyp.eps_c, 1.0, 0.0);
  EXPECT_NEAR(v, -0.0394, 2e-3);
  EXPECT_GT(v, Eval3(EpsCPw92(), 1.0));
}

TEST(Am05, ExchangeIsLdaAtZeroGradient) {
  const auto& am05 = *FindFunctional("AM05");
  for (double rs : {0.5, 1.0, 3.0})
    EXPECT_NEAR(Eval3(am05.eps_x, rs, 0.0) / Eval3(EpsXUnif(), rs), 1.0,
                1e-9);
}

TEST(Am05, ExchangeEnhancementGrowsWithGradient) {
  const auto& am05 = *FindFunctional("AM05");
  double prev = 1.0;
  for (double s = 0.5; s <= 5.0; s += 0.5) {
    const double fx = Eval3(am05.eps_x, 1.0, s) / Eval3(EpsXUnif(), 1.0);
    EXPECT_GT(fx, prev - 1e-9) << "s=" << s;
    prev = fx;
  }
}

TEST(Am05, CorrelationInterpolatesPw92) {
  const auto& am05 = *FindFunctional("AM05");
  // s = 0: X = 1, full PW92. s → ∞: X → 0, γ-scaled PW92.
  EXPECT_NEAR(Eval3(am05.eps_c, 1.0, 0.0), Eval3(EpsCPw92(), 1.0), 1e-10);
  const double scaled = Eval3(am05.eps_c, 1.0, 100.0);
  EXPECT_NEAR(scaled, 0.8098 * Eval3(EpsCPw92(), 1.0), 1e-4);
}

TEST(Vwn, RpaParameterization) {
  const auto& vwn = *FindFunctional("VWN_RPA");
  // RPA overshoots the true correlation energy: |ε_c^RPA| > |ε_c^PW92|.
  for (double rs : {0.5, 1.0, 2.0, 5.0}) {
    const double v = Eval3(vwn.eps_c, rs);
    EXPECT_LT(v, 0.0);
    EXPECT_LT(v, Eval3(EpsCPw92(), rs));
  }
  // Known value of the VWN RPA fit at rs = 1 (≈ -0.0793 Ha).
  EXPECT_NEAR(Eval3(vwn.eps_c, 1.0), -0.0793, 5e-4);
}

TEST(Scan, ReducesToKnownLimits) {
  const auto& scan = *FindFunctional("SCAN");
  // F_x(s=0, α=1) = 1 (uniform gas norm).
  EXPECT_NEAR(Eval3(scan.eps_x, 1.0, 0.0, 1.0) / Eval3(EpsXUnif(), 1.0),
              1.0, 1e-5);
  // F_x(s=0, α=0) = h0x = 1.174 (single-orbital limit).
  EXPECT_NEAR(Eval3(scan.eps_x, 1.0, 0.0, 0.0) / Eval3(EpsXUnif(), 1.0),
              1.174, 1e-5);
  // ε_c(s=0, α=1) = PW92 (slowly-varying norm).
  for (double rs : {0.5, 1.0, 2.0})
    EXPECT_NEAR(Eval3(scan.eps_c, rs, 0.0, 1.0), Eval3(EpsCPw92(), rs),
                1e-7);
}

TEST(Scan, CorrelationNonPositiveOnSamples) {
  // SCAN is built to satisfy EC1 (even though the verifier cannot prove it
  // within budget — that is the point of the paper's SCAN row).
  const auto& scan = *FindFunctional("SCAN");
  for (double rs : {0.2, 1.0, 4.0})
    for (double s : {0.0, 1.0, 3.0})
      for (double alpha : {0.0, 0.5, 1.0, 2.0, 5.0})
        EXPECT_LE(Eval3(scan.eps_c, rs, s, alpha), 1e-12)
            << rs << " " << s << " " << alpha;
}

TEST(Scan, AlphaSwitchIsContinuousEnough) {
  // f(α) jumps only in derivative at α = 1; values approach 0 either side.
  const auto& scan = *FindFunctional("SCAN");
  const double below = Eval3(scan.eps_c, 1.0, 1.0, 1.0 - 1e-7);
  const double at = Eval3(scan.eps_c, 1.0, 1.0, 1.0);
  const double above = Eval3(scan.eps_c, 1.0, 1.0, 1.0 + 1e-7);
  EXPECT_NEAR(below, at, 1e-5);
  EXPECT_NEAR(above, at, 1e-5);
}

TEST(Scan, ImplementationFormMatchesComplexityClaim) {
  // Paper §I: SCAN has over 1000 operations in the LibXC implementation.
  const auto& scan = *FindFunctional("SCAN");
  EXPECT_GT(expr::OpCountTree(scan.eps_x) + expr::OpCountTree(scan.eps_c),
            1000u);
}

TEST(ComplexityOrdering, MatchesPaperNarrative) {
  // LDA < GGA < meta-GGA in implementation size.
  const auto& vwn = *FindFunctional("VWN_RPA");
  const auto& pbe = *FindFunctional("PBE");
  const auto& scan = *FindFunctional("SCAN");
  const std::size_t vwn_ops = expr::OpCountTree(vwn.eps_c);
  const std::size_t pbe_ops = expr::OpCountTree(pbe.eps_c);
  const std::size_t scan_ops = expr::OpCountTree(scan.eps_c);
  EXPECT_LT(vwn_ops, pbe_ops);
  EXPECT_LT(pbe_ops, scan_ops);
}

TEST(FamilyNames, Readable) {
  EXPECT_EQ(FamilyName(Family::kLda), "LDA");
  EXPECT_EQ(FamilyName(Family::kGga), "GGA");
  EXPECT_EQ(FamilyName(Family::kMetaGga), "meta-GGA");
  EXPECT_EQ(DesignName(Design::kEmpirical), "empirical");
  EXPECT_EQ(DesignName(Design::kNonEmpirical), "non-empirical");
}

}  // namespace
}  // namespace xcv::functionals
