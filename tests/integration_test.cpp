// End-to-end flows across the whole stack: XCLang → expressions →
// conditions → solver → verifier → PB comparison → report rendering.
#include <cmath>

#include <gtest/gtest.h>

#include "conditions/conditions.h"
#include "conditions/enhancement.h"
#include "functionals/functional.h"
#include "functionals/variables.h"
#include "gridsearch/pb_checker.h"
#include "lang/parser.h"
#include "report/ascii_plot.h"
#include "report/consistency.h"
#include "report/tables.h"
#include "verifier/verifier.h"
#include "tests/scalar_reference.h"

namespace xcv {
namespace {

using expr::BoolExpr;
using expr::Expr;

verifier::VerifierOptions BenchScale() {
  verifier::VerifierOptions o;
  o.split_threshold = 0.35;
  o.solver.max_nodes = 30'000;
  o.solver.time_budget_seconds = 1.0;
  o.total_time_budget_seconds = 15.0;
  return o;
}

TEST(Integration, XclangPbeExchangeMatchesBuiltin) {
  // Feed the PBE exchange functional through the XCLang front end (the
  // XCEncoder path) and compare against the native builder on a grid.
  lang::Bindings bindings{{"rs", functionals::VarRs()},
                          {"s", functionals::VarS()}};
  const Expr parsed = lang::ParseProgram(R"(
    # epsilon_x^PBE in (rs, s)
    let kappa = 0.804;
    let mu = 0.2195149727645171;
    let cx = 0.75 * cbrt(9 / (4 * pi * pi));
    def fx(t) = 1 + kappa - kappa / (1 + mu * t^2 / kappa);
    (0 - cx) / rs * fx(s)
  )", bindings);
  const auto& pbe = *functionals::FindFunctional("PBE");
  for (double rs : {0.2, 1.0, 3.7})
    for (double s : {0.0, 0.9, 4.2}) {
      const double env[2] = {rs, s};
      std::span<const double> sp(env, 2);
      EXPECT_NEAR(oracle::EvalDouble(parsed, sp),
                  oracle::EvalDouble(pbe.eps_x, sp), 1e-12);
    }
}

TEST(Integration, XclangConditionVerifiedEndToEnd) {
  // Define a toy "functional" in XCLang, build a condition on it, verify.
  lang::Bindings bindings{{"rs", functionals::VarRs()},
                          {"s", functionals::VarS()}};
  const Expr eps = lang::ParseExpression("0 - 1 / (1 + rs) - s^2 / 100",
                                         bindings);
  // eps <= 0 everywhere on the domain: a verifier must prove it.
  verifier::Verifier v(BoolExpr::Le(eps, Expr::Constant(0.0)), BenchScale());
  auto report = v.Run(solver::Box({Interval(1e-4, 5.0), Interval(0.0, 5.0)}));
  EXPECT_EQ(report.Summarize(), verifier::Verdict::kVerified);
}

TEST(Integration, MiniTable1) {
  // A 2x2 corner of Table I: {EC1, EC7} x {LYP, VWN RPA}, with the
  // paper's verdicts: LYP ✗ / ✗, VWN ✓ / ✓(*).
  struct Want {
    const char* functional;
    const char* condition;
    bool expect_ce;
  };
  const Want wants[] = {{"LYP", "EC1", true},
                        {"LYP", "EC7", true},
                        {"VWN_RPA", "EC1", false},
                        {"VWN_RPA", "EC7", false}};
  for (const auto& w : wants) {
    const auto& f = *functionals::FindFunctional(w.functional);
    const auto psi =
        *conditions::BuildCondition(*conditions::FindCondition(w.condition),
                                    f);
    verifier::Verifier v(psi, BenchScale());
    auto report = v.Run(conditions::PaperDomain(f));
    if (w.expect_ce) {
      EXPECT_EQ(report.Summarize(), verifier::Verdict::kCounterexample)
          << w.functional << " " << w.condition;
    } else {
      EXPECT_NE(report.Summarize(), verifier::Verdict::kCounterexample)
          << w.functional << " " << w.condition;
      EXPECT_GT(report.VolumeFraction(verifier::RegionStatus::kVerified),
                0.5)
          << w.functional << " " << w.condition;
    }
  }
}

TEST(Integration, WitnessesAreGenuineViolations) {
  // Every witness the verifier reports must violate the condition under
  // plain double evaluation — across a mix of pairs.
  for (const char* fname : {"LYP", "PBE"}) {
    const auto& f = *functionals::FindFunctional(fname);
    const auto psi =
        *conditions::BuildCondition(*conditions::FindCondition("EC7"), f);
    verifier::Verifier v(psi, BenchScale());
    auto report = v.Run(conditions::PaperDomain(f));
    for (const auto& w : report.witnesses)
      EXPECT_FALSE(oracle::EvalBool(psi, w)) << fname;
  }
}

TEST(Integration, PbAndVerifierAgreeOnLypEc1) {
  // Table II row 1, column LYP: J (consistent counterexample regions).
  const auto& lyp = *functionals::FindFunctional("LYP");
  const auto& cond = *conditions::FindCondition("EC1");
  gridsearch::PbOptions pb_opts;
  pb_opts.n_rs = 80;
  pb_opts.n_s = 80;
  const auto pb = gridsearch::RunPbCheck(lyp, cond, pb_opts);
  ASSERT_TRUE(pb.has_value());
  const auto psi = *conditions::BuildCondition(cond, lyp);
  verifier::Verifier v(psi, BenchScale());
  auto report = v.Run(conditions::PaperDomain(lyp));
  EXPECT_EQ(report::Compare(pb, report), report::Consistency::kConsistent);
}

TEST(Integration, PbAndVerifierNotInconsistentOnVwn) {
  const auto& vwn = *functionals::FindFunctional("VWN_RPA");
  const auto& cond = *conditions::FindCondition("EC1");
  gridsearch::PbOptions pb_opts;
  pb_opts.n_rs = 200;
  const auto pb = gridsearch::RunPbCheck(vwn, cond, pb_opts);
  const auto psi = *conditions::BuildCondition(cond, vwn);
  verifier::Verifier v(psi, BenchScale());
  auto report = v.Run(conditions::PaperDomain(vwn));
  EXPECT_EQ(report::Compare(pb, report),
            report::Consistency::kNotInconsistent);
}

TEST(Integration, RegionPlotShowsLypViolationAtHighS) {
  const auto& lyp = *functionals::FindFunctional("LYP");
  const auto psi =
      *conditions::BuildCondition(*conditions::FindCondition("EC1"), lyp);
  verifier::Verifier v(psi, BenchScale());
  const auto domain = conditions::PaperDomain(lyp);
  auto report = v.Run(domain);
  const std::string plot = report::PlotRegions(report, domain);
  // Top rows (high s) contain counterexample cells; bottom row is verified.
  const auto first_row_end = plot.find('\n');
  const std::string first_row = plot.substr(0, first_row_end);
  EXPECT_NE(first_row.find('#'), std::string::npos);
}

TEST(Integration, FullTableRenderingSmoke) {
  // Render a Table I/II pair from real (tiny-budget) runs without crashing
  // and with all cells filled.
  std::vector<std::string> rows, cols;
  std::vector<std::vector<report::VerdictCell>> verdicts;
  std::vector<std::vector<report::Consistency>> consistency;
  const char* fns[] = {"LYP", "VWN_RPA"};
  const char* ecs[] = {"EC1", "EC5"};
  for (const char* ec : ecs) {
    rows.push_back(ec);
    verdicts.emplace_back();
    consistency.emplace_back();
    for (const char* fn : fns) {
      const auto& f = *functionals::FindFunctional(fn);
      const auto& cond = *conditions::FindCondition(ec);
      auto psi = conditions::BuildCondition(cond, f);
      if (!psi) {
        verdicts.back().push_back({verifier::Verdict::kNotApplicable});
        consistency.back().push_back(report::Consistency::kNotApplicable);
        continue;
      }
      verifier::VerifierOptions opts = BenchScale();
      opts.total_time_budget_seconds = 5.0;
      verifier::Verifier v(*psi, opts);
      auto rep = v.Run(conditions::PaperDomain(f));
      verdicts.back().push_back({rep.Summarize()});
      gridsearch::PbOptions pb_opts;
      pb_opts.n_rs = 40;
      pb_opts.n_s = 40;
      consistency.back().push_back(
          report::Compare(gridsearch::RunPbCheck(f, cond, pb_opts), rep));
    }
  }
  cols = {"LYP", "VWN_RPA"};
  const std::string t1 = report::RenderTable1(rows, cols, verdicts);
  const std::string t2 = report::RenderTable2(rows, cols, consistency);
  EXPECT_NE(t1.find("EC1"), std::string::npos);
  EXPECT_NE(t2.find("EC1"), std::string::npos);
  // LYP EC5 is not applicable: the − symbol must appear in both tables.
  EXPECT_NE(t1.find("−"), std::string::npos);
  EXPECT_NE(t2.find("−"), std::string::npos);
}

}  // namespace
}  // namespace xcv
