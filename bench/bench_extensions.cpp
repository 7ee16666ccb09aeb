// Extension study (paper §VI-A): the SCAN → rSCAN progression.
//
// The paper closes by proposing the regularized-SCAN family as a test case:
// functionals redesigned for numerical stability with varying exact-
// condition adherence. This bench compares SCAN and rSCAN head-to-head —
// implementation size, enclosure quality across the α-switch, and verifier
// progress per condition — plus PBE vs PBEsol as a same-form/different-
// coefficients control.
#include <cstdio>

#include "common.h"
#include "expr/compile.h"

int main() {
  using namespace xcv;
  bench::PrintHeader(
      "Extensions — SCAN vs rSCAN (regularization) and PBE vs PBEsol",
      "paper Section VI-A future-work directions");

  const auto& scan = *functionals::FindFunctional("SCAN");
  const auto& rscan = *functionals::FindFunctional("rSCAN");

  std::printf("Implementation size (tree ops, eps_x + eps_c):\n");
  std::printf("  SCAN : %zu\n",
              expr::OpCountTree(scan.eps_x) + expr::OpCountTree(scan.eps_c));
  std::printf("  rSCAN: %zu\n\n", expr::OpCountTree(rscan.eps_x) +
                                       expr::OpCountTree(rscan.eps_c));

  // Enclosure width across the α-switch: rSCAN's polynomial switch avoids
  // the exp(c/(1-α)) blow-up when a box straddles α = 1.
  expr::TapeIntervalBatchScratch scratch;
  const auto t_scan = expr::Compile(scan.eps_c);
  const auto t_rscan = expr::Compile(rscan.eps_c);
  std::printf("eps_c enclosure width on rs=[1,1.05], s=[0.5,0.55], "
              "alpha=[0.95,1.05]:\n");
  {
    std::vector<Interval> box{Interval(1.0, 1.05), Interval(0.5, 0.55),
                              Interval(0.95, 1.05)};
    const Interval a = expr::EvalTapeInterval(t_scan, box, scratch);
    const Interval b = expr::EvalTapeInterval(t_rscan, box, scratch);
    std::printf("  SCAN : width %.3g\n", a.Width());
    std::printf("  rSCAN: width %.3g\n\n", b.Width());
  }

  // Verifier progress per condition under the same budget.
  const auto options = bench::BenchVerifierOptions();
  std::printf("Verifier verdicts at the bench budget:\n");
  std::printf("%-6s %10s %10s    %10s %10s\n", "cond", "SCAN", "decided%",
              "rSCAN", "decided%");
  for (const auto& cond : conditions::AllConditions()) {
    const auto run_scan = bench::RunPair(scan, cond, options);
    const auto run_rscan = bench::RunPair(rscan, cond, options);
    using verifier::RegionStatus;
    auto decided = [](const bench::PairRun& r) {
      return 100.0 *
             (r.report.VolumeFraction(RegionStatus::kVerified) +
              r.report.VolumeFraction(RegionStatus::kCounterexample));
    };
    std::printf("%-6s %10s %9.1f%%    %10s %9.1f%%\n",
                cond.short_id.c_str(),
                verifier::VerdictSymbol(run_scan.verdict).c_str(),
                decided(run_scan),
                verifier::VerdictSymbol(run_rscan.verdict).c_str(),
                decided(run_rscan));
  }

  // Control: PBEsol keeps PBE's functional form.
  const auto& pbe = *functionals::FindFunctional("PBE");
  const auto& sol = *functionals::FindFunctional("PBEsol");
  std::printf("\nControl — PBE vs PBEsol (same form, restored gradient "
              "coefficients):\n");
  for (const char* cid : {"EC1", "EC5", "EC7"}) {
    const auto& cond = *conditions::FindCondition(cid);
    const auto run_pbe = bench::RunPair(pbe, cond, options);
    const auto run_sol = bench::RunPair(sol, cond, options);
    std::printf("  %-4s PBE %-3s  PBEsol %-3s\n", cid,
                verifier::VerdictSymbol(run_pbe.verdict).c_str(),
                verifier::VerdictSymbol(run_sol.verdict).c_str());
  }
  return 0;
}
