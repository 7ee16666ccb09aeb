// The SCAN wall (paper §VI-A): why every SCAN condition times out.
//
// Demonstrates the three ingredients measured on this repo's SCAN
// implementation-form build:
//   1. sheer size (>1000 operations, nested exp/log),
//   2. the piecewise alpha-switch at alpha = 1 (interval hulls blow up),
//   3. the meta-GGA input round-trip through (n, sigma, tau), which
//      decorrelates the interval dependencies.
// Then runs EC1 at increasing budgets to show the timeout behaviour is not
// a budget artifact — doubling the budget barely moves decided volume.
#include <cstdio>

#include "api/job_spec.h"
#include "conditions/conditions.h"
#include "conditions/enhancement.h"
#include "expr/compile.h"
#include "functionals/functional.h"
#include "verifier/verifier.h"

int main() {
  using namespace xcv;
  const auto& scan = *functionals::FindFunctional("SCAN");
  const auto& pbe = *functionals::FindFunctional("PBE");

  std::printf("1) Size: SCAN eps_xc has %zu tree ops (PBE: %zu)\n",
              expr::OpCountTree(scan.EpsXc()),
              expr::OpCountTree(pbe.EpsXc()));

  // 2) Interval blow-up across the alpha switch.
  expr::TapeIntervalBatchScratch scratch;
  const auto tape = expr::Compile(scan.eps_c);
  auto enclose = [&](double alo, double ahi) {
    std::vector<Interval> box{Interval(1.0, 1.2), Interval(0.5, 0.7),
                              Interval(alo, ahi)};
    return expr::EvalTapeInterval(tape, box, scratch);
  };
  std::printf("\n2) eps_c enclosure on rs=[1,1.2], s=[0.5,0.7]:\n");
  std::printf("   alpha=[0.4,0.6] (below switch): %s\n",
              enclose(0.4, 0.6).ToString().c_str());
  std::printf("   alpha=[0.9,1.1] (straddling):   %s\n",
              enclose(0.9, 1.1).ToString().c_str());
  std::printf("   alpha=[1.4,1.6] (above switch): %s\n",
              enclose(1.4, 1.6).ToString().c_str());

  // 3) Budget sweep on EC1.
  std::printf("\n3) EC1 verification at growing budgets:\n");
  std::printf("   %-10s %10s %10s %10s\n", "budget(s)", "verified%",
              "timeout%", "calls");
  for (double budget : {2.0, 4.0, 8.0, 16.0}) {
    verifier::VerifierOptions options = api::DefaultJobSpec().options.verifier;
    options.total_time_budget_seconds = budget;
    const auto psi = *conditions::BuildCondition(
        *conditions::FindCondition("EC1"), scan);
    verifier::Verifier v(psi, options);
    const auto report = v.Run(conditions::PaperDomain(scan));
    using verifier::RegionStatus;
    std::printf("   %-10.0f %10.2f %10.2f %10llu\n", budget,
                100 * report.VolumeFraction(RegionStatus::kVerified),
                100 * report.VolumeFraction(RegionStatus::kTimeout),
                static_cast<unsigned long long>(report.solver_calls));
  }
  std::printf(
      "\nPaper: 'XCVERIFIER times out for all of the conditions [of SCAN]', "
      "even\nwith the domain reduced 32x — the same wall this build hits.\n");
  return 0;
}
