// Quickstart: verify one exact condition for one functional.
//
// Runs a one-pair campaign — the same engine `xcv verify` and the Table I
// bench drive — checking Ec non-positivity (EC1) for PBE over the paper's
// input domain, and prints the verdict, the region partition, and an ASCII
// map. Runs in a few seconds.
#include <cstdio>

#include "campaign/campaign.h"
#include "conditions/conditions.h"
#include "functionals/functional.h"
#include "report/ascii_plot.h"
#include "verifier/verifier.h"

int main() {
  using namespace xcv;

  // 1. Pick a functional and a condition from the registries.
  const functionals::Functional& pbe = *functionals::FindFunctional("PBE");
  const conditions::ConditionInfo& ec1 =
      *conditions::FindCondition("EC1");
  std::printf("Functional: %s (%s, %s)\n", pbe.name.c_str(),
              functionals::FamilyName(pbe.family).c_str(),
              functionals::DesignName(pbe.design).c_str());
  std::printf("Condition:  %s\n\n", ec1.name.c_str());

  // 2. Configure Algorithm 1 with a small budget. The campaign encodes the
  // condition (the XCEncoder step) and runs the domain splitting on the
  // shared scheduler.
  campaign::CampaignOptions options;
  options.verifier.split_threshold = 0.3125;   // paper uses t = 0.05
  options.verifier.solver.max_nodes = 30'000;  // per-call budget
  options.verifier.solver.time_budget_seconds = 0.5;
  options.verifier.total_time_budget_seconds = 8.0;
  options.verifier.num_threads = 2;

  campaign::Campaign campaign(options);
  campaign.Add(pbe, ec1);
  const campaign::CampaignResult result = campaign.Run();
  const verifier::VerificationReport& report = result.pairs[0].report;

  // 3. Inspect the result.
  std::printf("Verdict: %s (%s)\n",
              verifier::VerdictSymbol(result.pairs[0].verdict).c_str(),
              verifier::VerdictName(result.pairs[0].verdict).c_str());
  using verifier::RegionStatus;
  std::printf("Verified %.1f%%, counterexample %.1f%%, inconclusive %.1f%%, "
              "timeout %.1f%% of the domain volume\n",
              100 * report.VolumeFraction(RegionStatus::kVerified),
              100 * report.VolumeFraction(RegionStatus::kCounterexample),
              100 * report.VolumeFraction(RegionStatus::kInconclusive),
              100 * report.VolumeFraction(RegionStatus::kTimeout));
  std::printf("%llu solver calls, %zu leaf regions, %.2f s\n\n",
              static_cast<unsigned long long>(report.solver_calls),
              report.leaves.size(), result.seconds);
  std::printf("%s",
              report::PlotRegions(report, conditions::PaperDomain(pbe))
                  .c_str());
  return 0;
}
