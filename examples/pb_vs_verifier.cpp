// PB grid search vs formal verification, side by side (the paper's RQ2).
//
// For PBE x EC7 (the pair where both methods find violations), runs the
// Pederson-Burke numerical check and the verifier on the same condition and
// prints the two region maps plus the consistency classification — one cell
// of Table II, end to end.
#include <cstdio>

#include "api/job_spec.h"
#include "campaign/campaign.h"
#include "conditions/conditions.h"
#include "functionals/functional.h"
#include "gridsearch/pb_checker.h"
#include "report/ascii_plot.h"
#include "report/consistency.h"
#include "verifier/verifier.h"

int main() {
  using namespace xcv;
  const auto& pbe = *functionals::FindFunctional("PBE");
  const auto& ec7 = *conditions::FindCondition("EC7");
  std::printf("Pair: PBE x %s\n\n", ec7.name.c_str());

  // --- The PB approach: dense grid, numerical derivatives ---
  gridsearch::PbOptions pb_options;
  pb_options.n_rs = 150;
  pb_options.n_s = 150;
  const auto pb = *gridsearch::RunPbCheck(pbe, ec7, pb_options);
  std::printf("[PB grid %zux%zu, numerical d/d_rs, tolerance %.0e]\n",
              pb_options.n_rs, pb_options.n_s, pb_options.tolerance);
  std::printf("%s", report::PlotPbGrid(pb).c_str());
  std::printf("violations: %s, %.2f%% of grid points\n\n",
              pb.any_violation ? "yes" : "no",
              100.0 * pb.violation_fraction);

  // --- The verifier: symbolic derivatives, delta-SAT, domain splitting,
  // run as a one-pair campaign on the shared scheduler ---
  campaign::CampaignOptions options = api::DefaultJobSpec().options;
  options.verifier.total_time_budget_seconds = 12.0;
  options.verifier.num_threads = 2;
  campaign::Campaign campaign(options);
  campaign.Add(pbe, ec7);
  const auto result = campaign.Run();
  const auto& report = result.pairs[0].report;
  const auto domain = conditions::PaperDomain(pbe);
  std::printf("[verifier: symbolic d/d_rs, delta-SAT + Algorithm 1]\n");
  std::printf("%s", report::PlotRegions(report, domain).c_str());
  std::printf("verdict: %s, %zu validated witnesses\n\n",
              verifier::VerdictName(report.Summarize()).c_str(),
              report.witnesses.size());

  // --- Consistency (one Table II cell) ---
  const auto consistency = report::Compare(pb, report);
  std::printf("Table II cell: %s\n",
              report::ConsistencySymbol(consistency).c_str());
  std::printf(
      "\nKey difference: PB can only sample; hatched cells are grid points "
      "that\nfailed numerically. The verifier partitions the domain with "
      "*proofs* on the\nverified leaves and validated witnesses in the "
      "counterexample leaves.\n");
  return 0;
}
