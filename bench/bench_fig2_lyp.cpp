// Figure 2: LYP region maps for Ec non-positivity (EC1), the Ec scaling
// inequality (EC2) and the Tc upper bound (EC6) — PB grid on top (panels
// a-c), verifier partition below (panels d-f).
#include <cstdio>

#include "common.h"
#include "report/ascii_plot.h"

int main() {
  using namespace xcv;
  bench::PrintHeader(
      "Figure 2 — LYP: regions satisfying/violating conditions",
      "paper Fig. 2 (panels a-f)");

  const auto& lyp = *functionals::FindFunctional("LYP");
  const auto v_options = bench::BenchOptions();
  const auto pb_options = bench::BenchPbOptions();
  const char* panels[][3] = {
      {"EC1", "a", "d"}, {"EC2", "b", "e"}, {"EC6", "c", "f"}};

  for (const auto& panel : panels) {
    const auto& cond = *conditions::FindCondition(panel[0]);
    std::fprintf(stderr, "[fig2] %s...\n", panel[0]);

    std::printf("--- Fig. 2%s: %s with PB grid search ---\n", panel[1],
                cond.name.c_str());
    const auto pb = gridsearch::RunPbCheck(lyp, cond, pb_options);
    std::printf("%s", report::PlotPbGrid(*pb).c_str());
    if (pb->any_violation) {
      std::printf("violations inside rs %s, s %s (%.4f of grid)\n\n",
                  pb->violation_bounds[0].ToString().c_str(),
                  pb->violation_bounds[1].ToString().c_str(),
                  pb->violation_fraction);
    } else {
      std::printf("no violations found\n\n");
    }

    std::printf("--- Fig. 2%s: %s with the verifier ---\n", panel[2],
                cond.name.c_str());
    const auto run = bench::RunPair(lyp, cond, v_options);
    std::printf("%s", report::PlotRegions(
                          run.report, conditions::PaperDomain(lyp))
                          .c_str());
    using verifier::RegionStatus;
    std::printf(
        "verdict: %s | verified %.3f, counterexample %.3f, inconclusive "
        "%.3f, timeout %.3f | %zu witnesses\n\n",
        verifier::VerdictSymbol(run.verdict).c_str(),
        run.report.VolumeFraction(RegionStatus::kVerified),
        run.report.VolumeFraction(RegionStatus::kCounterexample),
        run.report.VolumeFraction(RegionStatus::kInconclusive),
        run.report.VolumeFraction(RegionStatus::kTimeout),
        run.report.witnesses.size());
  }
  std::printf(
      "Paper reference: EC1 counterexamples at s > 1.6563; EC2 at rs < 2.5 "
      "and\ns > 1.4844; EC6 in a small region at rs > 4.8437, s > 2.4219.\n");
  return 0;
}
