// Figure 1: PBE region maps for Ec non-positivity (EC1), the Lieb-Oxford
// extension (EC5) and the conjectured Tc upper bound (EC7) — PB grid on
// top (panels a-c), verifier partition below (panels d-f).
#include <cstdio>

#include "common.h"
#include "report/ascii_plot.h"

int main() {
  using namespace xcv;
  bench::PrintHeader(
      "Figure 1 — PBE: regions satisfying/violating conditions",
      "paper Fig. 1 (panels a-f)");

  const auto& pbe = *functionals::FindFunctional("PBE");
  const auto v_options = bench::BenchOptions();
  const auto pb_options = bench::BenchPbOptions();
  const char* panels[][3] = {
      {"EC1", "a", "d"}, {"EC5", "b", "e"}, {"EC7", "c", "f"}};

  for (const auto& panel : panels) {
    const auto& cond = *conditions::FindCondition(panel[0]);
    std::fprintf(stderr, "[fig1] %s...\n", panel[0]);

    std::printf("--- Fig. 1%s: %s with PB grid search ---\n", panel[1],
                cond.name.c_str());
    const auto pb = gridsearch::RunPbCheck(pbe, cond, pb_options);
    std::printf("%s", report::PlotPbGrid(*pb).c_str());
    std::printf("violating grid fraction: %.4f\n\n",
                pb->violation_fraction);

    std::printf("--- Fig. 1%s: %s with the verifier ---\n", panel[2],
                cond.name.c_str());
    const auto run = bench::RunPair(pbe, cond, v_options);
    std::printf("%s", report::PlotRegions(
                          run.report, conditions::PaperDomain(pbe))
                          .c_str());
    using verifier::RegionStatus;
    std::printf(
        "verdict: %s | verified %.3f, counterexample %.3f, inconclusive "
        "%.3f, timeout %.3f (volume fractions)\n\n",
        verifier::VerdictSymbol(run.verdict).c_str(),
        run.report.VolumeFraction(RegionStatus::kVerified),
        run.report.VolumeFraction(RegionStatus::kCounterexample),
        run.report.VolumeFraction(RegionStatus::kInconclusive),
        run.report.VolumeFraction(RegionStatus::kTimeout));
  }
  std::printf(
      "Paper reference: EC1 verified for rs > 0.94 with slivers along the "
      "s-axis;\nEC5 verified everywhere; EC7 has a counterexample region "
      "covering the\nupper-left diagonal with an inconclusive border.\n");
  return 0;
}
