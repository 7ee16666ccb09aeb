// Ablation: sensitivity of verdicts and inconclusive area to the solver
// precision delta (dReal's delta-weakening knob). Smaller delta shrinks the
// inconclusive slivers at condition boundaries but costs nodes.
#include <cstdio>

#include "common.h"

int main() {
  using namespace xcv;
  bench::PrintHeader(
      "Ablation — delta sweep (weakening precision vs inconclusive area)",
      "dReal delta-weakening semantics (paper Section III-B)");

  struct Case {
    const char* functional;
    const char* condition;
  };
  const Case cases[] = {{"VWN_RPA", "EC7"}, {"LYP", "EC1"}, {"PBE", "EC1"}};
  const double deltas[] = {1e-1, 1e-2, 1e-3, 1e-4};

  std::printf("%-9s %-5s %8s | %8s %8s %8s %8s %8s\n", "DFA", "cond",
              "delta", "verdict", "verif%", "incon%", "tout%", "calls");
  for (const auto& c : cases) {
    const auto& f = *functionals::FindFunctional(c.functional);
    const auto& cond = *conditions::FindCondition(c.condition);
    for (double delta : deltas) {
      auto options = bench::BenchOptions();
      options.verifier.solver.delta = delta;
      const auto run = bench::RunPair(f, cond, options);
      using verifier::RegionStatus;
      std::printf("%-9s %-5s %8.0e | %8s %8.2f %8.2f %8.2f %8llu\n",
                  c.functional, c.condition, delta,
                  verifier::VerdictSymbol(run.verdict).c_str(),
                  100.0 * run.report.VolumeFraction(RegionStatus::kVerified),
                  100.0 * run.report.VolumeFraction(
                              RegionStatus::kInconclusive),
                  100.0 * run.report.VolumeFraction(RegionStatus::kTimeout),
                  static_cast<unsigned long long>(run.report.solver_calls));
    }
    std::printf("\n");
  }
  std::printf(
      "Reading: delta trades inconclusive area against solver effort; the "
      "headline\nverdicts (✓/✗) are stable across the sweep, as they should "
      "be for a\ndelta-complete procedure.\n");
  return 0;
}
