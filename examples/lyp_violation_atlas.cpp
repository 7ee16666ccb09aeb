// LYP violation atlas: the paper's headline qualitative result is that the
// empirical LYP functional violates *every* applicable exact condition
// (Table I row LYP, Fig. 2). This example runs all seven conditions as ONE
// campaign (the subdomains of every pair interleave on the shared pool),
// prints a violation atlas with concrete witness points, and cross-checks
// each witness by plugging it back into the condition.
#include <cstdio>

#include "campaign/campaign.h"
#include "conditions/conditions.h"
#include "expr/bool_expr.h"
#include "functionals/functional.h"
#include "verifier/verifier.h"

int main() {
  using namespace xcv;
  const auto& lyp = *functionals::FindFunctional("LYP");
  std::printf("LYP (Lee-Yang-Parr 1988): empirical GGA correlation.\n");
  std::printf("Paper Table I: counterexamples for ALL applicable "
              "conditions.\n\n");

  campaign::CampaignOptions options;
  options.verifier.split_threshold = 0.3125;
  options.verifier.solver.max_nodes = 30'000;
  options.verifier.solver.time_budget_seconds = 0.5;
  options.verifier.solver.max_invalid_models = 512;
  options.verifier.total_time_budget_seconds = 15.0;
  options.verifier.num_threads = 2;

  campaign::Campaign campaign(options);
  for (const auto& cond : conditions::AllConditions()) campaign.Add(lyp, cond);
  const auto result = campaign.Run();

  int violated = 0, applicable = 0;
  for (const auto& pair : result.pairs) {
    const auto& cond = *conditions::FindCondition(pair.condition);
    if (!pair.applicable) {
      std::printf("%-5s %-40s  − (needs an exchange part)\n",
                  cond.short_id.c_str(), cond.name.c_str());
      continue;
    }
    ++applicable;
    const bool ce = pair.verdict == verifier::Verdict::kCounterexample;
    violated += ce ? 1 : 0;
    std::printf("%-5s %-40s  %s", cond.short_id.c_str(), cond.name.c_str(),
                verifier::VerdictSymbol(pair.verdict).c_str());
    if (ce) {
      const auto& w = pair.report.witnesses.front();
      std::printf("  witness: rs=%.4f s=%.4f", w[0], w[1]);
      // Independent re-check: the witness must violate ψ under plain
      // IEEE double evaluation of the exact formula.
      const expr::CompiledFormula psi(*conditions::BuildCondition(cond, lyp));
      expr::TapeBatchScratch scratch;
      const bool still_violates = !psi.Holds(w, 0.0, scratch);
      std::printf("  (re-validated: %s)", still_violates ? "yes" : "NO!");
    }
    std::printf("\n");
  }
  std::printf("\n%d of %d applicable conditions violated (%.1fs total).\n",
              violated, applicable, result.seconds);
  std::printf(
      "\nWhy LYP fails EC1 at large s: the Miehlich gradient form has a\n"
      "positive |grad n|^2 term; beyond s ~ 1.66 it overwhelms the negative\n"
      "local term and the correlation energy density turns positive.\n");
  return 0;
}
