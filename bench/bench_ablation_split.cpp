// Ablation for the paper's §III-B claim: "This simple [domain-splitting]
// strategy greatly improves the performance of VERIFIER."
//
// Runs the same PBE conditions (a) as one monolithic solver call with the
// whole pair budget and (b) through Algorithm 1's recursive splitting, and
// compares how much of the domain gets decided.
#include <cstdio>

#include "common.h"
#include "solver/icp.h"

int main() {
  using namespace xcv;
  bench::PrintHeader(
      "Ablation — domain splitting on/off (Algorithm 1 vs one solver call)",
      "paper Section III-B performance claim");

  const auto& pbe = *functionals::FindFunctional("PBE");
  const auto options = bench::BenchOptions();

  std::printf("%-10s | %-28s | %-34s\n", "condition",
              "single call (whole budget)", "with domain splitting");
  std::printf("%-10s | %-28s | %-34s\n", "", "result        nodes",
              "decided%%  verified%%  counterex%%");
  for (const char* cid : {"EC1", "EC2", "EC5", "EC7"}) {
    const auto& cond = *conditions::FindCondition(cid);
    const auto psi = *conditions::BuildCondition(cond, pbe);
    const auto domain = conditions::PaperDomain(pbe);

    // (a) single monolithic call.
    solver::SolverOptions mono;
    mono.time_budget_seconds = options.verifier.total_time_budget_seconds;
    mono.max_nodes = 100'000'000;  // wall clock is the limit
    solver::DeltaSolver solver(expr::BoolExpr::Not(psi), mono);
    const auto single = solver.Check(domain);

    // (b) Algorithm 1.
    const auto run = bench::RunPair(pbe, cond, options);
    using verifier::RegionStatus;
    const double verified =
        run.report.VolumeFraction(RegionStatus::kVerified);
    const double counter =
        run.report.VolumeFraction(RegionStatus::kCounterexample);
    std::printf("%-10s | %-13s %8llu      | %8.1f %10.1f %11.1f\n", cid,
                solver::SatKindName(single.kind).c_str(),
                static_cast<unsigned long long>(single.stats.nodes),
                100.0 * (verified + counter), 100.0 * verified,
                100.0 * counter);
  }
  std::printf(
      "\nReading: a single solver call either finds one delta-sat point or "
      "gives up;\nit can never label subregions. Splitting turns the same "
      "budget into a\npartition with verified and counterexample areas — "
      "the paper's motivation\nfor Algorithm 1.\n");
  return 0;
}
