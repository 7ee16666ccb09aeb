// Table I: verifying the seven local conditions for the five DFAs.
//
// The whole matrix runs as ONE campaign: every applicable pair's subdomains
// interleave on the shared priority scheduler (XCV_THREADS workers, no
// per-pair thread pools), and the verdicts print with the paper's legend
// (✓ / ✓* / ? / ✗ / −), followed by coverage fractions per pair.
#include <cstdio>
#include <vector>

#include "common.h"
#include "report/tables.h"

int main() {
  using namespace xcv;
  bench::PrintHeader(
      "Table I — verifier verdicts per local condition and DFA",
      "paper Table I (Section IV-B)");

  const auto& functionals = functionals::PaperFunctionals();
  const auto& conditions = conditions::AllConditions();

  const auto runs = bench::RunMatrix(functionals, conditions,
                                     bench::BenchOptions(), "table1");

  std::vector<std::string> rows, cols;
  for (const auto& f : functionals) cols.push_back(f.name);
  for (const auto& cond : conditions) rows.push_back(cond.name);
  std::vector<std::vector<report::VerdictCell>> cells;
  for (const auto& row : runs) {
    cells.emplace_back();
    for (const auto& run : row) cells.back().push_back({run.verdict});
  }

  std::printf("%s\n", report::RenderTable1(rows, cols, cells).c_str());

  std::printf("Per-pair detail (fractions of domain volume):\n");
  std::printf("%-10s %-9s %8s %8s %8s %8s %6s %9s\n", "condition", "DFA",
              "verified", "counter", "inconcl", "timeout", "calls", "secs");
  for (std::size_t r = 0; r < runs.size(); ++r) {
    for (std::size_t c = 0; c < runs[r].size(); ++c) {
      const auto& run = runs[r][c];
      if (!run.applicable) continue;
      using verifier::RegionStatus;
      std::printf("%-10s %-9s %8.3f %8.3f %8.3f %8.3f %6llu %9.2f\n",
                  conditions[r].short_id.c_str(),
                  functionals[c].name.c_str(),
                  run.report.VolumeFraction(RegionStatus::kVerified),
                  run.report.VolumeFraction(RegionStatus::kCounterexample),
                  run.report.VolumeFraction(RegionStatus::kInconclusive),
                  run.report.VolumeFraction(RegionStatus::kTimeout),
                  static_cast<unsigned long long>(run.report.solver_calls),
                  run.seconds);
    }
  }
  std::printf(
      "\nPaper Table I for comparison (✓ verified, ✓* partial, ? unknown, "
      "✗ counterexample, − n/a):\n"
      "  EC1: PBE ✓*  LYP ✗  AM05 ✓   SCAN ?  VWN ✓\n"
      "  EC2: PBE ✓*  LYP ✗  AM05 ✓*  SCAN ?  VWN ✓\n"
      "  EC3: PBE ?   LYP ✗  AM05 ?   SCAN ?  VWN ✓\n"
      "  EC6: PBE ✓*  LYP ✗  AM05 ✓   SCAN ?  VWN ✓\n"
      "  EC7: PBE ✗   LYP ✗  AM05 ✓*  SCAN ?  VWN ✓*\n"
      "  EC4: PBE ✓*  LYP −  AM05 ?   SCAN ?  VWN −\n"
      "  EC5: PBE ✓   LYP −  AM05 ?   SCAN ?  VWN −\n");
  return 0;
}
