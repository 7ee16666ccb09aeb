// Table II: consistency between the Pederson-Burke grid search and the
// verifier, per DFA-condition pair (J / J* / ? / −). The verifier side runs
// as one campaign on the shared pool; the PB side stays a plain grid sweep.
#include <cstdio>
#include <vector>

#include "common.h"
#include "report/consistency.h"
#include "report/tables.h"

int main() {
  using namespace xcv;
  bench::PrintHeader(
      "Table II — PB grid search vs verifier consistency",
      "paper Table II (Section IV-C)");

  const auto pb_options = bench::BenchPbOptions();
  const auto& functionals = functionals::PaperFunctionals();
  const auto& conditions = conditions::AllConditions();

  const auto runs = bench::RunMatrix(functionals, conditions,
                                     bench::BenchOptions(), "table2");

  std::vector<std::string> rows, cols;
  for (const auto& f : functionals) cols.push_back(f.name);
  std::vector<std::vector<report::Consistency>> cells;

  for (std::size_t r = 0; r < conditions.size(); ++r) {
    rows.push_back(conditions[r].name);
    cells.emplace_back();
    for (std::size_t c = 0; c < functionals.size(); ++c) {
      std::fprintf(stderr, "[table2] PB grid %s x %s...\n",
                   conditions[r].short_id.c_str(),
                   functionals[c].name.c_str());
      const auto pb =
          gridsearch::RunPbCheck(functionals[c], conditions[r], pb_options);
      cells.back().push_back(report::Compare(pb, runs[r][c].report));
    }
  }

  std::printf("%s\n", report::RenderTable2(rows, cols, cells).c_str());
  std::printf(
      "Paper Table II for comparison:\n"
      "  EC1: PBE J*  LYP J  AM05 J*  SCAN ?  VWN J*\n"
      "  EC2: PBE J*  LYP J  AM05 J*  SCAN ?  VWN J*\n"
      "  EC3: PBE ?   LYP J  AM05 ?   SCAN ?  VWN J*\n"
      "  EC6: PBE J*  LYP J  AM05 J*  SCAN ?  VWN J*\n"
      "  EC7: PBE J   LYP J  AM05 J*  SCAN ?  VWN J*\n"
      "  EC4: PBE J*  LYP −  AM05 ?   SCAN ?  VWN −\n"
      "  EC5: PBE J*  LYP −  AM05 ?   SCAN ?  VWN −\n");
  return 0;
}
