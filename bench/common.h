// Shared driver for the reproduction benchmarks.
//
// Scaling: the paper ran dReal with a 2-hour per-call limit and split down
// to t = 0.05; a full Table I at that scale is a multi-day run. The bench
// binaries reproduce the *shape* (verdicts, violation regions, who times
// out) at the defaults of `xcv verify` (api::DefaultJobSpec), which complete
// in minutes on one core. Environment overrides, each parsed as the `xcv`
// flag it names (a bad value exits 2 with that flag's message):
//   XCV_PAIR_SECONDS     --budget-seconds: budget per DFA-condition pair
//                        (def 10; 0 = unlimited)
//   XCV_SPLIT_THRESHOLD  --split-threshold: Algorithm 1 threshold t
//   XCV_SOLVER_NODES     --solver-nodes: per-solver-call node budget
//   XCV_WAVE_WIDTH       --wave-width: boxes per lockstep solver call
//   XCV_THREADS          --threads: campaign workers on the shared pool
//   XCV_CACHE            --cache's default: a persistent verdict cache;
//                        repeated runs replay decided boxes (same reports)
//   XCV_PB_GRID          (no flag) PB baseline grid points per axis, an
//                        integer in [2, 1000] (150); a bad value exits 2
//
// All verification runs go through the campaign engine (src/campaign/):
// RunPair is a one-pair campaign, RunMatrix interleaves a whole matrix of
// pairs on the shared scheduler.
#pragma once

#include <string>
#include <vector>

#include "campaign/campaign.h"
#include "conditions/conditions.h"
#include "functionals/functional.h"
#include "gridsearch/pb_checker.h"
#include "verifier/verifier.h"

namespace xcv::bench {

/// Bench-scale campaign options: api::DefaultJobSpec() with the XCV_*
/// overrides applied as flags (see header comment). Exits 2 on a bad value.
campaign::CampaignOptions BenchOptions();

/// Bench-scale PB options: XCV_PB_GRID points per rs and s axis. Exits 2
/// on a bad value.
gridsearch::PbOptions BenchPbOptions();

/// Result of one DFA-condition pair run.
struct PairRun {
  bool applicable = false;
  verifier::Verdict verdict = verifier::Verdict::kNotApplicable;
  verifier::VerificationReport report;
  double seconds = 0.0;
};

/// Runs Algorithm 1 for one pair under `options` (a one-pair campaign).
PairRun RunPair(const functionals::Functional& f,
                const conditions::ConditionInfo& cond,
                const campaign::CampaignOptions& options);

/// Runs the full cross product as one campaign on the shared pool. Returns
/// runs[condition][functional] in the given orders. Progress streams to
/// stderr as "[tag] COND x DFA: verdict".
std::vector<std::vector<PairRun>> RunMatrix(
    const std::vector<functionals::Functional>& functionals,
    const std::vector<conditions::ConditionInfo>& conditions,
    const campaign::CampaignOptions& options, const char* progress_tag);

/// Banner line used by all bench binaries; it shows the BenchOptions() in
/// force and checks BenchPbOptions(), so a bad override stops the binary
/// here, before any output or work.
void PrintHeader(const std::string& title, const std::string& paper_ref);

}  // namespace xcv::bench
