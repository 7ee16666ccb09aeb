// Shared driver for the reproduction benchmarks.
//
// Scaling: the paper ran dReal with a 2-hour per-call limit and split down
// to t = 0.05; a full Table I at that scale is a multi-day run. The bench
// binaries reproduce the *shape* (verdicts, violation regions, who times
// out) at a budget that completes in minutes on one core. Environment
// overrides:
//   XCV_PAIR_SECONDS     processing-time budget per DFA-condition pair
//                        (def 10; 0 = unlimited; equals wall time for a
//                        sequential stand-alone pair)
//   XCV_SPLIT_THRESHOLD  Algorithm 1 threshold t (default 0.3125)
//   XCV_SOLVER_NODES     per-solver-call node budget (default 30000)
//   XCV_WAVE_WIDTH       solver boxes per batched interval sweep and per
//                        lockstep solver call (default 8)
//   XCV_PB_GRID          PB baseline grid points per axis (default 150)
//   XCV_THREADS          campaign workers on the shared pool (default 1)
//   XCV_CACHE            persistent verdict-cache file (default: none);
//                        repeated runs replay decided boxes instead of
//                        re-solving — identical reports, less wall time
//
// All verification runs go through the campaign engine (src/campaign/):
// RunPair is a one-pair campaign, RunMatrix interleaves a whole matrix of
// pairs on the shared scheduler.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "campaign/campaign.h"
#include "conditions/conditions.h"
#include "functionals/functional.h"
#include "gridsearch/pb_checker.h"
#include "verifier/verifier.h"

namespace xcv::bench {

/// Bench-scale verifier options (env-overridable, see header comment).
verifier::VerifierOptions BenchVerifierOptions();

/// Bench-scale PB options.
gridsearch::PbOptions BenchPbOptions();

/// XCV_THREADS (default 1).
int BenchNumThreads();

/// Result of one DFA-condition pair run.
struct PairRun {
  bool applicable = false;
  verifier::Verdict verdict = verifier::Verdict::kNotApplicable;
  verifier::VerificationReport report;
  double seconds = 0.0;
};

/// Runs Algorithm 1 for one pair under the bench budget (a one-pair
/// campaign; options.num_threads workers).
PairRun RunPair(const functionals::Functional& f,
                const conditions::ConditionInfo& cond,
                const verifier::VerifierOptions& options);

/// Runs the full cross product as one campaign on the shared pool with
/// `num_threads` workers. Returns runs[condition][functional] in the given
/// orders. Progress streams to stderr as "[tag] COND x DFA: verdict".
std::vector<std::vector<PairRun>> RunMatrix(
    const std::vector<functionals::Functional>& functionals,
    const std::vector<conditions::ConditionInfo>& conditions,
    const verifier::VerifierOptions& options, int num_threads,
    const char* progress_tag);

/// Reads a non-negative double from the environment, or returns `fallback`
/// when the variable is unset or unparseable. 0 is a valid value (e.g.
/// XCV_PAIR_SECONDS=0 means an unlimited budget).
double EnvOr(const char* name, double fallback);

/// EnvOr for knobs where 0 is meaningless (thresholds, grid sizes, node
/// budgets, thread counts): non-positive values fall back.
double EnvOrPositive(const char* name, double fallback);

/// Banner line used by all bench binaries.
void PrintHeader(const std::string& title, const std::string& paper_ref);

}  // namespace xcv::bench
