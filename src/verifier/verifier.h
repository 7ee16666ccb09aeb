// Algorithm 1 of the paper: recursive domain splitting around the
// delta-SAT solver.
//
// For a local condition ψ and domain D, the solver is asked for a model of
// φ_D ∧ ¬ψ:
//   UNSAT             → ψ holds everywhere on D: leaf "verified".
//   delta-SAT + valid → genuine violation: witness recorded, and D is still
//                       split to isolate the violating subregions.
//   delta-SAT invalid → "inconclusive" (the delta-weakening artifact), split.
//   timeout           → split, budget permitting.
// Recursion stops when a subdomain's widest side would drop below the
// threshold t (the paper uses t = 0.05).
//
// The recursion tree is embarrassingly parallel; with num_threads > 1 the
// subdomains are processed in batches as prioritized tasks on the
// process-wide priority scheduler (ThreadPool::Global), capped at
// num_threads concurrent batches. The task-graph engine behind Run and its
// one driver loop (RunEngines) live in engine.h and are shared with the
// campaign layer (src/campaign/), which interleaves many (functional,
// condition) pairs on the same pool.
#pragma once

#include <limits>

#include "expr/bool_expr.h"
#include "solver/icp.h"
#include "verifier/region.h"

namespace xcv::verifier {

/// Ordering of the open-subdomain frontier (see engine.h). Priorities only
/// change the order boxes are processed in, never the final partition of a
/// budget-free run — but under a wall-clock budget they decide what gets
/// decided before the money runs out.
enum class FrontierStrategy {
  /// Widest box first: breadth-first coverage, the best anytime behaviour
  /// (the whole domain is covered coarsely before any region is refined).
  kWidestFirst,
  /// Widest-first, but boxes containing a delta-sat model of the parent
  /// (counterexample suspects from DeltaSolver presampling/search) jump
  /// the queue, so violations are isolated early.
  kSuspectFirst,
  /// Submission order (the historical BFS deque; ablation baseline).
  kFifo,
};

/// Upper bound on VerifierOptions::num_threads at every input boundary
/// (flags, job specs, checkpoints): the shared pool starts that many workers
/// and never shrinks.
inline constexpr int kMaxThreads = 256;

struct VerifierOptions {
  /// Minimum subdomain width t (Algorithm 1 line 1). Children that would be
  /// narrower than this are not split further; the leaf keeps the parent's
  /// last solver verdict.
  double split_threshold = 0.05;
  /// Per-solver-call budget (the paper's per-call dReal timeout).
  solver::SolverOptions solver;
  /// Overall processing-time budget for the run, in seconds of this pair's
  /// own (busy) solver/split time; once spent, remaining subdomains are
  /// recorded as timeouts without solving. Busy time equals wall time for a
  /// sequential stand-alone run, and stays fair when many pairs interleave
  /// on the shared pool or a checkpointed pair resumes (the clock carries
  /// over). With num_threads > 1 the budget is consumed up to num_threads
  /// times faster than the wall clock.
  double total_time_budget_seconds =
      std::numeric_limits<double>::infinity();
  /// Worker threads for the recursion (1 = sequential Algorithm 1), at
  /// most kMaxThreads; a campaign's cap across all its pairs.
  int num_threads = 1;
  /// Split every dimension in two (2^d children, the paper's split) when
  /// true; split only the widest dimension when false (ablation).
  bool split_all_dims = true;
  /// A delta-sat model only counts as a counterexample when it violates ψ
  /// by more than this margin. Plays the same role as the PB grid check's
  /// pass tolerance: near-boundary floating-point noise (e.g. SCAN
  /// residuals of ~1e-9 at rs → 0, cf. the paper's §VI-C numerical-issues
  /// discussion) must not be reported as violations of the mathematical
  /// condition. 0 restores Algorithm 1's exact valid(x).
  double witness_tolerance = 1e-6;
  /// Ordering of the open-subdomain frontier.
  FrontierStrategy frontier = FrontierStrategy::kWidestFirst;
};

/// Verifies one local condition over a domain.
class Verifier {
 public:
  /// `psi` is the local condition ψ; the solver decides ¬ψ.
  Verifier(expr::BoolExpr psi, VerifierOptions options);

  /// Runs Algorithm 1 on `domain` and returns the region partition. The
  /// report is canonically ordered (leaves by box bounds, witnesses
  /// lexicographically), so budget-free runs are byte-identical for every
  /// num_threads.
  VerificationReport Run(const solver::Box& domain) const;

  const expr::BoolExpr& psi() const { return psi_; }
  const VerifierOptions& options() const { return options_; }

 private:
  expr::BoolExpr psi_;
  VerifierOptions options_;
};

}  // namespace xcv::verifier
