// Task-graph engine for Algorithm 1.
//
// One PairEngine owns the verification of a single (ψ, domain) pair,
// decomposed into box tasks on a prioritized open frontier. The engine does
// no threading of its own: RunEngines pulls work with ProcessNext(), which
// pops a batch of the best open boxes, decides them in one lockstep solver
// call, and records each as a leaf or pushes its children back onto the
// frontier. This factors the old Verifier::Run internals
// (RunContext/ProcessBox/SplitBox) into a form that many pairs can share:
// Verifier::Run runs one engine through RunEngines; a campaign
// (src/campaign/) runs dozens through the same loop.
//
// Concurrency: ProcessNext is safe to call from many threads. Bookkeeping
// (frontier, in-flight set, report) lives behind one mutex taken exactly
// twice per processed batch — once to claim, once to record the outcomes —
// while the solver call itself runs unlocked; solver-call counters are
// atomics. Because in-flight boxes are tracked, Snapshot() can produce a
// consistent (report, open frontier) pair at any moment, which is what
// campaign checkpoints serialize.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <utility>
#include <vector>

#include "expr/bool_expr.h"
#include "solver/icp.h"
#include "support/stopwatch.h"
#include "verifier/verifier.h"

namespace xcv::verifier {

/// Priority of an open box under `strategy`. `suspect` marks a box that
/// contains a delta-sat model of its parent (a counterexample suspect);
/// `seq` is the engine-local submission counter (FIFO tie-break).
double FrontierPriority(FrontierStrategy strategy,
                        std::span<const Interval> box, bool suspect,
                        std::uint64_t seq);
inline double FrontierPriority(FrontierStrategy strategy,
                               const solver::Box& box, bool suspect,
                               std::uint64_t seq) {
  return FrontierPriority(strategy, box.dims(), suspect, seq);
}

/// Consistent mid-run snapshot (what a checkpoint serializes): the leaves
/// and witnesses recorded so far plus every box still open or in flight.
struct EngineSnapshot {
  VerificationReport report;
  std::vector<solver::Box> open;
};

/// One (ψ, domain) verification in progress.
class PairEngine {
 public:
  PairEngine(expr::BoolExpr psi, VerifierOptions options);

  PairEngine(const PairEngine&) = delete;
  PairEngine& operator=(const PairEngine&) = delete;

  /// Called once per pool ticket the engine hands out; RunEngines' pool
  /// path submits one scheduler task per call, and the task calls
  /// ProcessNext. The engine counts its queued tickets:
  /// after every frontier change (Seed, Restore, EmitTicketsForOpen, a
  /// recorded batch, a requeue after cancel) it hands out tickets until
  /// queued × wave_width ≥ open boxes, each at the frontier's top
  /// priority. A ticket is spent when its ProcessNext starts, also when it
  /// finds the frontier empty or the cancel flag set; every ticket claims
  /// up to wave_width boxes, so no open box is left without one. Pass
  /// nullptr to clear (the count resets). Boxes already open when the sink
  /// is installed get no ticket until the next frontier change;
  /// EmitTicketsForOpen() covers them.
  void SetTicketSink(std::function<void(double priority)> sink);

  /// Hands out tickets for the open frontier by the rule above (driver
  /// start-up after Seed/Restore happened before the sink was installed).
  void EmitTicketsForOpen();

  /// Enqueues the root domain.
  void Seed(const solver::Box& domain);

  /// Resumes from a checkpoint: previously recorded partial report plus the
  /// open frontier saved with it. The budget clock carries over (the
  /// restored report's seconds count against total_time_budget_seconds).
  void Restore(VerificationReport partial, std::vector<solver::Box> open);

  /// Claims the best open boxes, up to the solver's wave_width, and
  /// decides them in one lockstep DeltaSolver::CheckMany call, recording
  /// each box as a leaf or splitting it. RunEngines' one-thread loop and
  /// its pool tickets both call it, so every interval wave runs near full
  /// on either path. Verdicts are the same for every batch size: each box's
  /// decision is independent of its batch-mates. With a verdict cache, the
  /// same call revalidates the batch's hits and re-solves the rejected ones
  /// (see CheckMany); the engine only counts hits, misses and rejections
  /// from the results. The per-pair budget is checked once per batch, and
  /// the batch's wall time adds to the busy clock. Returns false when
  /// nothing was processed: the frontier is empty, or `cancel` is set.
  /// Cancellation leaves the frontier intact for
  /// Snapshot()/TakeOpenFrontier(): the solver checks the flag between
  /// lockstep rounds, and boxes it did not decide go back on the frontier
  /// unchanged. Thread-safe.
  bool ProcessNext(const std::atomic<bool>* cancel);

  /// True once the pair is fully decided: seeded, frontier empty, nothing
  /// in flight.
  bool Finished() const;

  /// Priority of the best open box; -infinity when the frontier is empty.
  double TopPriority() const;

  std::size_t OpenCount() const;

  /// Consistent snapshot of report + open/in-flight boxes (see above). The
  /// report copy is canonically ordered.
  EngineSnapshot Snapshot() const;

  /// Moves the report out (canonically ordered; report.seconds is the
  /// accumulated busy time). Call once, after Finished() or after the
  /// driver has quiesced post-cancellation.
  VerificationReport TakeReport();

  /// Moves out the open frontier (for checkpointing after cancellation).
  std::vector<solver::Box> TakeOpenFrontier();

  const expr::BoolExpr& psi() const { return psi_; }
  const VerifierOptions& options() const { return options_; }

 private:
  // Open boxes live in the pooled frontier store (one flat slot per box,
  // recycled on release) rather than as per-entry heap vectors; the heap
  // entries and the in-flight set carry slot refs.
  struct OpenBox {
    solver::BoxStore::Ref box_ref = -1;
    double priority = 0.0;
    std::uint64_t seq = 0;
  };

  // One box of a ProcessNext batch: its frontier entry and its outcome.
  struct Claim {
    OpenBox item;
    RegionStatus status = RegionStatus::kTimeout;
    std::vector<double> witness;
    std::vector<solver::Box> children;  // empty: a leaf
    std::vector<char> child_suspect;
    bool requeue = false;  // cancelled before it was decided
  };

  // Tickets to hand out once mu_ is released: `count` calls of `sink`.
  struct Tickets {
    std::function<void(double)> sink;
    std::size_t count = 0;
    double priority = 0.0;
  };

  void PushLocked(std::span<const Interval> box, bool suspect);
  /// Counts the tickets the open frontier needs beyond those queued (see
  /// SetTicketSink) as queued, and returns them for HandOut.
  Tickets TopUpTicketsLocked();
  static void HandOut(const Tickets& tickets);
  std::unique_ptr<solver::DeltaSolver> AcquireSolver();
  void ReleaseSolver(std::unique_ptr<solver::DeltaSolver> s);

  expr::BoolExpr psi_;
  expr::BoolExpr not_psi_;
  expr::CompiledFormula exact_psi_;  // valid(x): witness checks on ψ
  VerifierOptions options_;

  mutable std::mutex mu_;  // frontier, store, in-flight, report, sink
  solver::BoxStore store_;     // keyed to the domain dims at Seed/Restore
  std::vector<OpenBox> open_;  // max-heap (std::push_heap/pop_heap)
  std::vector<std::pair<std::uint64_t, solver::BoxStore::Ref>> in_flight_;
  VerificationReport report_;
  std::function<void(double)> sink_;
  std::size_t queued_tickets_ = 0;  // handed to sink_, not yet started
  std::uint64_t next_seq_ = 0;
  double busy_seconds_ = 0.0;  // also the budget clock, see ProcessNext
  bool seeded_ = false;

  std::atomic<std::uint64_t> solver_calls_{0};
  std::atomic<std::uint64_t> solver_timeouts_{0};
  // Verdict-cache traffic, counted from the solver's results (the solver
  // revalidates hits and re-solves the rejected ones in the same call).
  std::atomic<std::uint64_t> cache_hits_{0};
  std::atomic<std::uint64_t> cache_misses_{0};
  std::atomic<std::uint64_t> cache_rejected_{0};

  // Free-list of solver instances (tape compilation is expensive for big
  // functionals; one solver is in use per concurrent box at a time).
  std::mutex solver_mu_;
  std::vector<std::unique_ptr<solver::DeltaSolver>> free_solvers_;
};

/// Sorts leaves by box bounds and witnesses lexicographically, so the same
/// run configuration yields byte-identical reports for any thread count.
void CanonicalizeReport(VerificationReport& report);

// ---- Report union (distributed shard merge, src/shard/) --------------------

/// Precedence when two partial reports disagree about the same leaf box:
/// delta-sat results (counterexample, then inconclusive) outrank unsat
/// (verified), which outranks timeout. Higher value wins; open frontier
/// boxes rank below every leaf (see CanonicalizeOpenBoxes).
int RegionStatusPrecedence(RegionStatus status);

/// Unions `from` into `into`: solver/cache counters and busy seconds are
/// summed, witnesses concatenated, leaves concatenated — except that a leaf
/// whose box already exists bit-for-bit in `into` is merged by
/// RegionStatusPrecedence instead of duplicated (shards of one campaign
/// never produce duplicates; overlapping inputs do). Canonical order is NOT
/// restored — call CanonicalizeReport once after the last union. Returns the
/// number of duplicate leaves dropped.
std::size_t MergeReportInto(VerificationReport& into,
                            VerificationReport&& from);

/// Re-canonicalizes a merged open frontier: drops exact (bit-pattern)
/// duplicates and boxes `report` has already decided as leaves, then sorts
/// into the same canonical box order report leaves use. Returns the number
/// of boxes dropped.
std::size_t CanonicalizeOpenBoxes(std::vector<solver::Box>& open,
                                  const VerificationReport& report);

/// Splits `box` into 2^d children (every non-point dimension bisected), or
/// bisects the widest dimension when `split_all_dims` is false.
std::vector<solver::Box> SplitBox(const solver::Box& box, bool split_all_dims);

/// Drives `engines` until every one is finished or `cancel` (may be null)
/// is set. At num_threads <= 1 an inline loop always processes the engine
/// with the best open box; otherwise every engine hands out prioritized
/// tickets (see SetTicketSink) on the shared global pool, in one group
/// capped at num_threads concurrent batches. Either way each ProcessNext
/// decides a batch of up to wave_width boxes. After a batch leaves engine
/// `i` Finished(), `finished(i)` runs on the same thread (possibly more
/// than once per engine when pool tickets race). An exception from
/// ProcessNext or `finished` propagates on either path; on the pool it
/// stops the group's remaining tickets and is rethrown once the group has
/// drained.
void RunEngines(std::span<PairEngine* const> engines, int num_threads,
                const std::atomic<bool>* cancel,
                const std::function<void(std::size_t)>& finished);

}  // namespace xcv::verifier
