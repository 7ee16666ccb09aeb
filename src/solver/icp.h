// Delta-complete satisfiability via interval constraint propagation and
// branch-and-prune — the decision procedure at the core of dReal (Gao, Kong,
// Clarke, CADE 2013), reimplemented over this repo's expression tapes.
//
// Semantics, matching the paper's use of dReal:
//   * kUnsat     — the formula has no solution in the queried box. Sound:
//                  backed entirely by outward-rounded interval arithmetic.
//   * kDeltaSat  — the delta-weakened formula is satisfiable; a model
//                  (point) is returned. The model may fail the *unweakened*
//                  formula — callers must validate it (Algorithm 1's
//                  valid(x)), and an invalid model is the paper's
//                  "inconclusive" outcome.
//   * kTimeout   — the resource budget (node expansions and/or wall clock)
//                  was exhausted, mirroring the paper's 2-hour dReal limit.
#pragma once

#include <atomic>
#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "expr/bool_expr.h"
#include "expr/compile.h"
#include "expr/interval_backward_batch.h"
#include "solver/box.h"
#include "support/stopwatch.h"

namespace xcv::cache {
class VerdictCache;
}  // namespace xcv::cache

namespace xcv::solver {

/// Widest SolverOptions::wave_width accepted. The solver reserves scratch of
/// tape slots × wave_width per atom up front; 64 is the widest wave any
/// benchmark, test, or CI job runs.
inline constexpr int kMaxWaveWidth = 64;
static_assert(kMaxWaveWidth <= 255, "slot owners are stored as bytes");

/// Tuning knobs for a DeltaSolver.
struct SolverOptions {
  /// Precision: boxes whose widest side is ≤ delta stop splitting and are
  /// reported delta-sat (with their midpoint as the model).
  double delta = 1e-3;
  /// Branch-and-prune node budget; exceeded → kTimeout. This is the
  /// deterministic analogue of the paper's wall-clock solver timeout.
  std::uint64_t max_nodes = 200'000;
  /// Optional wall-clock budget per box in seconds (infinity = unlimited),
  /// compared against the box's charged time (SolverStats::seconds): its
  /// own cache lookup and presample, plus a share of every lockstep round
  /// it took part in (see CheckMany). For a one-box call that is the call's
  /// wall time. Checked at every 128th node.
  double time_budget_seconds = std::numeric_limits<double>::infinity();
  /// HC4 fixpoint rounds per node (0 disables contraction — the ablation
  /// baseline of pure branch-and-prune).
  int contraction_rounds = 2;
  /// When a delta-box's midpoint fails exact validation, keep searching for
  /// a genuinely satisfying box up to this many rejections before reporting
  /// the (invalid) delta-sat model. 0 reproduces plain dReal behaviour
  /// (return the first delta-sat candidate).
  int max_invalid_models = 32;
  /// Before branch-and-prune, probe a deterministic lattice of this many
  /// points; a point that exactly satisfies the formula is returned as a
  /// (genuine) model immediately. Sound — candidates are confirmed on the
  /// formula's exact tapes (expr::CompiledFormula::Holds) — and decouples
  /// counterexample discovery from the delta-resolution crawl. 0 disables.
  int presample_points = 225;
  /// Up to this many boxes are classified per batched interval sweep (the
  /// SoA wave), and CheckMany decides up to this many boxes in lockstep,
  /// building every wave from all of their searches: the boxes each search
  /// is parked on, then the unclassified boxes nearest each stack top, then
  /// speculative levels below them. Purely an evaluation-batching knob:
  /// verdicts, models, and stats are byte-identical at every width and
  /// batch size (every lane's endpoints are independent of its wave-mates
  /// and each search's DFS order never changes). 1 runs the same kernels
  /// one box per sweep; at most kMaxWaveWidth.
  int wave_width = 8;
  /// Optional persistent verdict cache (src/cache/). When set, the solver
  /// consults it per box before any solver work and records its own
  /// reproducible verdicts (UNSAT, delta-sat, node-budget timeouts; never
  /// wall-clock timeouts). An exact (formula, options, box) hit replays the
  /// recorded result with from_cache set once a fresh interval sweep has
  /// revalidated it (see CheckMany); a contradicted hit is solved afresh
  /// and its verdict replaces the entry. Non-owning; never serialized. The
  /// cache only skips work: a cache-less rerun of a deterministic run
  /// produces byte-identical results.
  cache::VerdictCache* cache = nullptr;
  /// Extra word folded into the cache scope hash. Campaigns salt with the
  /// condition id so cache keys spell out (functional tape, condition,
  /// options, box) even if two conditions compiled to equal tapes.
  std::uint64_t cache_salt = 0;
};

enum class SatKind { kUnsat, kDeltaSat, kTimeout };

std::string SatKindName(SatKind kind);

struct SolverStats {
  std::uint64_t nodes = 0;         // boxes popped
  std::uint64_t contractions = 0;  // HC4 passes executed
  std::uint64_t prunes = 0;        // boxes discarded by certainty/emptiness
  /// Wall time charged to this box (see time_budget_seconds): the call's
  /// wall time for a one-box call, a fair share of it in a batch.
  double seconds = 0.0;
};

struct CheckResult {
  SatKind kind = SatKind::kTimeout;
  /// Witness point for kDeltaSat (midpoint of the terminal box).
  std::vector<double> model;
  /// Terminal box for kDeltaSat.
  Box model_box;
  SolverStats stats;
  /// True when the result was replayed from the verdict cache (stats.nodes
  /// then reports the recorded cold-run node count; no solver work ran).
  bool from_cache = false;
  /// True when the cache held an entry for the box that its revalidation
  /// sweep contradicted: the result is a full solve, and its verdict
  /// replaced the entry. Never set together with from_cache.
  bool cache_rejected = false;
  /// True when CheckMany's cancel flag stopped the call before this box was
  /// decided; nothing else in the result is meaningful and nothing was
  /// cached.
  bool cancelled = false;
};

/// Decision engine for one fixed formula, reusable across many boxes (the
/// verifier decides every subdomain with it, up to wave_width at a time).
/// Not thread-safe; create one instance per worker thread.
class DeltaSolver {
 public:
  /// `formula` is an NNF BoolExpr (True/False/atoms/and/or).
  DeltaSolver(expr::BoolExpr formula, SolverOptions options);

  /// Decides `formula` over each of `domains` (at most wave_width boxes, all
  /// of one dimensionality) in lockstep: one independent depth-first search
  /// per box, every classify/contract wave built from all of them. Each box
  /// keeps its own stack, pop order, node budget, stats, and verdict, so
  /// out[i] is byte-identical to a one-box call on domains[i] (bar
  /// stats.seconds).
  ///
  /// With a verdict cache, every box is looked up first, and one
  /// ClassifyBoxes sweep over the call's hits decides which to trust. The
  /// sweep classifies the formula over each hit's box (+1 / -1 / 0), and a
  /// verdict no run of this solver on that box could produce is rejected:
  /// UNSAT on a +1 box; delta-sat on a -1 box, or with an empty model or
  /// one outside its box; a timeout on a decided box (one forward sweep
  /// decides it at node 1). A rejected hit is searched like a miss in the
  /// same call and comes back with cache_rejected set. `cancel`, when set,
  /// is checked between lockstep rounds: the searches still running are
  /// dropped and their results come back with `cancelled` set.
  std::vector<CheckResult> CheckMany(std::span<const Box> domains,
                                     const std::atomic<bool>* cancel = nullptr);

  /// CheckMany on one box.
  CheckResult Check(const Box& domain) {
    return std::move(CheckMany({&domain, 1}).front());
  }

  const SolverOptions& options() const { return options_; }

  /// Scope half of the verdict-cache key: canonical tape fingerprints of
  /// every atom + skeleton shape + verdict-affecting options + cache_salt.
  /// wave_width is deliberately excluded (batching never changes verdicts).
  std::uint64_t cache_scope() const { return cache_scope_; }

  /// Validates a model against the exact (unweakened) formula in IEEE
  /// doubles, on its unoptimized tapes at width 1 — Algorithm 1's valid(x).
  bool ValidateModel(std::span<const double> model);

  /// Classifies the formula skeleton over `boxes` (at most wave_width, all
  /// of one dimensionality) with one batched interval sweep per atom
  /// (EvalTapeIntervalBatch): out[k] is +1 when the formula certainly holds
  /// at every point of box k, -1 when it certainly holds nowhere in box k,
  /// 0 when interval evaluation cannot decide. CheckMany revalidates its
  /// cache hits with it.
  void ClassifyBoxes(std::span<const Box> boxes, std::vector<int>& out);

 private:
  using Atom = expr::CompiledFormula::Atom;
  using Node = expr::CompiledFormula::Node;
  enum class Tri : char { kTrue, kFalse, kUnknown };

  /// One depth-first search of a CheckMany call. Slots of the shared
  /// BoxStore each belong to one search (owner_arena_).
  struct Search {
    const Box* domain = nullptr;
    std::vector<BoxStore::Ref> stack;  // LIFO: depth-first
    CheckResult result;                // kind, model, and stats accrue here
    // Delta-boxes whose midpoint failed exact validation, set aside.
    int invalid_candidates = 0;
    std::vector<double> last_invalid_model;
    Box last_invalid_box;
    double charged = 0.0;        // seconds, see time_budget_seconds
    BoxStore::Ref parked = -1;   // popped, unclassified: awaits the wave
    std::size_t lanes = 0;       // wave lanes it held this round
    bool done = false;
  };

  /// Truth of an atom over a box from its root enclosure there. An empty
  /// enclosure (the expression is defined nowhere in the box) is kFalse.
  static Tri ClassifyRoot(const Interval& root, expr::Rel rel);
  /// Skeleton truth given one status per atom (atom_status[atom]).
  Tri EvaluateSkeleton(const Node& node, const Tri* atom_status) const;
  void CollectRequiredAtoms(const Node& node, std::vector<int>& out) const;
  /// Presample lattice probing, batched over the atom tapes. Returns true
  /// and fills `result` when a genuine model was found.
  bool PresampleLattice(const Box& domain, CheckResult& result);

  /// Scope half of the cache key (see cache_scope()); computed once in the
  /// constructor from the atom tapes, skeleton, and options.
  std::uint64_t ComputeCacheScope() const;

  /// Records `result` for `domain` in the verdict cache when configured and
  /// when the result is reproducible (see SolverOptions::cache).
  /// `deadline_stopped` marks results produced because the wall clock — not
  /// the deterministic node budget — expired; those are never recorded.
  void MaybeRecord(const Box& domain, const CheckResult& result,
                   bool deadline_stopped) const;

  /// Decides `s` before any solver work when it can: an empty domain, or a
  /// verdict-cache hit (from_cache set, to be revalidated by
  /// RevalidateHits). Returns true when decided.
  bool DecideUpFront(Search& s);
  /// Collects the call's cache hits into hit_searches_, sweeps them in one
  /// ClassifyBoxes pass, and reopens every hit whose verdict contradicts
  /// its box's classification (see CheckMany) as a fresh search with
  /// cache_rejected set. No sweep runs when the call has no hits.
  void RevalidateHits();
  /// Probes the presample lattice of an undecided `s`; a genuine model ends
  /// it delta-sat. Returns true when decided.
  bool Presample(Search& s);
  /// ClassifyBoxes over `n` boxes, box k being box_at(k): gathers them into
  /// the wave rows and borrows status_arena_ (box k as slot k), so it runs
  /// only while no call's frontier is live.
  template <typename BoxAt>
  void ClassifySweep(std::size_t n, BoxAt box_at, std::vector<int>& out);
  /// Sizes the wave and working-box rows for `dims`-dimensional boxes.
  void ShapeWaveRows(std::size_t dims);
  /// Runs `s` depth-first until it pops a box no wave has classified yet
  /// (and parks on it) or reaches its verdict (and is done).
  void Advance(Search& s);
  /// Ends `s` with a delta-sat model on `box`.
  void Accept(Search& s, std::span<const Interval> box,
              std::vector<double> model);
  /// Ends `s` on an exhausted stack (kUnsat) or budget (kTimeout); a
  /// set-aside invalid candidate is still an unrefuted delta-box and
  /// outranks either.
  void Settle(Search& s, SatKind kind, bool deadline_stopped);

  /// Allocates a frontier slot holding `tmp_box_`, owned by search `owner`,
  /// and marks it unclassified (sizing the per-slot side arrays as needed).
  BoxStore::Ref NewNodeFromTmp(std::size_t owner);
  /// The lockstep round's wave: every parked box, then the unclassified
  /// boxes nearest each parked search's stack top (round-robin) up to
  /// wave_width, then speculative breadth-first levels below them — DFS
  /// alone only ever exposes a couple of unclassified siblings, which would
  /// starve the wide lanes. Each level runs ClassifyContractWave (batched
  /// classify + full HC4 fixpoint precompute); because the fixpoint yields
  /// every surviving lane's final contracted box, the split the pop will
  /// perform is known now, so ExpandWaveChildren materializes the two
  /// halves and they become the next level's wave, while a level fits
  /// wave_width (total work per round is capped at ~2×wave_width lanes).
  /// Pops later walk this prebuilt subtree in plain depth-first order;
  /// verdicts, boxes, and stats are bit-identical at every wave width,
  /// batch size, and ISA tier — speculation past an early return only
  /// costs wall time. Counts each search's lanes into Search::lanes.
  void RunWave();
  /// One batched pass over wave_refs_ (≤ wave_width lanes): forward
  /// classification sweeps per atom into status_arena_, then the complete
  /// rounds × required-atoms HC4 fixpoint loop over every skeleton-undecided
  /// lane — batched forward + backward sweeps with per-lane masks (a lane
  /// leaves the loop once its box proves empty or a round contracts
  /// nothing) — scattering each undecided lane's final box, emptiness, and
  /// contraction-call count into the ref-indexed bwd_* arenas replayed at
  /// pop. With contraction off (no rounds or no required atom) the final
  /// box is the lane's own bounds and the count is 0.
  void ClassifyContractWave();
  /// Pre-splits the surviving lanes of the wave just contracted (skeleton
  /// undecided, not proved empty, wider than delta): bisects each lane's
  /// final box on its widest dimension exactly as pop step 4 will, allocates
  /// the two child slots, records them in child_arena_, and collects them
  /// into next_refs_ as the next expansion level.
  void ExpandWaveChildren();

  expr::CompiledFormula exact_;      // atoms, skeleton, exact point truth
  SolverOptions options_;
  std::uint64_t cache_scope_ = 0;
  // exact_'s atoms with expr::Optimize'd tapes, for the interval sweeps.
  std::vector<Atom> atoms_;
  std::vector<int> required_atoms_;  // atoms on every conjunctive path
  std::vector<char> is_required_;    // atom index -> on a conjunctive path

  // Pooled branch-and-prune frontier shared by a call's searches: one
  // BoxStore slot per open box, each search's stack holds slot refs, and
  // the per-slot side arrays carry the wave classifier's results to the
  // (possibly much later) pop.
  BoxStore store_;
  std::vector<Search> searches_;    // one per CheckMany box
  std::vector<std::size_t> round_;  // searches live at the round's start
  std::vector<std::size_t> cursor_; // RunWave: per-round stack scan
  std::vector<char> classified_;   // slot -> atoms classified?
  std::vector<std::uint8_t> owner_arena_;  // slot -> owning search
  std::vector<Tri> status_arena_;  // slot * num_atoms + atom -> truth
  std::vector<Interval> tmp_box_;  // bisect staging
  // Speculatively materialized split: slot*2 -> {left, right} child refs
  // (-1 = not expanded; every box that reaches pop step 4 has been).
  std::vector<BoxStore::Ref> child_arena_;

  // Wave classification buffers (sized by ShapeWaveRows). The revalidation
  // sweep gathers a call's cache hits into the same rows before its first
  // wave.
  std::vector<BoxStore::Ref> wave_refs_;
  std::vector<BoxStore::Ref> next_refs_;  // children feeding the next level
  std::vector<double> wave_lo_, wave_hi_;          // dims × wave_width SoA
  std::vector<const double*> wave_lo_ptrs_, wave_hi_ptrs_;
  expr::TapeIntervalBatchScratch interval_batch_;
  // RevalidateHits: the searches holding the call's hits, and their boxes'
  // classifications.
  std::vector<std::size_t> hit_searches_;
  std::vector<int> hit_tri_;

  // Batched backward contraction over the wave: each level runs the whole
  // HC4 fixpoint loop (rounds × required atoms, forward + backward sweeps)
  // over every undecided lane at once, with per-lane empty/fixpoint masks.
  // Required atoms get their own forward scratch so their classification
  // sweeps double as the round-0 forward enclosures; the final per-lane box,
  // emptiness, and contraction-call count land in ref-indexed arenas and are
  // replayed when the box is popped.
  std::vector<expr::TapeIntervalBatchScratch> req_batch_;  // per required atom
  expr::TapeBackwardBatchScratch backward_;
  std::vector<double> bwd_lo_, bwd_hi_;  // dims × wave_width working boxes
  std::vector<double*> bwd_lo_ptrs_, bwd_hi_ptrs_;
  std::vector<const double*> bwd_clo_ptrs_, bwd_chi_ptrs_;  // same rows
  std::vector<unsigned char> wave_active_;  // lane takes this atom's sweep
  std::vector<unsigned char> wave_any_;     // lane contracted this round
  std::vector<unsigned char> wave_done_;    // lane left the fixpoint loop
  std::vector<unsigned char> wave_empty_;   // lane's box proved infeasible
  std::vector<unsigned char> wave_unknown_; // lane skeleton-undecided
  std::vector<std::uint32_t> wave_count_;   // contraction calls per lane
  std::vector<signed char> wave_outcome_;   // per-lane backward outcome
  std::vector<signed char> bwd_empty_arena_;     // slot -> went empty
  std::vector<std::uint32_t> bwd_count_arena_;   // slot -> contraction calls
  std::vector<double> bwd_box_arena_;  // slot × dims × {lo, hi} final box

  // Reusable presample buffers (one lattice per verifier subdomain; the
  // lattice is rebuilt but never reallocated).
  struct PresampleBuffers {
    std::vector<std::vector<double>> coords;  // SoA lattice, one row per dim
    std::vector<std::vector<double>> values;  // one row per atom
    std::vector<double> point_values;         // one point's atom values
    expr::TapeBatchScratch batch;
  };
  PresampleBuffers presample_;
  // Width-1 scratch for exact point truth (exact_.Holds).
  expr::TapeBatchScratch exact_scratch_;
};

}  // namespace xcv::solver
