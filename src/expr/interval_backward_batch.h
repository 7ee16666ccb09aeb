// Batched structure-of-arrays HC4 backward contraction.
//
// ContractTapeIntervalBatch is the solver's one HC4-revise backward sweep:
// it takes the per-slot forward enclosures a finished EvalTapeIntervalBatch
// sweep left in its scratch and pushes inverse-operation narrowings
// root-to-leaves across every lane at once, one tape instruction per pass,
// with per-lane empty/fixpoint masking. The ring-operation projections run
// on the shared SIMD kernel layer (src/support/simd.h); the libm-bound
// inverse projections (pow roots, exp/log, tan/atanh) run the scalar
// interval functions lane by lane. A single box is simply a call with n=1.
//
// Dirty slots: the sweep tracks which slots it has narrowed. The root starts
// dirty; a slot turns dirty when an intersection into it changes the bits of
// an alive lane. A kAdd, kMul, kDiv or kSqr slot that is still clean when
// the sweep reaches it holds its forward enclosure, and its projections are
// skipped: each is a correctly rounded IEEE operation widened one ulp
// outward (Sqrt plus Widen for kSqr), so from an unchanged parent it is
// strictly wider than the child at every finite endpoint, even after
// siblings narrowed, and the intersection would return the child's own
// bits. (An empty sibling would empty the child; that lane dies at the
// sibling's slot anyway.) Every other op projects on every visit: kSqrt,
// kLog and kLambertW restrict their child's domain, and kPow/kPowN stay out
// until a measured change adds them (their PowPreimage roots enclose, see
// interval/inverse.h). Every slot still gets the per-lane emptiness check.
//
// Bit-identity is load-bearing: for every lane, the narrowed box endpoints
// and the outcome are exactly what the box-by-box scalar sweep kept as the
// tests/ oracle (tests/scalar_reference.h), which projects every slot,
// produces for that box — at every wave width and ISA tier (see
// interval_backward_batch_test).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "expr/compile.h"

namespace xcv::expr {

// Per-lane contraction outcomes (the only outcome vocabulary for HC4).
inline constexpr signed char kContractLaneEmpty = -1;       // box infeasible
inline constexpr signed char kContractLaneNoChange = 0;     // fixpoint
inline constexpr signed char kContractLaneContracted = 1;   // box narrowed

/// Reusable scratch for ContractTapeIntervalBatch: mutable copies of the
/// variable-slot rows (the forward scratch aliases the caller's const input
/// arrays for those), temp projection rows, per-lane masks and per-slot
/// dirty flags. Grows monotonically; reuse one instance per thread across
/// waves.
struct TapeBackwardBatchScratch {
  std::vector<double> var_lo, var_hi;  // narrowed variable-slot rows
  std::vector<double*> lo_rows, hi_rows;  // slot -> mutable enclosure row
  std::vector<double> t1_lo, t1_hi;    // accumulator row ("others", copies)
  std::vector<double> t2_lo, t2_hi;    // projection row
  std::vector<double> t3_lo, t3_hi;    // second capture / bound row
  std::vector<double> prev_lo, prev_hi;  // a clean slot's row before a narrow
  std::vector<unsigned char> alive;    // per-lane liveness
  std::vector<unsigned char> cond;     // per-lane conditional-narrow mask
  std::vector<unsigned char> dirty;    // per-slot: narrowed by this sweep
  std::vector<std::int32_t> operand_slots;  // n-ary add/mul positions
  std::size_t capacity = 0;            // current row capacity (boxes)

  /// kAdd/kMul/kDiv/kSqr slots reached with an alive lane whose projections
  /// ran (dirty) or were skipped (clean). They only accumulate; the caller
  /// reads and zeroes them.
  std::uint64_t projections_run = 0;
  std::uint64_t projections_skipped = 0;

  /// Pre-sizes for `slots`-instruction tapes over `n`-box waves.
  void Reserve(std::size_t slots, std::size_t n) {
    var_lo.reserve(slots * n);
    var_hi.reserve(slots * n);
    lo_rows.reserve(slots);
    hi_rows.reserve(slots);
    t1_lo.reserve(n);
    t1_hi.reserve(n);
    t2_lo.reserve(n);
    t2_hi.reserve(n);
    t3_lo.reserve(n);
    t3_hi.reserve(n);
    prev_lo.reserve(n);
    prev_hi.reserve(n);
    alive.reserve(n);
    cond.reserve(n);
    dirty.reserve(slots);
  }
};

/// Runs the HC4 backward sweep over `n` boxes at once.
///
/// `fwd` must hold a finished EvalTapeIntervalBatch sweep of `tape` over the
/// same `n` boxes; its non-variable rows are consumed (narrowed in place).
/// `box_lo[v]` / `box_hi[v]` point to the `n` mutable lower/upper endpoints
/// of environment slot `v` — the same endpoint arrays the forward sweep read
/// (entries for variables the tape does not read may be null). `active`
/// selects the participating lanes (null means all). On return, `outcome[j]`
/// is kContractLaneEmpty / kContractLaneNoChange / kContractLaneContracted
/// for each active lane — exactly the outcome the scalar reference sweep
/// returns for box `j` — and contracted lanes have their box endpoints
/// narrowed to the scalar result bit for bit. Inactive lanes
/// get outcome kContractLaneNoChange and their box entries are untouched.
/// Like the scalar sweep, a lane that turns out empty keeps any variable
/// narrowings folded before the infeasibility surfaced (callers discard such
/// boxes).
void ContractTapeIntervalBatch(const Tape& tape, TapeIntervalBatchScratch& fwd,
                               std::span<double* const> box_lo,
                               std::span<double* const> box_hi, std::size_t n,
                               const unsigned char* active,
                               signed char* outcome,
                               TapeBackwardBatchScratch& scratch);

}  // namespace xcv::expr
