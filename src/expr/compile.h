// Tape compilation: flattens an expression DAG into SSA-style instructions
// in topological order.
//
// The tape is the solver's working representation. Forward interval
// evaluation fills one slot per instruction; the HC4 backward sweep
// (interval_backward_batch.h) then walks the tape backward, narrowing child
// slots from parent slots. Double evaluation runs on the tape too: the PB
// grid baseline in batches, and model validation and witness checks at
// width 1 on unoptimized tapes (CompiledFormula in bool_expr.h).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "expr/expr.h"
#include "interval/interval.h"

namespace xcv::expr {

/// One instruction; operands a..d are slot indices of earlier instructions
/// (-1 when unused). The instruction's own result lives in the slot with the
/// instruction's index.
struct Instr {
  Op op = Op::kConst;
  Rel rel = Rel::kLe;       // kIte only
  double value = 0.0;       // kConst payload
  int var = -1;             // kVar payload: environment index.
                            // kPowN payload: the integer exponent n.
  std::int32_t a = -1, b = -1, c = -1, d = -1;
  /// Extra operands for n-ary add/mul beyond the first two (slot indices).
  std::vector<std::int32_t> rest;
};

/// A compiled expression. Immutable after Compile().
struct Tape {
  std::vector<Instr> instrs;   // topological order; root is the last slot
  int num_env_slots = 0;       // max variable index + 1
  std::vector<std::int32_t> var_slot;  // var index -> slot, -1 if absent

  int root() const { return static_cast<int>(instrs.size()) - 1; }
  std::size_t size() const { return instrs.size(); }
};

/// Compiles `e` into a tape. Each distinct DAG node becomes exactly one
/// instruction.
Tape Compile(const Expr& e);

/// x^n for integer n by binary exponentiation — the scalar semantics of the
/// kPowN instruction (exposed so the test oracle matches the evaluators
/// exactly).
double PowNScalar(double x, int n);

// ---- Batched structure-of-arrays evaluation ---------------------------------

/// Reusable scratch for EvalTapeBatch: one row of `n` doubles per tape slot,
/// plus a per-slot operand pointer table. Grows monotonically; reuse one
/// instance per thread across chunks to amortize allocation.
struct TapeBatchScratch {
  std::vector<double> lanes;        // tape.size() rows × row capacity
  std::vector<const double*> rows;  // slot -> row base (lane or input array)
  std::size_t capacity = 0;         // current row capacity (points)

  /// Pre-sizes for `slots`-instruction tapes over `n`-point batches so the
  /// first evaluations do not grow the buffers mid-flight.
  void Reserve(std::size_t slots, std::size_t n) {
    lanes.reserve(slots * n);
    rows.reserve(slots);
  }
};

/// Evaluates the tape at `n` points in one sweep (structure-of-arrays).
/// `inputs[v]` must point to `n` contiguous values for environment slot `v`
/// (only slots the tape actually reads are dereferenced; unused entries may
/// be null). Root values are written to `out[0..n)`.
///
/// Each instruction is applied to all `n` points in a tight loop before the
/// next instruction runs, so the per-instruction dispatch cost is amortized
/// N-fold and the inner loops auto-vectorize. Results are bit-identical to
/// the point-by-point scalar evaluator kept as the tests/ oracle, and on an
/// unoptimized tape to the oracle's tree walk over the expression (an n-ary
/// sum starts from +0.0, so a sum of -0.0 terms is +0.0).
void EvalTapeBatch(const Tape& tape, std::span<const double* const> inputs,
                   std::size_t n, double* out, TapeBatchScratch& scratch);

// ---- Batched structure-of-arrays interval evaluation ------------------------

/// Reusable scratch for EvalTapeIntervalBatch: one lo row and one hi row of
/// `n` doubles per tape slot, plus per-slot operand row tables. Grows
/// monotonically; reuse one instance per thread across waves.
struct TapeIntervalBatchScratch {
  std::vector<double> lo_lanes, hi_lanes;  // tape.size() rows × row capacity
  std::vector<const double*> lo_rows;      // slot -> lo row (lane or input)
  std::vector<const double*> hi_rows;      // slot -> hi row
  std::size_t capacity = 0;                // current row capacity (boxes)

  /// Pre-sizes for `slots`-instruction tapes over `n`-box waves.
  void Reserve(std::size_t slots, std::size_t n) {
    lo_lanes.reserve(slots * n);
    hi_lanes.reserve(slots * n);
    lo_rows.reserve(slots);
    hi_rows.reserve(slots);
  }

  /// Enclosure of slot `slot` in lane `k` after a sweep.
  Interval At(std::size_t slot, std::size_t k) const {
    return Interval(lo_rows[slot][k], hi_rows[slot][k]);
  }
};

/// Sound interval evaluation of the tape over `n` boxes in one sweep
/// (structure-of-arrays). `box_lo[v]` / `box_hi[v]` must point to `n`
/// contiguous lower/upper endpoints for environment slot `v` (only slots the
/// tape reads are dereferenced; unused entries may be null). After the call,
/// `scratch.At(slot, k)` is the enclosure of slot `slot` over box `k`; the
/// root enclosures live at `scratch.At(tape.root(), k)`.
///
/// Each instruction runs over all `n` boxes in a tight branch-light loop
/// before the next instruction, so per-instruction dispatch is amortized
/// n-fold and the lo/hi lanes of the ring operations auto-vectorize (the
/// one-ulp outward widening is integer bit-stepping, see interval.h).
/// Endpoints are bit-identical, slot by slot, to the box-by-box scalar
/// evaluator kept as the tests/ oracle; empty enclosures use the canonical
/// [1, 0] representation.
void EvalTapeIntervalBatch(const Tape& tape,
                           std::span<const double* const> box_lo,
                           std::span<const double* const> box_hi,
                           std::size_t n, TapeIntervalBatchScratch& scratch);

/// Enclosure of the tape's root over the single box `box`: a width-1
/// EvalTapeIntervalBatch call. Only the returned root is meaningful
/// afterwards (the variable rows of `scratch` pointed into this call).
Interval EvalTapeInterval(const Tape& tape, std::span<const Interval> box,
                          TapeIntervalBatchScratch& scratch);

}  // namespace xcv::expr
