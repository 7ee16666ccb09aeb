// Batched structure-of-arrays interval evaluation — the engine behind the
// ICP wave classifier (src/solver/icp.cpp).
//
// Layout mirrors EvalTapeBatch: one lo row and one hi row per tape slot,
// variable slots aliasing the caller's input arrays. Each instruction is
// applied to every lane before the next instruction runs. The ring
// operations (+, ×, neg, sqr, min, max, abs, const) dispatch to the shared
// SIMD kernel layer (src/support/simd.h) — branch-free lane loops over raw
// endpoints that replicate the inline Interval operators bit for bit (same
// empty propagation, same NaN fixups, same one-ulp bit-stepped widening),
// compiled per ISA tier and selected at runtime. The remaining operations
// (pow, libm transcendentals, ite) run the scalar interval functions lane by
// lane — they are libm-bound either way, and the batched dispatch still
// amortizes the per-instruction switch.
//
// Bit-identity with the box-by-box scalar evaluator (the tests/ oracle) is
// load-bearing: the solver's verdicts must not depend on the wave width or
// the ISA tier (see interval_batch_test and interval_backward_batch_test).
#include <algorithm>
#include <cmath>

#include "expr/compile.h"
#include "interval/lambert_w.h"
#include "support/check.h"
#include "support/simd.h"

namespace xcv::expr {

void EvalTapeIntervalBatch(const Tape& tape,
                           std::span<const double* const> box_lo,
                           std::span<const double* const> box_hi,
                           std::size_t n, TapeIntervalBatchScratch& scratch) {
  if (n == 0) return;
  const simd::Kernels& K = simd::Active();
  const std::size_t slots = tape.size();
  if (scratch.capacity < n) {
    scratch.capacity = n;
    scratch.lo_lanes.clear();  // old contents are dead; avoid copying resizes
    scratch.hi_lanes.clear();
  }
  scratch.lo_lanes.resize(slots * scratch.capacity);
  scratch.hi_lanes.resize(slots * scratch.capacity);
  scratch.lo_rows.resize(slots);
  scratch.hi_rows.resize(slots);

  // Variable slots alias the caller's endpoint arrays directly (no copy);
  // every other slot owns a lane row pair.
  for (std::size_t i = 0; i < slots; ++i) {
    const Instr& ins = tape.instrs[i];
    if (ins.op == Op::kVar) {
      const auto var = static_cast<std::size_t>(ins.var);
      XCV_CHECK_MSG(ins.var >= 0 && var < box_lo.size() &&
                        var < box_hi.size() && box_lo[var] != nullptr &&
                        box_hi[var] != nullptr,
                    "tape variable index " << ins.var
                                           << " outside batch box inputs");
      scratch.lo_rows[i] = box_lo[var];
      scratch.hi_rows[i] = box_hi[var];
    } else {
      scratch.lo_rows[i] = scratch.lo_lanes.data() + i * scratch.capacity;
      scratch.hi_rows[i] = scratch.hi_lanes.data() + i * scratch.capacity;
    }
  }

  for (std::size_t i = 0; i < slots; ++i) {
    const Instr& ins = tape.instrs[i];
    if (ins.op == Op::kVar) continue;
    double* rlo = scratch.lo_lanes.data() + i * scratch.capacity;
    double* rhi = scratch.hi_lanes.data() + i * scratch.capacity;
    const auto row_lo = [&scratch](std::int32_t slot) {
      return scratch.lo_rows[static_cast<std::size_t>(slot)];
    };
    const auto row_hi = [&scratch](std::int32_t slot) {
      return scratch.hi_rows[static_cast<std::size_t>(slot)];
    };
    const double* alo = ins.a >= 0 ? row_lo(ins.a) : nullptr;
    const double* ahi = ins.a >= 0 ? row_hi(ins.a) : nullptr;
    const double* blo = ins.b >= 0 ? row_lo(ins.b) : nullptr;
    const double* bhi = ins.b >= 0 ? row_hi(ins.b) : nullptr;
    // Lane loop for ops with no flattened kernel: same scalar interval
    // functions the forward sweep calls, so endpoints match bit for bit.
    const auto unary = [&](auto&& f) {
      for (std::size_t j = 0; j < n; ++j) {
        const Interval r = f(Interval(alo[j], ahi[j]));
        rlo[j] = r.lo();
        rhi[j] = r.hi();
      }
    };
    switch (ins.op) {
      case Op::kConst: {
        // Interval(value) normalizes a NaN payload to the canonical empty.
        const Interval c(ins.value);
        for (std::size_t j = 0; j < n; ++j) {
          rlo[j] = c.lo();
          rhi[j] = c.hi();
        }
        break;
      }
      case Op::kVar:
        break;  // aliased above
      case Op::kAdd:
        K.add(alo, ahi, blo, bhi, rlo, rhi, n);
        for (auto rest : ins.rest)
          K.add_accum(rlo, rhi, row_lo(rest), row_hi(rest), n);
        break;
      case Op::kMul:
        K.mul(alo, ahi, blo, bhi, rlo, rhi, n);
        for (auto rest : ins.rest)
          K.mul_accum(rlo, rhi, row_lo(rest), row_hi(rest), n);
        break;
      case Op::kDiv:
        K.div(alo, ahi, blo, bhi, rlo, rhi, n);
        break;
      case Op::kPow:
        for (std::size_t j = 0; j < n; ++j) {
          const Interval r =
              Pow(Interval(alo[j], ahi[j]), Interval(blo[j], bhi[j]));
          rlo[j] = r.lo();
          rhi[j] = r.hi();
        }
        break;
      case Op::kMin:
        K.min(alo, ahi, blo, bhi, rlo, rhi, n);
        break;
      case Op::kMax:
        K.max(alo, ahi, blo, bhi, rlo, rhi, n);
        break;
      case Op::kNeg:
        K.neg(alo, ahi, rlo, rhi, n);
        break;
      case Op::kExp:
        unary([](const Interval& a) { return Exp(a); });
        break;
      case Op::kLog:
        unary([](const Interval& a) { return Log(a); });
        break;
      case Op::kSqrt:
        K.sqrt(alo, ahi, rlo, rhi, n);
        break;
      case Op::kCbrt:
        unary([](const Interval& a) { return Cbrt(a); });
        break;
      case Op::kSin:
        unary([](const Interval& a) { return Sin(a); });
        break;
      case Op::kCos:
        unary([](const Interval& a) { return Cos(a); });
        break;
      case Op::kAtan:
        unary([](const Interval& a) { return Atan(a); });
        break;
      case Op::kTanh:
        unary([](const Interval& a) { return Tanh(a); });
        break;
      case Op::kAbs:
        K.abs(alo, ahi, rlo, rhi, n);
        break;
      case Op::kLambertW:
        unary([](const Interval& a) { return LambertW0(a); });
        break;
      case Op::kSqr:
        K.sqr(alo, ahi, rlo, rhi, n);
        break;
      case Op::kPowN: {
        const auto p = static_cast<long long>(ins.var);
        unary([p](const Interval& a) { return PowInt(a, p); });
        break;
      }
      case Op::kIte: {
        const double* clo = row_lo(ins.c);
        const double* chi = row_hi(ins.c);
        const double* dlo = row_lo(ins.d);
        const double* dhi = row_hi(ins.d);
        for (std::size_t j = 0; j < n; ++j) {
          const Interval l(alo[j], ahi[j]), r(blo[j], bhi[j]);
          const bool can_true =
              ins.rel == Rel::kLe ? PossiblyLe(l, r) : PossiblyLt(l, r);
          const bool can_false =
              ins.rel == Rel::kLe ? PossiblyLt(r, l) : PossiblyLe(r, l);
          Interval out = Interval::Empty();
          if (can_true) out = out.Hull(Interval(clo[j], chi[j]));
          if (can_false) out = out.Hull(Interval(dlo[j], dhi[j]));
          rlo[j] = out.lo();
          rhi[j] = out.hi();
        }
        break;
      }
    }
  }
}

Interval EvalTapeInterval(const Tape& tape, std::span<const Interval> box,
                          TapeIntervalBatchScratch& scratch) {
  std::vector<double> lo(box.size()), hi(box.size());
  std::vector<const double*> lop(box.size()), hip(box.size());
  for (std::size_t v = 0; v < box.size(); ++v) {
    lo[v] = box[v].lo();
    hi[v] = box[v].hi();
    lop[v] = &lo[v];
    hip[v] = &hi[v];
  }
  EvalTapeIntervalBatch(tape, lop, hip, 1, scratch);
  return scratch.At(static_cast<std::size_t>(tape.root()), 0);
}

}  // namespace xcv::expr
