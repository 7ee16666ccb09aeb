// Batched HC4 backward contraction — see interval_backward_batch.h.
//
// The sweep mirrors the scalar reference sweep (oracle::ContractFromForward
// in tests/scalar_reference.h) instruction for instruction. Every
// projection an op makes is either a shared SIMD kernel call over all lanes
// (ring ops: add/mul/div/neg/min/max) or a per-lane run of the very scalar
// interval functions the reference calls (libm inverse projections) — so
// each lane's narrowing sequence is exactly the scalar one, and the output
// bits match at every wave width and ISA tier.
//
// Lane masking: a lane dies (outcome kContractLaneEmpty) the moment the
// scalar sweep would have returned kEmpty for its box. Dead lanes still flow
// through the vectorized kernel calls — their rows carry harmless garbage
// that nothing reads — but are skipped by every per-lane scalar loop and by
// the final box fold, so they cannot influence surviving lanes.
//
// Dirty slots (see the header): every intersection into a slot goes through
// intersect() or narrow_lane, which mark the slot dirty when an alive lane's
// bits changed. Dirtiness is per slot, the union over lanes, so a clean slot
// is unchanged in every alive lane.
#include "expr/interval_backward_batch.h"

#include <bit>
#include <cmath>
#include <cstring>

#include "interval/inverse.h"
#include "support/check.h"
#include "support/simd.h"

namespace xcv::expr {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

bool SameBits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

// The ops whose projections are skipped from a clean slot.
bool SkipsWhenClean(Op op) {
  return op == Op::kAdd || op == Op::kMul || op == Op::kDiv || op == Op::kSqr;
}

}  // namespace

void ContractTapeIntervalBatch(const Tape& tape, TapeIntervalBatchScratch& fwd,
                               std::span<double* const> box_lo,
                               std::span<double* const> box_hi, std::size_t n,
                               const unsigned char* active,
                               signed char* outcome,
                               TapeBackwardBatchScratch& bs) {
  if (n == 0) return;
  const simd::Kernels& K = simd::Active();
  const std::size_t slots = tape.size();
  XCV_CHECK_MSG(fwd.capacity >= n && fwd.lo_rows.size() == slots,
                "backward sweep needs a finished forward sweep of width >= n");

  if (bs.capacity < n) {
    bs.capacity = n;
    bs.var_lo.clear();  // old contents are dead; avoid copying resizes
    bs.var_hi.clear();
  }
  std::size_t num_vars = 0;
  for (const Instr& ins : tape.instrs) num_vars += ins.op == Op::kVar;
  bs.var_lo.resize(num_vars * bs.capacity);
  bs.var_hi.resize(num_vars * bs.capacity);
  bs.lo_rows.resize(slots);
  bs.hi_rows.resize(slots);
  bs.t1_lo.resize(bs.capacity);
  bs.t1_hi.resize(bs.capacity);
  bs.t2_lo.resize(bs.capacity);
  bs.t2_hi.resize(bs.capacity);
  bs.t3_lo.resize(bs.capacity);
  bs.t3_hi.resize(bs.capacity);
  bs.prev_lo.resize(bs.capacity);
  bs.prev_hi.resize(bs.capacity);
  bs.alive.resize(bs.capacity);
  bs.cond.resize(bs.capacity);
  bs.dirty.assign(slots, 0);

  // Mutable per-slot enclosure rows: non-variable slots narrow the forward
  // scratch rows in place; variable slots (which alias the caller's input
  // arrays in the forward scratch) get private copies.
  std::size_t var_row = 0;
  for (std::size_t i = 0; i < slots; ++i) {
    if (tape.instrs[i].op == Op::kVar) {
      double* vl = bs.var_lo.data() + var_row * bs.capacity;
      double* vh = bs.var_hi.data() + var_row * bs.capacity;
      std::memcpy(vl, fwd.lo_rows[i], n * sizeof(double));
      std::memcpy(vh, fwd.hi_rows[i], n * sizeof(double));
      bs.lo_rows[i] = vl;
      bs.hi_rows[i] = vh;
      ++var_row;
    } else {
      bs.lo_rows[i] = fwd.lo_lanes.data() + i * fwd.capacity;
      bs.hi_rows[i] = fwd.hi_lanes.data() + i * fwd.capacity;
    }
  }

  unsigned char* alive = bs.alive.data();
  unsigned char* cond = bs.cond.data();
  unsigned char* dirty = bs.dirty.data();
  double* t1_lo = bs.t1_lo.data();
  double* t1_hi = bs.t1_hi.data();
  double* t2_lo = bs.t2_lo.data();
  double* t2_hi = bs.t2_hi.data();
  double* t3_lo = bs.t3_lo.data();
  double* t3_hi = bs.t3_hi.data();

  std::size_t alive_count = 0;
  for (std::size_t j = 0; j < n; ++j) {
    alive[j] = active != nullptr ? (active[j] != 0) : 1;
    outcome[j] = kContractLaneNoChange;
    alive_count += alive[j];
  }
  if (alive_count == 0) return;

  const auto die = [&](std::size_t j) {
    alive[j] = 0;
    outcome[j] = kContractLaneEmpty;
    --alive_count;
  };
  // v[slot] = v[slot].Intersect(projection) for one alive lane — the
  // scalar reference sweep's narrow() (rows always hold canonical interval
  // bits, so the Interval round-trip is lossless).
  const auto narrow_lane = [&bs, dirty](std::int32_t slot, std::size_t j,
                                        const Interval& projection) {
    const auto s = static_cast<std::size_t>(slot);
    double* slo = bs.lo_rows[s];
    double* shi = bs.hi_rows[s];
    const Interval next = Interval(slo[j], shi[j]).Intersect(projection);
    if (!SameBits(next.lo(), slo[j]) || !SameBits(next.hi(), shi[j]))
      dirty[s] = 1;
    slo[j] = next.lo();
    shi[j] = next.hi();
  };
  // Row form of narrow: v[slot] ∩= projection on every lane (on the lanes
  // `mask` selects, when given). A clean slot's row is captured first, so it
  // turns dirty exactly when an alive lane's bits changed.
  const auto intersect = [&](std::int32_t slot, const double* plo,
                             const double* phi, const unsigned char* mask) {
    const auto s = static_cast<std::size_t>(slot);
    double* slo = bs.lo_rows[s];
    double* shi = bs.hi_rows[s];
    const bool clean = !dirty[s];
    if (clean) {
      std::memcpy(bs.prev_lo.data(), slo, n * sizeof(double));
      std::memcpy(bs.prev_hi.data(), shi, n * sizeof(double));
    }
    if (mask != nullptr)
      K.intersect_accum_where(slo, shi, plo, phi, mask, n);
    else
      K.intersect_accum(slo, shi, plo, phi, n);
    if (!clean) return;
    for (std::size_t j = 0; j < n; ++j) {
      if (alive[j] && (!SameBits(slo[j], bs.prev_lo[j]) ||
                       !SameBits(shi[j], bs.prev_hi[j]))) {
        dirty[s] = 1;
        return;
      }
    }
  };

  // Root narrowing: the constraint set is (-inf, 0]; for strict < the
  // closure is the same, which is a sound over-approximation. The root
  // starts dirty: the intersection narrows every undecided lane.
  dirty[static_cast<std::size_t>(tape.root())] = 1;
  {
    double* rlo = bs.lo_rows[static_cast<std::size_t>(tape.root())];
    double* rhi = bs.hi_rows[static_cast<std::size_t>(tape.root())];
    for (std::size_t j = 0; j < n; ++j) {
      if (!alive[j]) continue;
      const Interval root(rlo[j], rhi[j]);
      if (root.IsEmpty()) {
        die(j);
        continue;
      }
      const Interval narrowed = root.Intersect(Interval::NonPositive());
      if (narrowed.IsEmpty()) {
        die(j);
        continue;
      }
      rlo[j] = narrowed.lo();
      rhi[j] = narrowed.hi();
    }
    if (alive_count == 0) return;
  }

  // Reverse sweep. Because the tape is in topological order, every parent is
  // processed before its children, so narrowings flow root-to-leaves. The
  // ring projections of a parent no intersection has narrowed would return
  // the children's own bits, so a clean kAdd/kMul/kDiv/kSqr slot skips them.
  for (std::size_t k = slots; k-- > 0;) {
    const Instr& ins = tape.instrs[k];
    const double* zlo = bs.lo_rows[k];
    const double* zhi = bs.hi_rows[k];
    // The scalar sweep checks z for emptiness at every slot, whatever the
    // op; a lane dies here exactly when its box would have returned kEmpty.
    for (std::size_t j = 0; j < n; ++j)
      if (alive[j] && simd::LaneEmpty(zlo[j], zhi[j])) die(j);
    if (alive_count == 0) return;
    if (SkipsWhenClean(ins.op)) {
      if (!dirty[k]) {
        ++bs.projections_skipped;
        continue;
      }
      ++bs.projections_run;
    }

    const auto row_lo = [&bs](std::int32_t slot) {
      return bs.lo_rows[static_cast<std::size_t>(slot)];
    };
    const auto row_hi = [&bs](std::int32_t slot) {
      return bs.hi_rows[static_cast<std::size_t>(slot)];
    };

    switch (ins.op) {
      case Op::kConst:
        for (std::size_t j = 0; j < n; ++j)
          if (alive[j] && !(zlo[j] <= ins.value && ins.value <= zhi[j]))
            die(j);
        break;
      case Op::kVar:
        break;  // handled after the sweep
      case Op::kAdd: {
        // Project each operand *position*: skip exactly one occurrence of
        // the slot, so duplicated operands (x + x) are handled soundly.
        bs.operand_slots.clear();
        bs.operand_slots.push_back(ins.a);
        bs.operand_slots.push_back(ins.b);
        bs.operand_slots.insert(bs.operand_slots.end(), ins.rest.begin(),
                                ins.rest.end());
        const auto& os = bs.operand_slots;
        for (std::size_t p = 0; p < os.size(); ++p) {
          for (std::size_t j = 0; j < n; ++j) {
            t1_lo[j] = 0.0;  // Interval(0.0)
            t1_hi[j] = 0.0;
          }
          for (std::size_t q = 0; q < os.size(); ++q)
            if (q != p) K.add_accum(t1_lo, t1_hi, row_lo(os[q]),
                                    row_hi(os[q]), n);
          K.sub(zlo, zhi, t1_lo, t1_hi, t2_lo, t2_hi, n);
          intersect(os[p], t2_lo, t2_hi, nullptr);
        }
        break;
      }
      case Op::kMul: {
        bs.operand_slots.clear();
        bs.operand_slots.push_back(ins.a);
        bs.operand_slots.push_back(ins.b);
        bs.operand_slots.insert(bs.operand_slots.end(), ins.rest.begin(),
                                ins.rest.end());
        const auto& os = bs.operand_slots;
        for (std::size_t p = 0; p < os.size(); ++p) {
          for (std::size_t j = 0; j < n; ++j) {
            t1_lo[j] = 1.0;  // Interval(1.0)
            t1_hi[j] = 1.0;
          }
          for (std::size_t q = 0; q < os.size(); ++q)
            if (q != p) K.mul_accum(t1_lo, t1_hi, row_lo(os[q]),
                                    row_hi(os[q]), n);
          // Scalar gate: if (!others.ContainsZero()) narrow(p, z / others).
          // An empty "others" fails ContainsZero too, and z / empty is
          // empty, so dividing every lane and masking the intersect is the
          // same narrowing.
          for (std::size_t j = 0; j < n; ++j)
            cond[j] = simd::LaneEmpty(t1_lo[j], t1_hi[j]) | (t1_lo[j] > 0.0) |
                      (t1_hi[j] < 0.0);
          K.div(zlo, zhi, t1_lo, t1_hi, t2_lo, t2_hi, n);
          intersect(os[p], t2_lo, t2_hi, cond);
        }
        break;
      }
      case Op::kDiv: {
        // z = x / y  =>  x = z * y,  y = x / z (x read after its narrow).
        K.mul(zlo, zhi, row_lo(ins.b), row_hi(ins.b), t2_lo, t2_hi, n);
        intersect(ins.a, t2_lo, t2_hi, nullptr);
        for (std::size_t j = 0; j < n; ++j)
          cond[j] = (zlo[j] > 0.0) | (zhi[j] < 0.0);  // !z.ContainsZero()
        K.div(row_lo(ins.a), row_hi(ins.a), zlo, zhi, t2_lo, t2_hi, n);
        intersect(ins.b, t2_lo, t2_hi, cond);
        break;
      }
      case Op::kPow:
      case Op::kPowN: {
        // Constant exponent (kPowN's is the optimizer's integer n, never 0
        // or 1); a symbolic kPow exponent gets no contraction.
        double p = static_cast<double>(ins.var);
        if (ins.op == Op::kPow) {
          const Instr& exp_ins = tape.instrs[static_cast<std::size_t>(ins.b)];
          if (exp_ins.op != Op::kConst) break;
          p = exp_ins.value;
        }
        const double* xlo = row_lo(ins.a);
        const double* xhi = row_hi(ins.a);
        for (std::size_t j = 0; j < n; ++j) {
          if (!alive[j]) continue;
          const Interval r = PowPreimage(Interval(zlo[j], zhi[j]),
                                         Interval(xlo[j], xhi[j]), p);
          if (r.IsEmpty()) {
            die(j);
            continue;
          }
          narrow_lane(ins.a, j, r);
        }
        break;
      }
      case Op::kMin: {
        // z = min(x, y): both operands are >= z.lo; if one operand cannot
        // attain the minimum, the other must equal z. x and y are captured
        // before the floor narrows them (raw endpoints, so an empty operand
        // compares through its canonical [1, 0] bits like the scalar .lo()).
        std::memcpy(t1_lo, row_lo(ins.a), n * sizeof(double));
        std::memcpy(t1_hi, row_hi(ins.a), n * sizeof(double));
        std::memcpy(t2_lo, row_lo(ins.b), n * sizeof(double));
        std::memcpy(t2_hi, row_hi(ins.b), n * sizeof(double));
        for (std::size_t j = 0; j < n; ++j) {
          t3_lo[j] = zlo[j];  // floor_iv = [z.lo, +inf)
          t3_hi[j] = kInf;
        }
        intersect(ins.a, t3_lo, t3_hi, nullptr);
        intersect(ins.b, t3_lo, t3_hi, nullptr);
        for (std::size_t j = 0; j < n; ++j) cond[j] = t2_lo[j] > zhi[j];
        intersect(ins.a, zlo, zhi, cond);
        for (std::size_t j = 0; j < n; ++j) cond[j] = t1_lo[j] > zhi[j];
        intersect(ins.b, zlo, zhi, cond);
        break;
      }
      case Op::kMax: {
        std::memcpy(t1_lo, row_lo(ins.a), n * sizeof(double));
        std::memcpy(t1_hi, row_hi(ins.a), n * sizeof(double));
        std::memcpy(t2_lo, row_lo(ins.b), n * sizeof(double));
        std::memcpy(t2_hi, row_hi(ins.b), n * sizeof(double));
        for (std::size_t j = 0; j < n; ++j) {
          t3_lo[j] = -kInf;  // ceil_iv = (-inf, z.hi]
          t3_hi[j] = zhi[j];
        }
        intersect(ins.a, t3_lo, t3_hi, nullptr);
        intersect(ins.b, t3_lo, t3_hi, nullptr);
        for (std::size_t j = 0; j < n; ++j) cond[j] = t2_hi[j] < zlo[j];
        intersect(ins.a, zlo, zhi, cond);
        for (std::size_t j = 0; j < n; ++j) cond[j] = t1_hi[j] < zlo[j];
        intersect(ins.b, zlo, zhi, cond);
        break;
      }
      case Op::kNeg:
        K.neg(zlo, zhi, t2_lo, t2_hi, n);
        intersect(ins.a, t2_lo, t2_hi, nullptr);
        break;
      case Op::kExp:
        for (std::size_t j = 0; j < n; ++j) {
          if (!alive[j]) continue;
          const Interval x = Log(Interval(zlo[j], zhi[j]));
          if (x.IsEmpty()) {  // z entirely < 0
            die(j);
            continue;
          }
          narrow_lane(ins.a, j, x);
        }
        break;
      case Op::kLog:
        for (std::size_t j = 0; j < n; ++j) {
          if (!alive[j]) continue;
          narrow_lane(ins.a, j, Exp(Interval(zlo[j], zhi[j])));
        }
        break;
      case Op::kSqrt:
        for (std::size_t j = 0; j < n; ++j) {
          if (!alive[j]) continue;
          const Interval zz =
              Interval(zlo[j], zhi[j]).Intersect(Interval::NonNegative());
          if (zz.IsEmpty()) {
            die(j);
            continue;
          }
          narrow_lane(ins.a, j, Sqr(zz));
        }
        break;
      case Op::kCbrt:
        for (std::size_t j = 0; j < n; ++j) {
          if (!alive[j]) continue;
          narrow_lane(ins.a, j, PowInt(Interval(zlo[j], zhi[j]), 3));
        }
        break;
      case Op::kSin:
      case Op::kCos:
        break;  // multivalued inverse: no contraction
      case Op::kAtan:
        for (std::size_t j = 0; j < n; ++j) {
          if (!alive[j]) continue;
          narrow_lane(ins.a, j,
                      TanRestricted(Interval(zlo[j], zhi[j])
                                        .Intersect(Interval(
                                            -kHalfPi - 1e-12,
                                            kHalfPi + 1e-12))));
        }
        break;
      case Op::kTanh:
        for (std::size_t j = 0; j < n; ++j) {
          if (!alive[j]) continue;
          narrow_lane(ins.a, j,
                      AtanhRestricted(Interval(zlo[j], zhi[j])
                                          .Intersect(Interval(-1.0, 1.0))));
        }
        break;
      case Op::kAbs: {
        const double* xlo = row_lo(ins.a);
        const double* xhi = row_hi(ins.a);
        for (std::size_t j = 0; j < n; ++j) {
          if (!alive[j]) continue;
          const Interval zz =
              Interval(zlo[j], zhi[j]).Intersect(Interval::NonNegative());
          if (zz.IsEmpty()) {
            die(j);
            continue;
          }
          const Interval x(xlo[j], xhi[j]);
          Interval proj(-zz.hi(), zz.hi());
          if (x.lo() >= 0.0)
            proj = zz;
          else if (x.hi() <= 0.0)
            proj = -zz;
          narrow_lane(ins.a, j, proj);
        }
        break;
      }
      case Op::kLambertW:
        for (std::size_t j = 0; j < n; ++j) {
          if (!alive[j]) continue;
          // z = W0(x)  =>  x = z e^z; W0 range is [-1, inf).
          const Interval zz =
              Interval(zlo[j], zhi[j]).Intersect(Interval(-1.0, kInf));
          if (zz.IsEmpty()) {
            die(j);
            continue;
          }
          narrow_lane(ins.a, j, WidenUlps(zz * Exp(zz), 2));
        }
        break;
      case Op::kSqr:
        for (std::size_t j = 0; j < n; ++j) {
          if (!alive[j]) continue;
          // z = x²: |x| <= sqrt(z.hi).
          const Interval r = Sqrt(
              Interval(zlo[j], zhi[j]).Intersect(Interval::NonNegative()));
          if (r.IsEmpty()) {
            die(j);
            continue;
          }
          narrow_lane(ins.a, j, Interval(-r.hi(), r.hi()));
        }
        break;
      case Op::kIte: {
        // Contract the taken branch only when the condition is decided over
        // the (forward) operand enclosures; otherwise no contraction.
        const double* llo = row_lo(ins.a);
        const double* lhi = row_hi(ins.a);
        const double* rlo = row_lo(ins.b);
        const double* rhi = row_hi(ins.b);
        for (std::size_t j = 0; j < n; ++j) {
          if (!alive[j]) continue;
          const Interval l(llo[j], lhi[j]), r(rlo[j], rhi[j]);
          const bool can_true =
              ins.rel == Rel::kLe ? PossiblyLe(l, r) : PossiblyLt(l, r);
          const bool can_false =
              ins.rel == Rel::kLe ? PossiblyLt(r, l) : PossiblyLe(r, l);
          const Interval z(zlo[j], zhi[j]);
          if (can_true && !can_false) narrow_lane(ins.c, j, z);
          if (can_false && !can_true) narrow_lane(ins.d, j, z);
        }
        break;
      }
    }
  }

  // Fold narrowed variable slots back into the boxes. Lanes die at the first
  // empty intersection exactly like the scalar fold returns kEmpty there —
  // earlier variable writes persist (callers discard infeasible boxes). A
  // clean variable slot still holds the box bits, which fold to themselves.
  for (std::size_t var = 0; var < tape.var_slot.size(); ++var) {
    const std::int32_t slot = tape.var_slot[var];
    if (slot < 0 || !dirty[static_cast<std::size_t>(slot)]) continue;
    const double* slo = bs.lo_rows[static_cast<std::size_t>(slot)];
    const double* shi = bs.hi_rows[static_cast<std::size_t>(slot)];
    double* blo = box_lo[var];
    double* bhi = box_hi[var];
    for (std::size_t j = 0; j < n; ++j) {
      if (!alive[j]) continue;
      const Interval before(blo[j], bhi[j]);
      const Interval after = before.Intersect(Interval(slo[j], shi[j]));
      if (after.IsEmpty()) {
        die(j);
        continue;
      }
      if (after != before) {
        blo[j] = after.lo();
        bhi[j] = after.hi();
        outcome[j] = kContractLaneContracted;
      }
    }
  }
}

}  // namespace xcv::expr
