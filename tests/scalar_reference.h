// Scalar reference evaluators: the independent oracles the bit-identity
// audits compare the production evaluators against.
//
// EvalDouble / EvalBool / EvalBoolWithSlack are the recursive tree walk over
// the expression DAG (IEEE doubles, memoized per distinct node per call) —
// the reference for exact point truth, which production runs on compiled
// tapes at width 1 (expr::CompiledFormula::Holds, bool_expr_test's audit);
// CollectAtoms is the reference for that type's atom order.
//
// Everything else walks a tape one instruction at a time over one point or
// one box, calling the interval functions of src/interval/ directly:
//   * EvalTape — IEEE double evaluation (the per-point reference for
//     EvalTapeBatch and for the optimizer's value checks);
//   * EvalTapeIntervalForward — per-slot interval enclosures (the reference
//     for EvalTapeIntervalBatch);
//   * ContractFromForward / Contract — the HC4-revise backward sweep (the
//     reference for ContractTapeIntervalBatch), returning the same
//     kContractLane* outcome vocabulary.
// The batched kernels must match these endpoint for endpoint at every wave
// width and SIMD tier (interval_batch_test, interval_backward_batch_test,
// and bench_micro's boxes_match audit). Nothing under src/ calls them.
#pragma once

#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <unordered_map>
#include <vector>

#include "expr/bool_expr.h"
#include "expr/compile.h"
#include "expr/interval_backward_batch.h"
#include "interval/interval.h"
#include "interval/inverse.h"
#include "interval/lambert_w.h"
#include "support/check.h"

namespace xcv::oracle {

using expr::BoolExpr;
using expr::Expr;
using expr::Instr;
using expr::Node;
using expr::Op;
using expr::Rel;
using expr::Tape;

// ---- Tree walk over the expression DAG --------------------------------------

class DoubleEvaluator {
 public:
  explicit DoubleEvaluator(std::span<const double> env) : env_(env) {}

  double Eval(const Expr& e) {
    auto it = memo_.find(e.id());
    if (it != memo_.end()) return it->second;
    double v = Compute(e);
    memo_.emplace(e.id(), v);
    return v;
  }

 private:
  double Compute(const Expr& e) {
    const Node& n = e.node();
    const auto& ch = n.children();
    switch (n.op()) {
      case Op::kConst:
        return n.value();
      case Op::kVar:
        XCV_CHECK_MSG(n.var_index() >= 0 &&
                          static_cast<std::size_t>(n.var_index()) < env_.size(),
                      "variable '" << n.var_name() << "' (index "
                                   << n.var_index()
                                   << ") outside environment of size "
                                   << env_.size());
        return env_[static_cast<std::size_t>(n.var_index())];
      case Op::kAdd: {
        double s = 0.0;
        for (const Expr& c : ch) s += Eval(c);
        return s;
      }
      case Op::kMul: {
        double p = 1.0;
        for (const Expr& c : ch) p *= Eval(c);
        return p;
      }
      case Op::kDiv:
        return Eval(ch[0]) / Eval(ch[1]);
      case Op::kPow:
        return std::pow(Eval(ch[0]), Eval(ch[1]));
      case Op::kMin:
        return std::fmin(Eval(ch[0]), Eval(ch[1]));
      case Op::kMax:
        return std::fmax(Eval(ch[0]), Eval(ch[1]));
      case Op::kExp:
        return std::exp(Eval(ch[0]));
      case Op::kLog:
        return std::log(Eval(ch[0]));
      case Op::kSqrt:
        return std::sqrt(Eval(ch[0]));
      case Op::kCbrt:
        return std::cbrt(Eval(ch[0]));
      case Op::kSin:
        return std::sin(Eval(ch[0]));
      case Op::kCos:
        return std::cos(Eval(ch[0]));
      case Op::kAtan:
        return std::atan(Eval(ch[0]));
      case Op::kTanh:
        return std::tanh(Eval(ch[0]));
      case Op::kAbs:
        return std::fabs(Eval(ch[0]));
      case Op::kLambertW:
        return LambertW0(Eval(ch[0]));
      case Op::kIte: {
        const double l = Eval(ch[0]), r = Eval(ch[1]);
        const bool cond = n.rel() == Rel::kLe ? l <= r : l < r;
        return cond ? Eval(ch[2]) : Eval(ch[3]);
      }
      case Op::kNeg:  // tape-only (op.h)
      case Op::kSqr:
      case Op::kPowN:
        break;
    }
    XCV_CHECK_MSG(false, "unhandled op in EvalDouble");
    return 0.0;
  }

  std::span<const double> env_;
  std::unordered_map<std::uint32_t, double> memo_;
};

/// Evaluates `e` at the point `env` (env[i] is the value of the variable
/// with index i). Out-of-range variable indices throw InternalError.
/// May return NaN/inf if the point is outside a function's domain.
inline double EvalDouble(const Expr& e, std::span<const double> env) {
  XCV_CHECK(!e.IsNull());
  return DoubleEvaluator(env).Eval(e);
}

/// Truth value with slack: an atom "e ≤ 0" counts as satisfied when
/// e ≤ slack (and "e < 0" when e < slack). slack = 0 is EvalBool.
inline bool EvalBoolWithSlack(const BoolExpr& b, std::span<const double> env,
                              double slack) {
  XCV_CHECK(!b.IsNull());
  switch (b.kind()) {
    case BoolExpr::Kind::kTrue: return true;
    case BoolExpr::Kind::kFalse: return false;
    case BoolExpr::Kind::kAtom: {
      const double v = EvalDouble(b.atom(), env);
      // NaN fails both comparisons — an out-of-domain point satisfies no
      // atom, matching dReal's semantics on undefined terms.
      return b.rel() == Rel::kLe ? v <= slack : v < slack;
    }
    case BoolExpr::Kind::kAnd:
      for (const BoolExpr& c : b.children())
        if (!EvalBoolWithSlack(c, env, slack)) return false;
      return true;
    case BoolExpr::Kind::kOr:
      for (const BoolExpr& c : b.children())
        if (EvalBoolWithSlack(c, env, slack)) return true;
      return false;
  }
  XCV_CHECK_MSG(false, "unhandled kind in EvalBool");
  return false;
}

/// Exact truth value at a point (IEEE double semantics).
inline bool EvalBool(const BoolExpr& b, std::span<const double> env) {
  return EvalBoolWithSlack(b, env, 0.0);
}

/// Every atom occurrence in `b`, in pre-order (repeats included).
inline std::vector<BoolExpr> CollectAtoms(const BoolExpr& b) {
  XCV_CHECK(!b.IsNull());
  std::vector<BoolExpr> atoms;
  auto walk = [&](auto&& self, const BoolExpr& x) -> void {
    switch (x.kind()) {
      case BoolExpr::Kind::kAtom:
        atoms.push_back(x);
        return;
      case BoolExpr::Kind::kAnd:
      case BoolExpr::Kind::kOr:
        for (const BoolExpr& c : x.children()) self(self, c);
        return;
      default:
        return;
    }
  };
  walk(walk, b);
  return atoms;
}

// ---- Tape walks ---------------------------------------------------------------

/// Scratch buffers reusable across evaluations.
struct TapeScratch {
  std::vector<double> values;
  std::vector<Interval> intervals;
};

/// Double evaluation of the tape at `env`. Resizes `scratch` as needed.
inline double EvalTape(const Tape& tape, std::span<const double> env,
                       TapeScratch& scratch) {
  auto& v = scratch.values;
  v.resize(tape.size());
  for (std::size_t i = 0; i < tape.size(); ++i) {
    const Instr& ins = tape.instrs[i];
    switch (ins.op) {
      case Op::kConst:
        v[i] = ins.value;
        break;
      case Op::kVar:
        XCV_CHECK_MSG(ins.var >= 0 &&
                          static_cast<std::size_t>(ins.var) < env.size(),
                      "tape variable index " << ins.var
                                             << " outside environment");
        v[i] = env[static_cast<std::size_t>(ins.var)];
        break;
      case Op::kAdd: {
        double s = (0.0 + v[ins.a]) + v[ins.b];
        for (auto r : ins.rest) s += v[r];
        v[i] = s;
        break;
      }
      case Op::kMul: {
        double p = v[ins.a] * v[ins.b];
        for (auto r : ins.rest) p *= v[r];
        v[i] = p;
        break;
      }
      case Op::kDiv: v[i] = v[ins.a] / v[ins.b]; break;
      case Op::kPow: v[i] = std::pow(v[ins.a], v[ins.b]); break;
      case Op::kMin: v[i] = std::fmin(v[ins.a], v[ins.b]); break;
      case Op::kMax: v[i] = std::fmax(v[ins.a], v[ins.b]); break;
      case Op::kNeg: v[i] = -v[ins.a]; break;
      case Op::kExp: v[i] = std::exp(v[ins.a]); break;
      case Op::kLog: v[i] = std::log(v[ins.a]); break;
      case Op::kSqrt: v[i] = std::sqrt(v[ins.a]); break;
      case Op::kCbrt: v[i] = std::cbrt(v[ins.a]); break;
      case Op::kSin: v[i] = std::sin(v[ins.a]); break;
      case Op::kCos: v[i] = std::cos(v[ins.a]); break;
      case Op::kAtan: v[i] = std::atan(v[ins.a]); break;
      case Op::kTanh: v[i] = std::tanh(v[ins.a]); break;
      case Op::kAbs: v[i] = std::fabs(v[ins.a]); break;
      case Op::kLambertW: v[i] = LambertW0(v[ins.a]); break;
      case Op::kSqr: v[i] = v[ins.a] * v[ins.a]; break;
      case Op::kPowN: v[i] = expr::PowNScalar(v[ins.a], ins.var); break;
      case Op::kIte: {
        const bool cond = ins.rel == Rel::kLe ? v[ins.a] <= v[ins.b]
                                              : v[ins.a] < v[ins.b];
        v[i] = cond ? v[ins.c] : v[ins.d];
        break;
      }
    }
  }
  return v.back();
}

/// Interval evaluation of the tape over `box` that leaves the per-slot
/// enclosures in `scratch.intervals` (the forward phase of HC4-revise).
inline Interval EvalTapeIntervalForward(const Tape& tape,
                                        std::span<const Interval> box,
                                        TapeScratch& scratch) {
  auto& v = scratch.intervals;
  // Every slot is overwritten below, so a resize (no refill) suffices.
  v.resize(tape.size());
  for (std::size_t i = 0; i < tape.size(); ++i) {
    const Instr& ins = tape.instrs[i];
    switch (ins.op) {
      case Op::kConst:
        v[i] = Interval(ins.value);
        break;
      case Op::kVar:
        XCV_CHECK_MSG(ins.var >= 0 &&
                          static_cast<std::size_t>(ins.var) < box.size(),
                      "tape variable index " << ins.var << " outside box");
        v[i] = box[static_cast<std::size_t>(ins.var)];
        break;
      case Op::kAdd: {
        Interval s = v[ins.a] + v[ins.b];
        for (auto r : ins.rest) s = s + v[r];
        v[i] = s;
        break;
      }
      case Op::kMul: {
        Interval p = v[ins.a] * v[ins.b];
        for (auto r : ins.rest) p = p * v[r];
        v[i] = p;
        break;
      }
      case Op::kDiv: v[i] = v[ins.a] / v[ins.b]; break;
      case Op::kPow: v[i] = Pow(v[ins.a], v[ins.b]); break;
      case Op::kMin: v[i] = Min(v[ins.a], v[ins.b]); break;
      case Op::kMax: v[i] = Max(v[ins.a], v[ins.b]); break;
      case Op::kNeg: v[i] = -v[ins.a]; break;
      case Op::kExp: v[i] = Exp(v[ins.a]); break;
      case Op::kLog: v[i] = Log(v[ins.a]); break;
      case Op::kSqrt: v[i] = Sqrt(v[ins.a]); break;
      case Op::kCbrt: v[i] = Cbrt(v[ins.a]); break;
      case Op::kSin: v[i] = Sin(v[ins.a]); break;
      case Op::kCos: v[i] = Cos(v[ins.a]); break;
      case Op::kAtan: v[i] = Atan(v[ins.a]); break;
      case Op::kTanh: v[i] = Tanh(v[ins.a]); break;
      case Op::kAbs: v[i] = Abs(v[ins.a]); break;
      case Op::kLambertW: v[i] = LambertW0(v[ins.a]); break;
      case Op::kSqr: v[i] = Sqr(v[ins.a]); break;
      case Op::kPowN: v[i] = PowInt(v[ins.a], ins.var); break;
      case Op::kIte: {
        const Interval l = v[ins.a], r = v[ins.b];
        const bool can_true =
            ins.rel == Rel::kLe ? PossiblyLe(l, r) : PossiblyLt(l, r);
        const bool can_false =
            ins.rel == Rel::kLe ? PossiblyLt(r, l) : PossiblyLe(r, l);
        Interval out = Interval::Empty();
        if (can_true) out = out.Hull(v[ins.c]);
        if (can_false) out = out.Hull(v[ins.d]);
        v[i] = out;
        break;
      }
    }
  }
  return v.back();
}

/// The backward half of HC4-revise for the atom "tape rel 0" (the
/// constraint set is (-inf, 0] for either relation): `v` must hold the
/// tape's forward enclosures over `box` and is clobbered by the narrowing;
/// narrowed variable domains are folded back into `box`. Returns
/// kContractLaneEmpty if the atom holds nowhere in `box`, else
/// kContractLaneContracted or kContractLaneNoChange.
inline signed char ContractFromForward(const Tape& tape,
                                       std::span<Interval> box,
                                       std::vector<Interval>& v) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr signed char kEmpty = expr::kContractLaneEmpty;
  const Interval root = v[static_cast<std::size_t>(tape.root())];
  if (root.IsEmpty()) return kEmpty;

  // The constraint set is (-inf, 0]; for strict < the closure is the same,
  // which is a sound over-approximation.
  Interval narrowed = root.Intersect(Interval::NonPositive());
  if (narrowed.IsEmpty()) return kEmpty;

  v[static_cast<std::size_t>(tape.root())] = narrowed;

  // Reverse sweep. Because the tape is in topological order, every parent is
  // processed before its children, so narrowings flow root-to-leaves.
  // Projections from un-narrowed parents are expansive no-ops (sound).
  std::vector<std::int32_t> operand_slots;
  for (std::size_t k = tape.size(); k-- > 0;) {
    const Instr& ins = tape.instrs[k];
    const Interval z = v[k];
    if (z.IsEmpty()) return kEmpty;
    auto narrow = [&](std::int32_t slot, const Interval& projection) {
      v[static_cast<std::size_t>(slot)] =
          v[static_cast<std::size_t>(slot)].Intersect(projection);
    };
    switch (ins.op) {
      case Op::kConst:
        if (!z.Contains(ins.value)) return kEmpty;
        break;
      case Op::kVar:
        break;  // handled after the sweep
      case Op::kAdd: {
        // Project each operand *position*: skip exactly one occurrence of
        // the slot, so duplicated operands (x + x) are handled soundly.
        operand_slots.clear();
        operand_slots.push_back(ins.a);
        operand_slots.push_back(ins.b);
        operand_slots.insert(operand_slots.end(), ins.rest.begin(),
                             ins.rest.end());
        for (std::size_t p = 0; p < operand_slots.size(); ++p) {
          Interval others(0.0);
          for (std::size_t q = 0; q < operand_slots.size(); ++q)
            if (q != p)
              others = others +
                       v[static_cast<std::size_t>(operand_slots[q])];
          narrow(operand_slots[p], z - others);
        }
        break;
      }
      case Op::kMul: {
        operand_slots.clear();
        operand_slots.push_back(ins.a);
        operand_slots.push_back(ins.b);
        operand_slots.insert(operand_slots.end(), ins.rest.begin(),
                             ins.rest.end());
        for (std::size_t p = 0; p < operand_slots.size(); ++p) {
          Interval others(1.0);
          for (std::size_t q = 0; q < operand_slots.size(); ++q)
            if (q != p)
              others = others *
                       v[static_cast<std::size_t>(operand_slots[q])];
          if (!others.ContainsZero()) narrow(operand_slots[p], z / others);
        }
        break;
      }
      case Op::kDiv: {
        // z = x / y  =>  x = z * y,  y = x / z.
        narrow(ins.a, z * v[static_cast<std::size_t>(ins.b)]);
        if (!z.ContainsZero())
          narrow(ins.b, v[static_cast<std::size_t>(ins.a)] / z);
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
        const Interval r =
            PowPreimage(z, v[static_cast<std::size_t>(ins.a)], p);
        if (r.IsEmpty()) return kEmpty;
        narrow(ins.a, r);
        break;
      }
      case Op::kMin: {
        // z = min(x, y): both operands are >= z.lo; if one operand cannot
        // attain the minimum, the other must equal z.
        const Interval floor_iv(z.lo(), kInf);
        const Interval x = v[static_cast<std::size_t>(ins.a)];
        const Interval y = v[static_cast<std::size_t>(ins.b)];
        narrow(ins.a, floor_iv);
        narrow(ins.b, floor_iv);
        if (y.lo() > z.hi()) narrow(ins.a, z);
        if (x.lo() > z.hi()) narrow(ins.b, z);
        break;
      }
      case Op::kMax: {
        const Interval ceil_iv(-kInf, z.hi());
        const Interval x = v[static_cast<std::size_t>(ins.a)];
        const Interval y = v[static_cast<std::size_t>(ins.b)];
        narrow(ins.a, ceil_iv);
        narrow(ins.b, ceil_iv);
        if (y.hi() < z.lo()) narrow(ins.a, z);
        if (x.hi() < z.lo()) narrow(ins.b, z);
        break;
      }
      case Op::kNeg:
        narrow(ins.a, -z);
        break;
      case Op::kExp: {
        Interval x = Log(z);
        if (x.IsEmpty()) return kEmpty;  // z entirely < 0
        narrow(ins.a, x);
        break;
      }
      case Op::kLog:
        narrow(ins.a, Exp(z));
        break;
      case Op::kSqrt: {
        Interval zz = z.Intersect(Interval::NonNegative());
        if (zz.IsEmpty()) return kEmpty;
        narrow(ins.a, Sqr(zz));
        break;
      }
      case Op::kCbrt:
        narrow(ins.a, PowInt(z, 3));
        break;
      case Op::kSin:
      case Op::kCos:
        break;  // multivalued inverse: no contraction
      case Op::kAtan:
        narrow(ins.a, TanRestricted(z.Intersect(
                          Interval(-kHalfPi - 1e-12, kHalfPi + 1e-12))));
        break;
      case Op::kTanh:
        narrow(ins.a, AtanhRestricted(z.Intersect(Interval(-1.0, 1.0))));
        break;
      case Op::kAbs: {
        Interval zz = z.Intersect(Interval::NonNegative());
        if (zz.IsEmpty()) return kEmpty;
        const Interval x = v[static_cast<std::size_t>(ins.a)];
        Interval proj(-zz.hi(), zz.hi());
        if (x.lo() >= 0.0) proj = zz;
        else if (x.hi() <= 0.0) proj = -zz;
        narrow(ins.a, proj);
        break;
      }
      case Op::kLambertW: {
        // z = W0(x)  =>  x = z e^z; W0 range is [-1, inf).
        Interval zz = z.Intersect(Interval(-1.0, kInf));
        if (zz.IsEmpty()) return kEmpty;
        narrow(ins.a, WidenUlps(zz * Exp(zz), 2));
        break;
      }
      case Op::kSqr: {
        // z = x²: |x| <= sqrt(z.hi).
        Interval r = Sqrt(z.Intersect(Interval::NonNegative()));
        if (r.IsEmpty()) return kEmpty;
        narrow(ins.a, Interval(-r.hi(), r.hi()));
        break;
      }
      case Op::kIte: {
        // Contract the taken branch only when the condition is decided over
        // the (forward) operand enclosures; otherwise no contraction.
        const Interval l = v[static_cast<std::size_t>(ins.a)];
        const Interval r = v[static_cast<std::size_t>(ins.b)];
        const bool can_true =
            ins.rel == Rel::kLe ? PossiblyLe(l, r) : PossiblyLt(l, r);
        const bool can_false =
            ins.rel == Rel::kLe ? PossiblyLt(r, l) : PossiblyLe(r, l);
        if (can_true && !can_false) narrow(ins.c, z);
        if (can_false && !can_true) narrow(ins.d, z);
        break;
      }
    }
  }

  // Fold narrowed variable slots back into the box.
  bool contracted = false;
  for (std::size_t var = 0; var < tape.var_slot.size(); ++var) {
    const std::int32_t slot = tape.var_slot[var];
    if (slot < 0) continue;
    const Interval before = box[var];
    const Interval after = before.Intersect(v[static_cast<std::size_t>(slot)]);
    if (after.IsEmpty()) return kEmpty;
    if (after != before) {
      box[var] = after;
      contracted = true;
    }
  }
  return contracted ? expr::kContractLaneContracted
                    : expr::kContractLaneNoChange;
}

/// HC4-revise: a forward sweep over `box`, then ContractFromForward.
inline signed char Contract(const Tape& tape, std::span<Interval> box,
                            TapeScratch& scratch) {
  EvalTapeIntervalForward(tape, box, scratch);
  return ContractFromForward(tape, box, scratch.intervals);
}

}  // namespace xcv::oracle
