#include "expr/optimize.h"

#include <bit>
#include <cmath>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "support/check.h"
#include "support/fnv.h"

namespace xcv::expr {

namespace {

// Value-numbering key: full structural identity of an instruction. Constant
// payloads compare by bit pattern so NaN and -0.0 are preserved and hashable.
struct InstrKey {
  Op op;
  Rel rel;
  std::uint64_t value_bits;
  int var;
  std::int32_t a, b, c, d;
  std::vector<std::int32_t> rest;

  bool operator==(const InstrKey& o) const {
    return op == o.op && rel == o.rel && value_bits == o.value_bits &&
           var == o.var && a == o.a && b == o.b && c == o.c && d == o.d &&
           rest == o.rest;
  }
};

struct InstrKeyHash {
  std::size_t operator()(const InstrKey& k) const {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    auto mix = [&h](std::uint64_t v) {
      h ^= v;
      h *= 0x100000001b3ULL;
    };
    mix(static_cast<std::uint64_t>(k.op));
    mix(static_cast<std::uint64_t>(k.rel));
    mix(k.value_bits);
    mix(static_cast<std::uint64_t>(static_cast<std::uint32_t>(k.var)));
    mix(static_cast<std::uint64_t>(static_cast<std::uint32_t>(k.a)));
    mix(static_cast<std::uint64_t>(static_cast<std::uint32_t>(k.b)));
    mix(static_cast<std::uint64_t>(static_cast<std::uint32_t>(k.c)));
    mix(static_cast<std::uint64_t>(static_cast<std::uint32_t>(k.d)));
    for (auto s : k.rest)
      mix(static_cast<std::uint64_t>(static_cast<std::uint32_t>(s)));
    return static_cast<std::size_t>(h);
  }
};

InstrKey KeyOf(const Instr& ins) {
  InstrKey k{ins.op,
             ins.rel,
             std::bit_cast<std::uint64_t>(ins.value),
             ins.var,
             ins.a,
             ins.b,
             ins.c,
             ins.d,
             ins.rest};
  return k;
}

constexpr int kMaxReducedExponent = 64;

class TapeOptimizer {
 public:
  explicit TapeOptimizer(const Tape& in, OptimizeStats* stats)
      : in_(in), stats_(stats) {}

  Tape Run() {
    map_.reserve(in_.size());
    for (const Instr& ins : in_.instrs) map_.push_back(Rewrite(ins));
    return Finish();
  }

 private:
  // ---- Emission with value numbering ----------------------------------------

  bool IsConst(std::int32_t slot) const {
    return out_[static_cast<std::size_t>(slot)].op == Op::kConst;
  }
  double ConstVal(std::int32_t slot) const {
    return out_[static_cast<std::size_t>(slot)].value;
  }

  std::int32_t EmitRaw(Instr ins) {
    auto [it, inserted] =
        cse_.emplace(KeyOf(ins), static_cast<std::int32_t>(out_.size()));
    if (inserted) out_.push_back(std::move(ins));
    return it->second;
  }

  std::int32_t EmitConst(double v) {
    Instr ins;
    ins.op = Op::kConst;
    ins.value = v;
    return EmitRaw(std::move(ins));
  }

  std::int32_t EmitUnary(Op op, std::int32_t a, int payload = -1) {
    Instr ins;
    ins.op = op;
    ins.a = a;
    ins.var = payload;  // kPowN exponent
    return EmitRaw(std::move(ins));
  }

  std::int32_t EmitBinary(Op op, std::int32_t a, std::int32_t b) {
    Instr ins;
    ins.op = op;
    ins.a = a;
    ins.b = b;
    return EmitRaw(std::move(ins));
  }

  // ---- Strength reduction ---------------------------------------------------

  // x^k for non-negative integer k as pown/sqr (k == 1 aliases the base).
  std::int32_t EmitIntPow(std::int32_t base, int k) {
    XCV_DCHECK(k >= 1);
    if (k == 1) return base;
    if (k == 2) return EmitUnary(Op::kSqr, base);
    return EmitUnary(Op::kPowN, base, k);
  }

  // x^p for constant p. Returns the slot computing the reduced form, or -1
  // when no reduction applies (caller emits the generic kPow).
  //
  // Reductions cover integer and exact quarter-integer exponents (0.25,
  // 0.5, 0.75 fractional parts — these are exactly representable doubles,
  // so e.g. x^2.5 → x²·√x and x^-0.25 → 1/√(√x) denote the same real
  // function; thirds like 5/3 are NOT representable and are left alone).
  // The enhancement factors this engine spends its time in are dominated by
  // such powers: s², t², SCAN's (1+4y)^-1/4 switch, and the half-integer
  // chains their derivatives introduce.
  std::int32_t ReducePow(std::int32_t base, double p) {
    if (p == std::floor(p) && std::fabs(p) <= kMaxReducedExponent) {
      if (p == 2.0) return EmitUnary(Op::kSqr, base);
      return EmitUnary(Op::kPowN, base, static_cast<int>(p));
    }
    const double quadruple = 4.0 * p;
    if (quadruple != std::floor(quadruple) ||
        std::fabs(p) > kMaxReducedExponent)
      return -1;
    if (p < 0.0)
      return EmitBinary(Op::kDiv, EmitConst(1.0), ReducePow(base, -p));
    // p = k + f with f in {0.25, 0.5, 0.75}; x^p = x^k · x^f, and x^f is a
    // sqrt chain: x^0.5 = √x, x^0.25 = √√x, x^0.75 = √x · √√x. All factors
    // share the same natural domain x ≥ 0 as the original power.
    const int k = static_cast<int>(std::floor(p));
    const double f = p - std::floor(p);
    const std::int32_t root = EmitUnary(Op::kSqrt, base);
    std::int32_t frac;
    if (f == 0.5) {
      frac = root;
    } else if (f == 0.25) {
      frac = EmitUnary(Op::kSqrt, root);
    } else {
      frac = EmitBinary(Op::kMul, root, EmitUnary(Op::kSqrt, root));
    }
    return k == 0 ? frac : EmitBinary(Op::kMul, EmitIntPow(base, k), frac);
  }

  // ---- Per-instruction rewrite ----------------------------------------------

  std::int32_t MapSlot(std::int32_t old_slot) const {
    XCV_DCHECK(old_slot >= 0 &&
               static_cast<std::size_t>(old_slot) < map_.size());
    return map_[static_cast<std::size_t>(old_slot)];
  }

  std::int32_t RewriteNary(const Instr& ins) {
    std::vector<std::int32_t> ops;
    ops.reserve(2 + ins.rest.size());
    ops.push_back(MapSlot(ins.a));
    ops.push_back(MapSlot(ins.b));
    for (auto r : ins.rest) ops.push_back(MapSlot(r));
    if (ins.op == Op::kAdd) return EmitNary(Op::kAdd, std::move(ops));

    // Mul(-1, ...) is the builder's spelling of negation (it merges a
    // product's constants into one leading factor); hoist the sign into a
    // kNeg and multiply one factor less. IEEE rounding is sign-symmetric, so
    // -(x*y) == (-1*x)*y bit for bit.
    if (IsConst(ops[0]) && ConstVal(ops[0]) == -1.0) {
      if (stats_) ++stats_->simplified;
      ops.erase(ops.begin());
      return EmitUnary(Op::kNeg, EmitNary(Op::kMul, std::move(ops)));
    }
    CollapseAdjacentSquares(ops);
    return EmitNary(Op::kMul, std::move(ops));
  }

  /// mul(..., x, x, ...) → mul(..., sqr(x), ...). The builder's canonical
  /// operand order keeps duplicated factors adjacent (s·s, x·x in PW92), so
  /// this catches the hand-written squares the kPow reducer cannot see.
  void CollapseAdjacentSquares(std::vector<std::int32_t>& operands) {
    std::size_t w = 0;
    for (std::size_t i = 0; i < operands.size(); ++w) {
      if (i + 1 < operands.size() && operands[i] == operands[i + 1]) {
        operands[w] = EmitUnary(Op::kSqr, operands[i]);
        if (stats_) ++stats_->simplified;
        i += 2;
      } else {
        operands[w] = operands[i];
        ++i;
      }
    }
    operands.resize(w);
  }

  /// Emits an n-ary add/mul over `operands` (a single operand is an alias).
  std::int32_t EmitNary(Op op, std::vector<std::int32_t> operands) {
    XCV_DCHECK(!operands.empty());
    if (operands.size() == 1) return operands[0];
    Instr ins;
    ins.op = op;
    ins.a = operands[0];
    ins.b = operands[1];
    if (operands.size() > 2)
      ins.rest.assign(operands.begin() + 2, operands.end());
    return EmitRaw(std::move(ins));
  }

  std::int32_t Rewrite(const Instr& ins) {
    switch (ins.op) {
      case Op::kConst:
        return EmitConst(ins.value);
      case Op::kVar: {
        Instr var;
        var.op = Op::kVar;
        var.var = ins.var;
        return EmitRaw(std::move(var));
      }
      case Op::kAdd:
      case Op::kMul:
        return RewriteNary(ins);
      case Op::kDiv:
        return EmitBinary(Op::kDiv, MapSlot(ins.a), MapSlot(ins.b));
      case Op::kPow: {
        const std::int32_t a = MapSlot(ins.a), b = MapSlot(ins.b);
        if (IsConst(b)) {
          const std::int32_t reduced = ReducePow(a, ConstVal(b));
          if (reduced >= 0) {
            if (stats_) ++stats_->strength_reduced;
            return reduced;
          }
        }
        return EmitBinary(Op::kPow, a, b);
      }
      case Op::kMin:
      case Op::kMax: {
        // Operands CSE merged: min(x^2, x*x) is min(sqr(x), sqr(x)).
        const std::int32_t a = MapSlot(ins.a), b = MapSlot(ins.b);
        if (a == b) {
          if (stats_) ++stats_->simplified;
          return a;
        }
        return EmitBinary(ins.op, a, b);
      }
      case Op::kNeg:
      case Op::kExp:
      case Op::kLog:
      case Op::kSqrt:
      case Op::kCbrt:
      case Op::kSin:
      case Op::kCos:
      case Op::kAtan:
      case Op::kTanh:
      case Op::kAbs:
      case Op::kLambertW:
      case Op::kSqr:
      case Op::kPowN:
        return EmitUnary(ins.op, MapSlot(ins.a), ins.var);
      case Op::kIte: {
        const std::int32_t a = MapSlot(ins.a), b = MapSlot(ins.b);
        const std::int32_t c = MapSlot(ins.c), d = MapSlot(ins.d);
        if (c == d) {
          if (stats_) ++stats_->simplified;
          return c;
        }
        Instr ite;
        ite.op = Op::kIte;
        ite.rel = ins.rel;
        ite.a = a;
        ite.b = b;
        ite.c = c;
        ite.d = d;
        return EmitRaw(std::move(ite));
      }
    }
    XCV_CHECK_MSG(false, "unhandled op in optimizer");
    return -1;
  }

  // ---- Dead-slot elimination and renumbering --------------------------------

  Tape Finish() {
    const auto root = MapSlot(static_cast<std::int32_t>(in_.root()));
    std::vector<char> live(out_.size(), 0);
    std::vector<std::int32_t> work{root};
    while (!work.empty()) {
      const std::int32_t s = work.back();
      work.pop_back();
      auto& flag = live[static_cast<std::size_t>(s)];
      if (flag) continue;
      flag = 1;
      const Instr& ins = out_[static_cast<std::size_t>(s)];
      // kVar/kPowN payloads live in `var`, not a slot; only a..d and rest
      // reference instructions.
      if (ins.op == Op::kVar || ins.op == Op::kConst) continue;
      for (std::int32_t o : {ins.a, ins.b, ins.c, ins.d})
        if (o >= 0) work.push_back(o);
      for (std::int32_t o : ins.rest) work.push_back(o);
    }

    Tape result;
    result.num_env_slots = in_.num_env_slots;
    std::vector<std::int32_t> renumber(out_.size(), -1);
    for (std::size_t i = 0; i < out_.size(); ++i) {
      if (!live[i]) continue;
      renumber[i] = static_cast<std::int32_t>(result.instrs.size());
      Instr ins = std::move(out_[i]);
      if (ins.op != Op::kVar && ins.op != Op::kConst) {
        auto remap = [&renumber](std::int32_t& slot) {
          if (slot >= 0) slot = renumber[static_cast<std::size_t>(slot)];
        };
        remap(ins.a);
        remap(ins.b);
        remap(ins.c);
        remap(ins.d);
        for (auto& r : ins.rest) remap(r);
      }
      result.instrs.push_back(std::move(ins));
    }
    XCV_CHECK_MSG(renumber[static_cast<std::size_t>(root)] ==
                      static_cast<std::int32_t>(result.instrs.size()) - 1,
                  "optimizer root is not the final slot");

    result.var_slot.assign(static_cast<std::size_t>(result.num_env_slots),
                           -1);
    for (std::size_t i = 0; i < result.instrs.size(); ++i) {
      const Instr& ins = result.instrs[i];
      if (ins.op == Op::kVar)
        result.var_slot[static_cast<std::size_t>(ins.var)] =
            static_cast<std::int32_t>(i);
    }

    if (stats_) {
      stats_->size_before = in_.size();
      stats_->size_after = result.size();
      stats_->eliminated = out_.size() - result.size();
    }
    return result;
  }

  const Tape& in_;
  OptimizeStats* stats_;
  std::vector<Instr> out_;
  std::vector<std::int32_t> map_;
  std::unordered_map<InstrKey, std::int32_t, InstrKeyHash> cse_;
};

}  // namespace

Tape Optimize(const Tape& tape, OptimizeStats* stats) {
  XCV_CHECK(!tape.instrs.empty());
  if (stats) *stats = OptimizeStats{};
  return TapeOptimizer(tape, stats).Run();
}

Tape CompileOptimized(const Expr& e, OptimizeStats* stats) {
  return Optimize(Compile(e), stats);
}

std::uint64_t TapeFingerprint(const Tape& tape) {
  using support::FnvMix;
  std::uint64_t h = support::kFnvOffset;
  h = FnvMix(h, tape.instrs.size());
  h = FnvMix(h, static_cast<std::uint64_t>(tape.num_env_slots));
  for (const Instr& in : tape.instrs) {
    h = FnvMix(h, static_cast<std::uint64_t>(in.op));
    h = FnvMix(h, static_cast<std::uint64_t>(in.rel));
    // Constants by bit pattern: NaN payloads and -0.0 stay distinct, exactly
    // as the optimizer's own value numbering treats them.
    h = FnvMix(h, std::bit_cast<std::uint64_t>(in.value));
    h = FnvMix(h, static_cast<std::uint64_t>(static_cast<std::int64_t>(in.var)));
    h = FnvMix(h, static_cast<std::uint64_t>(static_cast<std::int64_t>(in.a)));
    h = FnvMix(h, static_cast<std::uint64_t>(static_cast<std::int64_t>(in.b)));
    h = FnvMix(h, static_cast<std::uint64_t>(static_cast<std::int64_t>(in.c)));
    h = FnvMix(h, static_cast<std::uint64_t>(static_cast<std::int64_t>(in.d)));
    h = FnvMix(h, in.rest.size());
    for (std::int32_t r : in.rest)
      h = FnvMix(h, static_cast<std::uint64_t>(static_cast<std::int64_t>(r)));
  }
  return h;
}

}  // namespace xcv::expr
