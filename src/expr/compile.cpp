#include "expr/compile.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "interval/lambert_w.h"
#include "support/check.h"

namespace xcv::expr {

namespace {

class Compiler {
 public:
  Tape Run(const Expr& root) {
    Visit(root);
    for (auto& [index, slot] : var_slots_)
      tape_.num_env_slots = std::max(tape_.num_env_slots, index + 1);
    tape_.var_slot.assign(static_cast<std::size_t>(tape_.num_env_slots), -1);
    for (auto& [index, slot] : var_slots_)
      tape_.var_slot[static_cast<std::size_t>(index)] = slot;
    return std::move(tape_);
  }

 private:
  std::int32_t Visit(const Expr& e) {
    auto it = memo_.find(e.id());
    if (it != memo_.end()) return it->second;

    const Node& n = e.node();
    const auto& ch = n.children();
    // Children first (topological order).
    std::vector<std::int32_t> slots;
    slots.reserve(ch.size());
    for (const Expr& c : ch) slots.push_back(Visit(c));

    Instr instr;
    instr.op = n.op();
    instr.rel = n.rel();
    instr.value = n.value();
    instr.var = n.var_index();
    if (slots.size() > 0) instr.a = slots[0];
    if (slots.size() > 1) instr.b = slots[1];
    if (slots.size() > 2) instr.c = slots[2];
    if (slots.size() > 3) instr.d = slots[3];
    // kAdd/kMul may have arbitrary arity; kIte uses exactly a..d.
    if ((n.op() == Op::kAdd || n.op() == Op::kMul) && slots.size() > 2)
      instr.rest.assign(slots.begin() + 2, slots.end());

    const auto slot = static_cast<std::int32_t>(tape_.instrs.size());
    tape_.instrs.push_back(std::move(instr));
    memo_.emplace(e.id(), slot);
    if (n.op() == Op::kVar) var_slots_[n.var_index()] = slot;
    return slot;
  }

  Tape tape_;
  std::unordered_map<std::uint32_t, std::int32_t> memo_;
  std::unordered_map<int, std::int32_t> var_slots_;
};

}  // namespace

// Negative n via one final reciprocal. A few ulps off std::pow for large
// |n|, but value-preserving over the reals.
double PowNScalar(double x, int n) {
  if (n < 0) return 1.0 / PowNScalar(x, -n);
  double result = 1.0;
  for (double base = x; n > 0; n >>= 1, base *= base)
    if (n & 1) result *= base;
  return result;
}

Tape Compile(const Expr& e) {
  XCV_CHECK(!e.IsNull());
  return Compiler().Run(e);
}

void EvalTapeBatch(const Tape& tape, std::span<const double* const> inputs,
                   std::size_t n, double* out, TapeBatchScratch& scratch) {
  if (n == 0) return;
  const std::size_t slots = tape.size();
  if (scratch.capacity < n) {
    scratch.capacity = n;
    scratch.lanes.clear();  // old contents are dead; avoid a copying resize
  }
  scratch.lanes.resize(slots * scratch.capacity);
  scratch.rows.resize(slots);

  // Variable slots alias the caller's input arrays directly (no copy); every
  // other slot owns a lane row.
  for (std::size_t i = 0; i < slots; ++i) {
    const Instr& ins = tape.instrs[i];
    if (ins.op == Op::kVar) {
      XCV_CHECK_MSG(ins.var >= 0 &&
                        static_cast<std::size_t>(ins.var) < inputs.size() &&
                        inputs[static_cast<std::size_t>(ins.var)] != nullptr,
                    "tape variable index " << ins.var
                                           << " outside batch inputs");
      scratch.rows[i] = inputs[static_cast<std::size_t>(ins.var)];
    } else {
      scratch.rows[i] = scratch.lanes.data() + i * scratch.capacity;
    }
  }

  for (std::size_t i = 0; i < slots; ++i) {
    const Instr& ins = tape.instrs[i];
    if (ins.op == Op::kVar) continue;
    double* r = scratch.lanes.data() + i * scratch.capacity;
    const double* a = ins.a >= 0 ? scratch.rows[static_cast<std::size_t>(ins.a)]
                                 : nullptr;
    const double* b = ins.b >= 0 ? scratch.rows[static_cast<std::size_t>(ins.b)]
                                 : nullptr;
    switch (ins.op) {
      case Op::kConst: {
        const double c = ins.value;
        for (std::size_t j = 0; j < n; ++j) r[j] = c;
        break;
      }
      case Op::kVar:
        break;  // aliased above
      case Op::kAdd:
        // A sum starts from +0.0, like the expression's own semantics: a
        // sum of -0.0 terms is +0.0, not -0.0 (1/sum keeps its sign).
        for (std::size_t j = 0; j < n; ++j) r[j] = (0.0 + a[j]) + b[j];
        for (auto rest : ins.rest) {
          const double* c = scratch.rows[static_cast<std::size_t>(rest)];
          for (std::size_t j = 0; j < n; ++j) r[j] += c[j];
        }
        break;
      case Op::kMul:
        for (std::size_t j = 0; j < n; ++j) r[j] = a[j] * b[j];
        for (auto rest : ins.rest) {
          const double* c = scratch.rows[static_cast<std::size_t>(rest)];
          for (std::size_t j = 0; j < n; ++j) r[j] *= c[j];
        }
        break;
      case Op::kDiv:
        for (std::size_t j = 0; j < n; ++j) r[j] = a[j] / b[j];
        break;
      case Op::kPow:
        for (std::size_t j = 0; j < n; ++j) r[j] = std::pow(a[j], b[j]);
        break;
      case Op::kMin:
        for (std::size_t j = 0; j < n; ++j) r[j] = std::fmin(a[j], b[j]);
        break;
      case Op::kMax:
        for (std::size_t j = 0; j < n; ++j) r[j] = std::fmax(a[j], b[j]);
        break;
      case Op::kNeg:
        for (std::size_t j = 0; j < n; ++j) r[j] = -a[j];
        break;
      case Op::kExp:
        for (std::size_t j = 0; j < n; ++j) r[j] = std::exp(a[j]);
        break;
      case Op::kLog:
        for (std::size_t j = 0; j < n; ++j) r[j] = std::log(a[j]);
        break;
      case Op::kSqrt:
        for (std::size_t j = 0; j < n; ++j) r[j] = std::sqrt(a[j]);
        break;
      case Op::kCbrt:
        for (std::size_t j = 0; j < n; ++j) r[j] = std::cbrt(a[j]);
        break;
      case Op::kSin:
        for (std::size_t j = 0; j < n; ++j) r[j] = std::sin(a[j]);
        break;
      case Op::kCos:
        for (std::size_t j = 0; j < n; ++j) r[j] = std::cos(a[j]);
        break;
      case Op::kAtan:
        for (std::size_t j = 0; j < n; ++j) r[j] = std::atan(a[j]);
        break;
      case Op::kTanh:
        for (std::size_t j = 0; j < n; ++j) r[j] = std::tanh(a[j]);
        break;
      case Op::kAbs:
        for (std::size_t j = 0; j < n; ++j) r[j] = std::fabs(a[j]);
        break;
      case Op::kLambertW:
        for (std::size_t j = 0; j < n; ++j) r[j] = LambertW0(a[j]);
        break;
      case Op::kSqr:
        for (std::size_t j = 0; j < n; ++j) r[j] = a[j] * a[j];
        break;
      case Op::kPowN: {
        const int p = ins.var;
        if (p == 2) {
          for (std::size_t j = 0; j < n; ++j) r[j] = a[j] * a[j];
        } else if (p == 3) {
          for (std::size_t j = 0; j < n; ++j) r[j] = a[j] * a[j] * a[j];
        } else if (p == -1) {
          for (std::size_t j = 0; j < n; ++j) r[j] = 1.0 / a[j];
        } else {
          for (std::size_t j = 0; j < n; ++j) r[j] = PowNScalar(a[j], p);
        }
        break;
      }
      case Op::kIte: {
        const double* c = scratch.rows[static_cast<std::size_t>(ins.c)];
        const double* d = scratch.rows[static_cast<std::size_t>(ins.d)];
        if (ins.rel == Rel::kLe) {
          for (std::size_t j = 0; j < n; ++j)
            r[j] = a[j] <= b[j] ? c[j] : d[j];
        } else {
          for (std::size_t j = 0; j < n; ++j) r[j] = a[j] < b[j] ? c[j] : d[j];
        }
        break;
      }
    }
  }

  const double* root = scratch.rows[static_cast<std::size_t>(tape.root())];
  std::copy(root, root + n, out);
}

}  // namespace xcv::expr
