// Capture-free substitution of a variable by an expression, with DAG
// memoization. Used by the conditions layer to form F_c(∞) ≈ F_c|rs=100
// (EC6) and by tests.
#include <unordered_map>

#include "expr/expr.h"
#include "support/check.h"

namespace xcv::expr {

namespace {

class Substituter {
 public:
  Substituter(const Expr& var, const Expr& replacement)
      : var_index_(var.node().var_index()), replacement_(replacement) {
    XCV_CHECK_MSG(var.IsVariable(), "Substitute: var must be a variable");
  }

  Expr Apply(const Expr& e) {
    auto it = memo_.find(e.id());
    if (it != memo_.end()) return it->second;
    Expr r = Rebuild(e);
    memo_.emplace(e.id(), r);
    return r;
  }

 private:
  Expr Rebuild(const Expr& e) {
    const Node& n = e.node();
    switch (n.op()) {
      case Op::kConst:
        return e;
      case Op::kVar:
        return n.var_index() == var_index_ ? replacement_ : e;
      default:
        break;
    }
    const auto& ch = n.children();
    std::vector<Expr> nc;
    nc.reserve(ch.size());
    bool changed = false;
    for (const Expr& c : ch) {
      Expr r = Apply(c);
      changed = changed || r != c;
      nc.push_back(r);
    }
    if (!changed) return e;
    switch (n.op()) {
      case Op::kAdd: return Add(std::move(nc));
      case Op::kMul: return Mul(std::move(nc));
      case Op::kDiv: return Div(nc[0], nc[1]);
      case Op::kPow: return Pow(nc[0], nc[1]);
      case Op::kMin: return Min(nc[0], nc[1]);
      case Op::kMax: return Max(nc[0], nc[1]);
      case Op::kExp: return ExpE(nc[0]);
      case Op::kLog: return LogE(nc[0]);
      case Op::kSqrt: return SqrtE(nc[0]);
      case Op::kCbrt: return CbrtE(nc[0]);
      case Op::kSin: return SinE(nc[0]);
      case Op::kCos: return CosE(nc[0]);
      case Op::kAtan: return AtanE(nc[0]);
      case Op::kTanh: return TanhE(nc[0]);
      case Op::kAbs: return AbsE(nc[0]);
      case Op::kLambertW: return LambertW0E(nc[0]);
      case Op::kIte: return Ite(nc[0], n.rel(), nc[1], nc[2], nc[3]);
      case Op::kConst:
      case Op::kVar:
        break;
      case Op::kNeg:  // tape-only (op.h)
      case Op::kSqr:
      case Op::kPowN:
        break;
    }
    XCV_CHECK_MSG(false, "unhandled op in Substitute");
    return Expr();
  }

  int var_index_;
  Expr replacement_;
  std::unordered_map<std::uint32_t, Expr> memo_;
};

}  // namespace

Expr Substitute(const Expr& e, const Expr& var, const Expr& replacement) {
  XCV_CHECK(!e.IsNull() && !replacement.IsNull());
  return Substituter(var, replacement).Apply(e);
}

}  // namespace xcv::expr
