// Symbolic differentiation on the hash-consed DAG.
//
// This replaces the paper's use of SymPy: conditions EC2–EC7 need exact
// ∂F_c/∂rs and ∂²F_c/∂rs², and the paper stresses that computing them
// symbolically avoids the numerical-approximation pitfalls of the PB grid
// approach. Memoization per (node, var) keeps derivative DAGs compact.
#include <unordered_map>

#include "expr/expr.h"
#include "support/check.h"

namespace xcv::expr {

namespace {

class Differentiator {
 public:
  explicit Differentiator(const Expr& var) : var_(var) {
    XCV_CHECK_MSG(var.IsVariable(), "Differentiate: var must be a variable");
  }

  Expr Diff(const Expr& e) {
    auto it = memo_.find(e.id());
    if (it != memo_.end()) return it->second;
    Expr d = Compute(e);
    memo_.emplace(e.id(), d);
    return d;
  }

 private:
  Expr Compute(const Expr& e) {
    const Node& n = e.node();
    const auto& ch = n.children();
    switch (n.op()) {
      case Op::kConst:
        return Expr::Constant(0.0);
      case Op::kVar:
        return n.var_index() == var_.node().var_index()
                   ? Expr::Constant(1.0)
                   : Expr::Constant(0.0);
      case Op::kAdd: {
        std::vector<Expr> terms;
        terms.reserve(ch.size());
        for (const Expr& c : ch) terms.push_back(Diff(c));
        return Add(std::move(terms));
      }
      case Op::kMul: {
        // n-ary product rule: sum_i (prod_{j != i} c_j) * c_i'.
        std::vector<Expr> terms;
        for (std::size_t i = 0; i < ch.size(); ++i) {
          Expr di = Diff(ch[i]);
          if (di.IsConstant() && di.ConstantValue() == 0.0) continue;
          std::vector<Expr> factors;
          factors.reserve(ch.size());
          for (std::size_t j = 0; j < ch.size(); ++j)
            if (j != i) factors.push_back(ch[j]);
          factors.push_back(di);
          terms.push_back(Mul(std::move(factors)));
        }
        return Add(std::move(terms));
      }
      case Op::kDiv: {
        const Expr &a = ch[0], &b = ch[1];
        Expr da = Diff(a), db = Diff(b);
        return Div(Sub(Mul(da, b), Mul(a, db)), Mul(b, b));
      }
      case Op::kPow: {
        const Expr &a = ch[0], &b = ch[1];
        Expr da = Diff(a);
        if (b.IsConstant()) {
          const double p = b.ConstantValue();
          return Mul({Expr::Constant(p), Pow(a, p - 1.0), da});
        }
        Expr db = Diff(b);
        // d a^b = a^b (b' ln a + b a'/a), valid on a > 0 (all non-constant
        // exponents in the functional layer have positive bases).
        return Mul(e, Add(Mul(db, LogE(a)), Div(Mul(b, da), a)));
      }
      case Op::kMin:
        return Ite(ch[0], Rel::kLe, ch[1], Diff(ch[0]), Diff(ch[1]));
      case Op::kMax:
        return Ite(ch[0], Rel::kLe, ch[1], Diff(ch[1]), Diff(ch[0]));
      case Op::kExp:
        return Mul(e, Diff(ch[0]));
      case Op::kLog:
        return Div(Diff(ch[0]), ch[0]);
      case Op::kSqrt:
        return Div(Diff(ch[0]), Mul(Expr::Constant(2.0), e));
      case Op::kCbrt:
        // d cbrt(x) = x' / (3 cbrt(x)^2).
        return Div(Diff(ch[0]), Mul(Expr::Constant(3.0), Mul(e, e)));
      case Op::kSin:
        return Mul(CosE(ch[0]), Diff(ch[0]));
      case Op::kCos:
        return Neg(Mul(SinE(ch[0]), Diff(ch[0])));
      case Op::kAtan:
        return Div(Diff(ch[0]),
                   Add(Expr::Constant(1.0), Mul(ch[0], ch[0])));
      case Op::kTanh:
        return Mul(Sub(Expr::Constant(1.0), Mul(e, e)), Diff(ch[0]));
      case Op::kAbs:
        // sign(x) x' away from 0 (conditions never probe |.|'s kink).
        return Ite(Expr::Constant(0.0), Rel::kLe, ch[0], Diff(ch[0]),
                   Neg(Diff(ch[0])));
      case Op::kLambertW:
        // W'(x) = e^{-W(x)} / (1 + W(x)) — regular at x = 0.
        return Mul(Div(ExpE(Neg(e)), Add(Expr::Constant(1.0), e)),
                   Diff(ch[0]));
      case Op::kIte:
        // Branch-wise derivative; the condition itself is treated as locally
        // constant (correct except exactly on the switching surface).
        return Ite(ch[0], n.rel(), ch[1], Diff(ch[2]), Diff(ch[3]));
      case Op::kNeg:  // tape-only (op.h)
      case Op::kSqr:
      case Op::kPowN:
        break;
    }
    XCV_CHECK_MSG(false, "unhandled op in Differentiate");
    return Expr();
  }

  Expr var_;
  std::unordered_map<std::uint32_t, Expr> memo_;
};

}  // namespace

Expr Differentiate(const Expr& e, const Expr& var) {
  XCV_CHECK(!e.IsNull());
  return Differentiator(var).Diff(e);
}

}  // namespace xcv::expr
