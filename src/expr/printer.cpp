// Infix pretty-printer. Intended for tests, examples, and debugging; output
// is capped so printing a SCAN-sized DAG cannot hang the process.
#include <sstream>

#include "expr/expr.h"
#include "support/check.h"
#include "support/strings.h"

namespace xcv::expr {

namespace {

constexpr std::size_t kMaxPrintedNodes = 20000;

class Printer {
 public:
  std::string Print(const Expr& e) {
    std::ostringstream os;
    Emit(os, e, /*parent_prec=*/0);
    return os.str();
  }

 private:
  // Precedence: add=1, mul/div=2, pow=4, atoms=5.
  static int Precedence(Op op) {
    switch (op) {
      case Op::kAdd: return 1;
      case Op::kMul:
      case Op::kDiv: return 2;
      case Op::kPow: return 4;
      default: return 5;
    }
  }

  void Emit(std::ostringstream& os, const Expr& e, int parent_prec) {
    if (++emitted_ > kMaxPrintedNodes) {
      os << "...";
      return;
    }
    const Node& n = e.node();
    const auto& ch = n.children();
    const int prec = Precedence(n.op());
    const bool paren = prec < parent_prec;
    switch (n.op()) {
      case Op::kConst: {
        const double v = n.value();
        if (v < 0.0) {
          if (parent_prec > 1) os << "(" << FormatDouble(v, 12) << ")";
          else os << FormatDouble(v, 12);
        } else {
          os << FormatDouble(v, 12);
        }
        return;
      }
      case Op::kVar:
        os << n.var_name();
        return;
      case Op::kAdd: {
        if (paren) os << "(";
        for (std::size_t i = 0; i < ch.size(); ++i) {
          if (i) os << " + ";
          Emit(os, ch[i], prec);
        }
        if (paren) os << ")";
        return;
      }
      case Op::kMul: {
        if (paren) os << "(";
        for (std::size_t i = 0; i < ch.size(); ++i) {
          if (i) os << "*";
          Emit(os, ch[i], prec + 1);
        }
        if (paren) os << ")";
        return;
      }
      case Op::kDiv: {
        if (paren) os << "(";
        Emit(os, ch[0], prec);
        os << "/";
        Emit(os, ch[1], prec + 1);
        if (paren) os << ")";
        return;
      }
      case Op::kPow: {
        if (paren) os << "(";
        Emit(os, ch[0], prec + 1);
        os << "^";
        Emit(os, ch[1], prec + 1);
        if (paren) os << ")";
        return;
      }
      case Op::kIte: {
        os << "ite(";
        Emit(os, ch[0], 0);
        os << (n.rel() == Rel::kLe ? " <= " : " < ");
        Emit(os, ch[1], 0);
        os << ", ";
        Emit(os, ch[2], 0);
        os << ", ";
        Emit(os, ch[3], 0);
        os << ")";
        return;
      }
      default: {
        os << OpName(n.op()) << "(";
        for (std::size_t i = 0; i < ch.size(); ++i) {
          if (i) os << ", ";
          Emit(os, ch[i], 0);
        }
        os << ")";
        return;
      }
    }
  }

  std::size_t emitted_ = 0;
};

}  // namespace

std::string Expr::ToString() const {
  if (IsNull()) return "<null>";
  return Printer().Print(*this);
}

}  // namespace xcv::expr
