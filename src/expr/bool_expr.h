// Quantifier-free boolean formulas over expression atoms.
//
// Atoms are normalized to "e ≤ 0" or "e < 0". Negation is applied eagerly
// (NNF): ¬(e ≤ 0) = (-e < 0) and ¬(e < 0) = (-e ≤ 0), so formulas are
// and/or trees of atoms. This is the formula class ψ the paper's XCEncoder
// produces — each local condition is a single atom, and the solver query is
// the conjunction of ¬ψ with the box constraints.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "expr/expr.h"

namespace xcv::expr {

class BoolNode;

/// Immutable boolean formula handle.
class BoolExpr {
 public:
  enum class Kind { kTrue, kFalse, kAtom, kAnd, kOr };

  BoolExpr() = default;
  bool IsNull() const { return node_ == nullptr; }

  Kind kind() const;
  /// Atom payload e (meaning "e rel 0"); requires kind()==kAtom.
  const Expr& atom() const;
  /// Atom relation; requires kind()==kAtom.
  Rel rel() const;
  /// Children; requires kAnd/kOr.
  const std::vector<BoolExpr>& children() const;

  std::string ToString() const;

  // ---- Factories ----
  static BoolExpr True();
  static BoolExpr False();
  /// e ≤ 0 (rel=kLe) or e < 0 (rel=kLt).
  static BoolExpr Atom(Expr e, Rel rel);
  /// a ≤ b as an atom (a - b ≤ 0).
  static BoolExpr Le(const Expr& a, const Expr& b);
  static BoolExpr Lt(const Expr& a, const Expr& b);
  static BoolExpr Ge(const Expr& a, const Expr& b);
  static BoolExpr Gt(const Expr& a, const Expr& b);
  static BoolExpr And(std::vector<BoolExpr> conjuncts);
  static BoolExpr Or(std::vector<BoolExpr> disjuncts);
  /// NNF negation (applied eagerly, result contains no negation nodes).
  static BoolExpr Not(const BoolExpr& b);

  bool operator==(const BoolExpr& other) const {
    return node_ == other.node_;
  }

  /// Wraps an existing node. BoolNode is an implementation detail; client
  /// code cannot produce one and should use the factories above.
  explicit BoolExpr(std::shared_ptr<const BoolNode> node)
      : node_(std::move(node)) {}

 private:
  std::shared_ptr<const BoolNode> node_;
};

/// Exact truth value at a point (IEEE double semantics). Used for model
/// validation — Algorithm 1's valid(x).
bool EvalBool(const BoolExpr& b, std::span<const double> env);

/// Truth value with slack: an atom "e ≤ 0" counts as satisfied when
/// e ≤ slack (and "e < 0" when e < slack). With slack > 0 this absorbs
/// floating-point noise in near-boundary residuals — the same role the
/// pass tolerance plays in the PB grid check. slack = 0 is EvalBool.
bool EvalBoolWithSlack(const BoolExpr& b, std::span<const double> env,
                       double slack);

/// Collects the distinct atoms appearing in `b` (pre-order).
std::vector<BoolExpr> CollectAtoms(const BoolExpr& b);

}  // namespace xcv::expr
