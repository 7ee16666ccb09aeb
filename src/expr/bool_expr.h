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

#include "expr/compile.h"
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

/// A formula compiled for exact truth at points — Algorithm 1's valid(x) —
/// and the one implementation of atom deduplication and of the and/or
/// skeleton, which the solver also classifies boxes over and hashes into
/// its cache scope.
///
/// Atoms are deduplicated by (expression id, relation) in first-occurrence
/// pre-order. Each keeps its *unoptimized* tape (expr::Compile, never
/// CompileOptimized: strength-reduced powers differ from std::pow by a few
/// ulps), so an atom's value at a point is the IEEE double value of the
/// expression as written. Point truth walks the skeleton with and/or
/// short-circuiting and runs one width-1 EvalTapeBatch call per atom the
/// walk reaches. Immutable after construction: threads may share one
/// instance, each passing its own scratch.
class CompiledFormula {
 public:
  /// One distinct atom "tape rel 0".
  struct Atom {
    Tape tape;
    Rel rel;
  };
  /// Skeleton node over atom indices.
  struct Node {
    BoolExpr::Kind kind = BoolExpr::Kind::kTrue;
    int atom = -1;               // kAtom: index into atoms()
    std::vector<Node> children;  // kAnd/kOr
  };

  explicit CompiledFormula(const BoolExpr& b);

  const std::vector<Atom>& atoms() const { return atoms_; }
  const Node& skeleton() const { return skeleton_; }

  /// Truth at `point` (point[i] is the value of variable i). An atom
  /// "e ≤ 0" holds when e ≤ slack (and "e < 0" when e < slack); NaN
  /// satisfies no atom. With slack > 0 this absorbs floating-point noise in
  /// near-boundary residuals — the same role the pass tolerance plays in
  /// the PB grid check.
  bool Holds(std::span<const double> point, double slack,
             TapeBatchScratch& scratch) const;

  /// Truth given every atom's value at one point (atom_values[a] is atom
  /// a's), e.g. from a batched sweep over many points. Same atom semantics
  /// as Holds.
  bool HoldsGiven(std::span<const double> atom_values, double slack) const;

 private:
  std::vector<Atom> atoms_;
  Node skeleton_;
};

}  // namespace xcv::expr
