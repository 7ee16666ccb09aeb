#include "expr/bool_expr.h"

#include <cstdint>
#include <unordered_map>

#include "support/check.h"

namespace xcv::expr {

class BoolNode {
 public:
  BoolExpr::Kind kind = BoolExpr::Kind::kTrue;
  Expr atom;          // kAtom
  Rel rel = Rel::kLe; // kAtom
  std::vector<BoolExpr> children;  // kAnd/kOr
};

BoolExpr::Kind BoolExpr::kind() const { return node_->kind; }

const Expr& BoolExpr::atom() const {
  XCV_CHECK(node_->kind == Kind::kAtom);
  return node_->atom;
}

Rel BoolExpr::rel() const {
  XCV_CHECK(node_->kind == Kind::kAtom);
  return node_->rel;
}

const std::vector<BoolExpr>& BoolExpr::children() const {
  XCV_CHECK(node_->kind == Kind::kAnd || node_->kind == Kind::kOr);
  return node_->children;
}

namespace {
BoolExpr MakeNode(std::shared_ptr<const BoolNode> n) {
  return BoolExpr(std::move(n));
}
}  // namespace

BoolExpr BoolExpr::True() {
  auto n = std::make_shared<BoolNode>();
  n->kind = Kind::kTrue;
  return MakeNode(std::move(n));
}

BoolExpr BoolExpr::False() {
  auto n = std::make_shared<BoolNode>();
  n->kind = Kind::kFalse;
  return MakeNode(std::move(n));
}

BoolExpr BoolExpr::Atom(Expr e, Rel rel) {
  XCV_CHECK(!e.IsNull());
  if (e.IsConstant()) {
    const double v = e.ConstantValue();
    const bool truth = rel == Rel::kLe ? v <= 0.0 : v < 0.0;
    return truth ? True() : False();
  }
  auto n = std::make_shared<BoolNode>();
  n->kind = Kind::kAtom;
  n->atom = std::move(e);
  n->rel = rel;
  return MakeNode(std::move(n));
}

BoolExpr BoolExpr::Le(const Expr& a, const Expr& b) {
  return Atom(Sub(a, b), Rel::kLe);
}
BoolExpr BoolExpr::Lt(const Expr& a, const Expr& b) {
  return Atom(Sub(a, b), Rel::kLt);
}
BoolExpr BoolExpr::Ge(const Expr& a, const Expr& b) { return Le(b, a); }
BoolExpr BoolExpr::Gt(const Expr& a, const Expr& b) { return Lt(b, a); }

BoolExpr BoolExpr::And(std::vector<BoolExpr> conjuncts) {
  std::vector<BoolExpr> flat;
  for (const BoolExpr& c : conjuncts) {
    XCV_CHECK(!c.IsNull());
    switch (c.kind()) {
      case Kind::kTrue: break;
      case Kind::kFalse: return False();
      case Kind::kAnd:
        for (const BoolExpr& g : c.children()) flat.push_back(g);
        break;
      default: flat.push_back(c);
    }
  }
  if (flat.empty()) return True();
  if (flat.size() == 1) return flat[0];
  auto n = std::make_shared<BoolNode>();
  n->kind = Kind::kAnd;
  n->children = std::move(flat);
  return MakeNode(std::move(n));
}

BoolExpr BoolExpr::Or(std::vector<BoolExpr> disjuncts) {
  std::vector<BoolExpr> flat;
  for (const BoolExpr& c : disjuncts) {
    XCV_CHECK(!c.IsNull());
    switch (c.kind()) {
      case Kind::kFalse: break;
      case Kind::kTrue: return True();
      case Kind::kOr:
        for (const BoolExpr& g : c.children()) flat.push_back(g);
        break;
      default: flat.push_back(c);
    }
  }
  if (flat.empty()) return False();
  if (flat.size() == 1) return flat[0];
  auto n = std::make_shared<BoolNode>();
  n->kind = Kind::kOr;
  n->children = std::move(flat);
  return MakeNode(std::move(n));
}

BoolExpr BoolExpr::Not(const BoolExpr& b) {
  XCV_CHECK(!b.IsNull());
  switch (b.kind()) {
    case Kind::kTrue: return False();
    case Kind::kFalse: return True();
    case Kind::kAtom:
      // ¬(e ≤ 0) == -e < 0;  ¬(e < 0) == -e ≤ 0.
      return Atom(Neg(b.atom()), b.rel() == Rel::kLe ? Rel::kLt : Rel::kLe);
    case Kind::kAnd: {
      std::vector<BoolExpr> neg;
      neg.reserve(b.children().size());
      for (const BoolExpr& c : b.children()) neg.push_back(Not(c));
      return Or(std::move(neg));
    }
    case Kind::kOr: {
      std::vector<BoolExpr> neg;
      neg.reserve(b.children().size());
      for (const BoolExpr& c : b.children()) neg.push_back(Not(c));
      return And(std::move(neg));
    }
  }
  XCV_CHECK_MSG(false, "unhandled kind in Not");
  return BoolExpr();
}

std::string BoolExpr::ToString() const {
  if (IsNull()) return "<null>";
  switch (kind()) {
    case Kind::kTrue: return "true";
    case Kind::kFalse: return "false";
    case Kind::kAtom:
      return "(" + atom().ToString() + (rel() == Rel::kLe ? " <= 0" : " < 0") +
             ")";
    case Kind::kAnd: {
      std::string s = "(and";
      for (const BoolExpr& c : children()) s += " " + c.ToString();
      return s + ")";
    }
    case Kind::kOr: {
      std::string s = "(or";
      for (const BoolExpr& c : children()) s += " " + c.ToString();
      return s + ")";
    }
  }
  return "<?>";
}

namespace {

// Short-circuiting and/or walk of a skeleton; atom_holds(a) decides atom a.
template <typename AtomHolds>
bool WalkSkeleton(const CompiledFormula::Node& node, AtomHolds& atom_holds) {
  switch (node.kind) {
    case BoolExpr::Kind::kTrue: return true;
    case BoolExpr::Kind::kFalse: return false;
    case BoolExpr::Kind::kAtom: return atom_holds(node.atom);
    case BoolExpr::Kind::kAnd:
      for (const CompiledFormula::Node& c : node.children)
        if (!WalkSkeleton(c, atom_holds)) return false;
      return true;
    case BoolExpr::Kind::kOr:
      for (const CompiledFormula::Node& c : node.children)
        if (WalkSkeleton(c, atom_holds)) return true;
      return false;
  }
  XCV_CHECK_MSG(false, "unhandled formula kind");
  return false;
}

bool AtomSatisfied(double value, Rel rel, double slack) {
  // NaN fails both comparisons — an out-of-domain point satisfies no atom,
  // matching dReal's semantics on undefined terms.
  return rel == Rel::kLe ? value <= slack : value < slack;
}

}  // namespace

CompiledFormula::CompiledFormula(const BoolExpr& b) {
  XCV_CHECK(!b.IsNull());
  // Atom identity: interned expression id + relation, in one hashable key.
  std::unordered_map<std::uint64_t, int> atom_index;
  auto compile = [&](auto&& self, const BoolExpr& x) -> Node {
    Node node;
    node.kind = x.kind();
    switch (x.kind()) {
      case BoolExpr::Kind::kTrue:
      case BoolExpr::Kind::kFalse:
        return node;
      case BoolExpr::Kind::kAtom: {
        const std::uint64_t key =
            (static_cast<std::uint64_t>(x.atom().id()) << 1) |
            static_cast<std::uint64_t>(x.rel());
        const auto [it, inserted] =
            atom_index.emplace(key, static_cast<int>(atoms_.size()));
        if (inserted) atoms_.push_back({Compile(x.atom()), x.rel()});
        node.atom = it->second;
        return node;
      }
      case BoolExpr::Kind::kAnd:
      case BoolExpr::Kind::kOr:
        node.children.reserve(x.children().size());
        for (const BoolExpr& c : x.children())
          node.children.push_back(self(self, c));
        return node;
    }
    XCV_CHECK_MSG(false, "unhandled formula kind");
    return node;
  };
  skeleton_ = compile(compile, b);
}

bool CompiledFormula::Holds(std::span<const double> point, double slack,
                            TapeBatchScratch& scratch) const {
  std::vector<const double*> inputs(point.size());
  for (std::size_t v = 0; v < point.size(); ++v) inputs[v] = &point[v];
  auto atom_holds = [&](int a) {
    const Atom& atom = atoms_[static_cast<std::size_t>(a)];
    double value = 0.0;
    EvalTapeBatch(atom.tape, inputs, 1, &value, scratch);
    return AtomSatisfied(value, atom.rel, slack);
  };
  return WalkSkeleton(skeleton_, atom_holds);
}

bool CompiledFormula::HoldsGiven(std::span<const double> atom_values,
                                 double slack) const {
  XCV_DCHECK(atom_values.size() == atoms_.size());
  auto atom_holds = [&](int a) {
    const auto i = static_cast<std::size_t>(a);
    return AtomSatisfied(atom_values[i], atoms_[i].rel, slack);
  };
  return WalkSkeleton(skeleton_, atom_holds);
}

}  // namespace xcv::expr
