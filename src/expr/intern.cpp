#include "expr/intern.h"

#include <bit>
#include <functional>

#include "support/check.h"

namespace xcv::expr {

namespace {
std::size_t HashCombine(std::size_t seed, std::size_t v) {
  return seed ^ (v + 0x9e3779b97f4a7c15ULL + (seed << 6) + (seed >> 2));
}
}  // namespace

std::size_t NodeInterner::KeyHash::operator()(const Key& k) const {
  std::size_t h = static_cast<std::size_t>(k.op);
  h = HashCombine(h, static_cast<std::size_t>(k.rel));
  h = HashCombine(h, std::hash<std::uint64_t>{}(k.value_bits));
  h = HashCombine(h, std::hash<int>{}(k.var_index));
  h = HashCombine(h, std::hash<std::string>{}(k.var_name));
  for (auto id : k.child_ids) h = HashCombine(h, id);
  return h;
}

NodeInterner& NodeInterner::Instance() {
  static NodeInterner* interner = new NodeInterner();  // never destroyed
  return *interner;
}

Expr NodeInterner::Intern(Op op, Rel rel, double value, int var_index,
                          const std::string& var_name,
                          std::vector<Expr> children) {
  Key key;
  key.op = op;
  key.rel = rel;
  key.value_bits = std::bit_cast<std::uint64_t>(value);
  key.var_index = var_index;
  key.var_name = var_name;
  key.child_ids.reserve(children.size());
  for (const Expr& c : children) {
    XCV_CHECK_MSG(!c.IsNull(), "null child passed to Intern");
    key.child_ids.push_back(c.id());
  }

  std::lock_guard<std::mutex> lock(mu_);
  auto it = table_.find(key);
  if (it != table_.end()) return Expr(it->second);

  auto node = std::make_shared<Node>();
  node->op_ = op;
  node->rel_ = rel;
  node->value_ = value;
  node->var_index_ = var_index;
  node->var_name_ = var_name;
  node->children_ = std::move(children);
  node->id_ = next_id_++;
  XCV_CHECK_MSG(next_id_ != 0, "node id counter overflow");
  table_.emplace(std::move(key), node);
  return Expr(std::move(node));
}

// ---- Expr accessors that need Node's definition ------------------------------

std::uint32_t Expr::id() const { return node_->id(); }
Op Expr::op() const { return node_->op(); }
bool Expr::IsConstant() const { return node_->op() == Op::kConst; }
bool Expr::IsVariable() const { return node_->op() == Op::kVar; }

double Expr::ConstantValue() const {
  XCV_CHECK(IsConstant());
  return node_->value();
}

Expr Expr::Constant(double v) {
  return NodeInterner::Instance().Intern(Op::kConst, Rel::kLe, v, -1, "", {});
}

Expr Expr::Variable(const std::string& name, int index) {
  XCV_CHECK_MSG(index >= 0, "variable index must be non-negative");
  return NodeInterner::Instance().Intern(Op::kVar, Rel::kLe, 0.0, index, name,
                                         {});
}

}  // namespace xcv::expr
