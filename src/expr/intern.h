// Hash-consing table for expression nodes (internal header).
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "expr/expr.h"

namespace xcv::expr {

/// Process-wide intern table. All Node construction funnels through
/// Intern(), which returns the existing node for structurally identical
/// inputs. Thread-safe (single mutex; contention is negligible next to
/// solver work).
class NodeInterner {
 public:
  static NodeInterner& Instance();

  /// Returns the canonical Expr for the given structure.
  Expr Intern(Op op, Rel rel, double value, int var_index,
              const std::string& var_name, std::vector<Expr> children);

 private:
  struct Key {
    Op op;
    Rel rel;
    std::uint64_t value_bits;
    int var_index;
    std::string var_name;
    std::vector<std::uint32_t> child_ids;
    bool operator==(const Key& other) const = default;
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const;
  };

  std::mutex mu_;
  std::unordered_map<Key, std::shared_ptr<const Node>, KeyHash> table_;
  std::uint32_t next_id_ = 1;
};

}  // namespace xcv::expr
