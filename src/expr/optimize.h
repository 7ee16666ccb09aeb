// Tape optimizer: rewrites a compiled tape into a shorter, faster one that
// denotes the same function and whose interval evaluation still encloses it.
//
// Constant folding and algebraic identities (x+0, x*1, x*0, x/1, x^0, x^1,
// min/max(x,x), constant operands of any op) belong to the smart
// constructors in builder.cpp. Every DAG node is built by them and Compile
// maps each node to one instruction, so a compiled tape holds nothing for a
// second simplifier to fold. The optimizer makes only the rewrites a DAG
// cannot express, in one forward sweep with value numbering plus a final
// dead-slot elimination:
//   * Sign hoisting — mul(-1, x, ...) (the builder's spelling of -x) becomes
//     neg(mul(x, ...)): one multiply less, bit for bit the same value.
//   * Square collapse — mul(..., x, x, ...) → mul(..., sqr(x), ...).
//   * Strength reduction — kPow with a constant integer or exact
//     quarter-integer exponent becomes kSqr / kPowN / kSqrt-based chains:
//     x^2 → sqr(x), x^n → pown(x,n), x^0.5 → sqrt(x),
//     x^(n+0.5) → pown(x,n)·sqrt(x), negative exponents via one divide.
//     Only exactly-representable exponents are reduced, so the rewritten
//     tape computes the same real function (PBE/LYP/SCAN enhancement
//     factors are dominated by such powers). Scalar results may differ from
//     std::pow by a few ulps; interval results stay sound enclosures.
//   * CSE + dead-slot elimination — value numbering dedups subcomputations
//     the rewrites expose (e.g. a shared sqrt(x), or x^2 and x*x both
//     becoming sqr(x)); a min, max or ite whose operands CSE merged
//     collapses to that operand. Orphaned slots (dead exponent constants
//     and rewritten pows) are removed and the remaining slots renumbered,
//     preserving topological order.
//
// kNeg, kSqr and kPowN are tape-only (op.h): only this pass emits them.
//
// Soundness note: interval evaluation of the optimized tape encloses the
// same real function as the input tape on its natural domain. Rewrites that
// would change domains (e.g. (a^p)^q → a^{pq}) are never applied. For
// half-integer powers over mixed-sign boxes the decomposed enclosure can be
// wider (never narrower than the function's range) — still sound.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "expr/compile.h"
#include "expr/expr.h"

namespace xcv::expr {

/// Counters describing what Optimize() did (for logs, tests, benchmarks).
struct OptimizeStats {
  std::size_t simplified = 0;        // sign hoists, square collapses, and
                                     // min/max/ite over merged operands
  std::size_t strength_reduced = 0;  // pow instructions reduced
  std::size_t eliminated = 0;        // dead slots removed
  std::size_t size_before = 0;
  std::size_t size_after = 0;
};

/// Optimizes `tape`. The result evaluates to the same scalars (bit-identical
/// except for strength-reduced powers, which agree to a few ulps) and its
/// interval evaluation soundly encloses the same function. num_env_slots and
/// the variable indexing are preserved; var_slot is rebuilt.
Tape Optimize(const Tape& tape, OptimizeStats* stats = nullptr);

/// Compile(e) followed by Optimize() — the entry point every hot caller
/// (solver atoms, presampling, grid evaluation) should use.
Tape CompileOptimized(const Expr& e, OptimizeStats* stats = nullptr);

/// Structural 64-bit fingerprint of a tape: FNV-1a over every instruction's
/// op, relation, payload (constant bits, variable index / integer exponent)
/// and operand slots, in tape order. Two tapes get equal fingerprints iff
/// they are instruction-for-instruction identical; since Optimize() is a
/// canonicalizing rewrite (deterministic value numbering over a fixed pass
/// order), the fingerprint of an optimized tape is a stable identity for
/// "the same compiled formula" across processes — what the persistent
/// verdict cache (src/cache/) keys solver results by.
std::uint64_t TapeFingerprint(const Tape& tape);

/// FNV-1a continuation helpers, exposed so cache keys can fold additional
/// words (options, condition ids) into one running fingerprint.
constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
std::uint64_t FnvMix(std::uint64_t h, std::uint64_t word);
std::uint64_t FnvMixString(std::uint64_t h, const std::string& s);

}  // namespace xcv::expr
