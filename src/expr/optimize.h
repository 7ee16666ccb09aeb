// Tape optimizer: rewrites a compiled tape into a shorter, faster one that
// denotes the same function (under the builder's value conventions) and whose
// interval evaluation still encloses it.
//
// Passes, applied in one forward sweep with value numbering plus a final
// dead-slot elimination:
//   * Constant folding — an instruction whose operands are all constants is
//     replaced by its value, computed with exactly the double semantics
//     EvalTapeBatch uses (so point values are unchanged bit for bit).
//   * Algebraic identities — x+0, x*1, x*0, x/1, mul(-1,x) → neg, neg(neg x),
//     min/max(x,x), ite with equal branches or decided constant conditions.
//     These mirror the smart-constructor rewrites in builder.cpp (same
//     value conventions over the natural domain), catching the instances
//     that appear only after other tape rewrites.
//   * Strength reduction — kPow with a constant integer or exact
//     half-integer exponent becomes kSqr / kPowN / kSqrt-based chains:
//     x^2 → sqr(x), x^n → pown(x,n), x^0.5 → sqrt(x),
//     x^(n+0.5) → pown(x,n)·sqrt(x), negative exponents via one divide.
//     Only exactly-representable exponents are reduced, so the rewritten
//     tape computes the same real function (PBE/LYP/SCAN enhancement
//     factors are dominated by such powers). Scalar results may differ from
//     std::pow by a few ulps; interval results stay sound enclosures.
//   * CSE + dead-slot elimination — value numbering dedups subcomputations
//     the rewrites expose (e.g. a shared sqrt(x)); orphaned slots (dead
//     exponent constants and rewritten pows) are removed and the remaining
//     slots renumbered, preserving topological order.
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
  std::size_t folded = 0;            // instructions constant-folded away
  std::size_t simplified = 0;        // identity rewrites applied
  std::size_t strength_reduced = 0;  // pow instructions reduced
  std::size_t cse_hits = 0;          // value-numbering dedups
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
