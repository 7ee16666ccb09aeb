// Operator vocabulary of the expression DAG.
//
// The set matches what density functional approximations need (the paper's
// §I: PBE ~300 ops, SCAN ~1000 ops incl. exp/log) plus the pieces the
// conditions layer adds (derivatives introduce div/pow/log chains) and the
// piecewise switch SCAN's α-interpolation requires (kIte).
#pragma once

#include <cstdint>
#include <string>

namespace xcv::expr {

enum class Op : std::uint8_t {
  kConst,     // leaf: double constant
  kVar,       // leaf: variable (index + name)
  kAdd,       // n-ary sum
  kMul,       // n-ary product
  kDiv,       // binary quotient
  kPow,       // binary power (exponent usually constant)
  kMin,       // binary minimum
  kMax,       // binary maximum
  kNeg,       // unary negation: tape-only, like kSqr and kPowN below
  kExp,
  kLog,
  kSqrt,
  kCbrt,
  kSin,
  kCos,
  kAtan,
  kTanh,
  kAbs,
  kLambertW,  // principal branch W0
  kIte,       // if (child0 REL child1) then child2 else child3

  // Tape-only instructions, produced by the optimizer's strength reduction
  // of kPow with constant exponents (optimize.h). They never appear in
  // expression DAGs, and neither does kNeg: the builder spells -x as
  // mul(-1, x), and the optimizer hoists that sign into a kNeg. DAG walkers
  // (printer, derivative, substitute) need not handle the three; tape
  // evaluators and the HC4 backward sweep must.
  kSqr,   // x^2 as one multiply
  kPowN,  // x^n for integer n (payload in Instr::var), by repeated squaring
};

/// Comparison relation used by kIte conditions and boolean atoms.
/// Only Le/Lt are stored; Ge/Gt are normalized by operand swap.
enum class Rel : std::uint8_t { kLe, kLt };

/// Printable operator name ("add", "exp", ...).
std::string OpName(Op op);

/// True for exp/log/sin/cos/atan/tanh/lambertw — the transcendental subset
/// the paper calls out as the source of solver hardness.
bool IsTranscendental(Op op);

}  // namespace xcv::expr
