// Recursive evaluator over the expression DAG.
//
// EvalDouble is IEEE double evaluation — used for model validation
// (Algorithm 1's valid(x)) and the PB grid baseline. It memoizes per
// distinct DAG node per call. Interval enclosures, on which every verified
// or UNSAT claim rests, come from the batched tape kernels in compile.h
// (EvalTapeIntervalBatch; EvalTapeInterval for a single box).
#pragma once

#include <span>

#include "expr/expr.h"

namespace xcv::expr {

/// Evaluates `e` at the point `env` (env[i] is the value of the variable
/// with index i). Out-of-range variable indices throw InternalError.
/// May return NaN/inf if the point is outside a function's domain.
double EvalDouble(const Expr& e, std::span<const double> env);

}  // namespace xcv::expr
