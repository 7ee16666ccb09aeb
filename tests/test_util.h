// Shared helpers for the xcverifier test suite: deterministic RNG wrappers,
// random interval/box/expression generators for property tests, and
// finite-difference utilities for validating symbolic derivatives.
#pragma once

#include <cmath>
#include <random>
#include <vector>

#include "expr/expr.h"
#include "interval/interval.h"
#include "solver/box.h"
#include "support/simd.h"
#include "tests/scalar_reference.h"

namespace xcv::testing {

/// Deterministic RNG for reproducible property tests.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : engine_(seed) {}

  double Uniform(double lo, double hi) {
    return std::uniform_real_distribution<double>(lo, hi)(engine_);
  }

  int UniformInt(int lo, int hi) {  // inclusive
    return std::uniform_int_distribution<int>(lo, hi)(engine_);
  }

  bool Bernoulli(double p = 0.5) {
    return std::bernoulli_distribution(p)(engine_);
  }

  /// Random interval within [lo, hi] (possibly degenerate).
  Interval RandomInterval(double lo, double hi) {
    double a = Uniform(lo, hi), b = Uniform(lo, hi);
    if (a > b) std::swap(a, b);
    return Interval(a, b);
  }

  /// Random point inside a non-empty interval.
  double PointIn(const Interval& iv) {
    return Uniform(iv.lo(), iv.hi());
  }

  /// Random point inside a box.
  std::vector<double> PointIn(const solver::Box& box) {
    std::vector<double> p(box.size());
    for (std::size_t i = 0; i < box.size(); ++i) p[i] = PointIn(box[i]);
    return p;
  }

  std::mt19937_64& engine() { return engine_; }

 private:
  std::mt19937_64 engine_;
};

/// Generates random smooth expressions over the given variables, suitable
/// for derivative/eval/HC4 property tests. Expressions stay within safe
/// numeric territory for inputs in (0.1, 4): denominators are offset from
/// zero, exp arguments bounded, sqrt/log arguments positive.
class RandomExprGen {
 public:
  RandomExprGen(Rng& rng, std::vector<expr::Expr> vars)
      : rng_(rng), vars_(std::move(vars)) {}

  expr::Expr Gen(int depth) {
    using expr::Expr;
    if (depth <= 0 || rng_.Bernoulli(0.25)) {
      if (rng_.Bernoulli(0.6))
        return vars_[static_cast<std::size_t>(
            rng_.UniformInt(0, static_cast<int>(vars_.size()) - 1))];
      return Expr::Constant(rng_.Uniform(-3.0, 3.0));
    }
    switch (rng_.UniformInt(0, 11)) {
      case 0: return Gen(depth - 1) + Gen(depth - 1);
      case 1: return Gen(depth - 1) - Gen(depth - 1);
      case 2: return Gen(depth - 1) * Gen(depth - 1);
      case 3:
        // Keep the denominator away from zero.
        return Gen(depth - 1) /
               (expr::AbsE(Gen(depth - 1)) + Expr::Constant(0.5));
      case 4:
        return expr::ExpE(expr::TanhE(Gen(depth - 1)));  // bounded argument
      case 5:
        return expr::LogE(expr::AbsE(Gen(depth - 1)) + Expr::Constant(0.5));
      case 6:
        return expr::SqrtE(expr::AbsE(Gen(depth - 1)) + Expr::Constant(0.1));
      case 7:
        return expr::Pow(expr::AbsE(Gen(depth - 1)) + Expr::Constant(0.2),
                         Expr::Constant(rng_.Uniform(-2.0, 2.5)));
      case 8:
        return expr::AtanE(Gen(depth - 1));
      case 9:
        return expr::Min(Gen(depth - 1), Gen(depth - 1));
      case 10:
        return expr::Max(Gen(depth - 1), Gen(depth - 1));
      default:
        return expr::SinE(Gen(depth - 1));
    }
  }

 private:
  Rng& rng_;
  std::vector<expr::Expr> vars_;
};

/// Runs `body(tier)` once under every compiled-and-runnable SIMD tier, then
/// restores the tier that was active. Returns the number of tiers run.
template <typename Fn>
int ForEachRunnableTier(Fn&& body) {
  const simd::Tier original = simd::ActiveTier();
  int ran = 0;
  for (int ti = 0; ti < simd::kNumTiers; ++ti) {
    const auto tier = static_cast<simd::Tier>(ti);
    if (!simd::ForceTierForTesting(tier)) continue;  // not runnable here
    body(tier);
    ++ran;
  }
  simd::ForceTierForTesting(original);
  return ran;
}

/// Central-difference derivative of `e` w.r.t. variable slot `var_index`.
inline double FiniteDifference(const expr::Expr& e,
                               std::vector<double> env,
                               std::size_t var_index, double h = 1e-6) {
  env[var_index] += h;
  const double hi = oracle::EvalDouble(e, env);
  env[var_index] -= 2.0 * h;
  const double lo = oracle::EvalDouble(e, env);
  return (hi - lo) / (2.0 * h);
}

}  // namespace xcv::testing
