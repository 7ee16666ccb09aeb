// Region bookkeeping for the domain-splitting verifier: the partition of
// the input domain into verified / counterexample / inconclusive / timeout
// leaves, plus validated witness points. This is what the paper's region
// figures (Figs. 1 and 2, bottom rows) visualize and what Table I's
// ✓ / ✓* / ? / ✗ verdicts summarize.
#pragma once

#include <string>
#include <vector>

#include "solver/box.h"

namespace xcv::verifier {

enum class RegionStatus {
  kVerified,        // solver returned UNSAT for ¬ψ on this leaf
  kCounterexample,  // delta-SAT with a model that truly violates ψ
  kInconclusive,    // delta-SAT with a model that does NOT violate ψ
  kTimeout,         // solver budget exhausted on this leaf
};

std::string RegionStatusName(RegionStatus status);

struct Region {
  solver::Box box;
  RegionStatus status = RegionStatus::kTimeout;
  /// Validated violation witness (kCounterexample leaves only).
  std::vector<double> witness;
};

/// Table I verdicts.
enum class Verdict {
  kVerified,         // ✓ : whole domain verified
  kVerifiedPartial,  // ✓*: some verified, rest timeout/inconclusive
  kUnknown,          // ? : nothing verified (all timeout/inconclusive)
  kCounterexample,   // ✗ : a validated violation exists
  kNotApplicable,    // − : condition does not apply
};

std::string VerdictSymbol(Verdict verdict);
std::string VerdictName(Verdict verdict);

/// Aggregated result of one verification run.
struct VerificationReport {
  std::vector<Region> leaves;
  /// Every validated counterexample point encountered (also on non-leaf
  /// nodes while isolating violation regions).
  std::vector<std::vector<double>> witnesses;
  std::uint64_t solver_calls = 0;
  std::uint64_t solver_timeouts = 0;
  /// Verdict-cache traffic (zero when no cache is configured): boxes decided
  /// from a revalidated cache hit, boxes that missed, and hits discarded by
  /// revalidation. Hits do not count as solver_calls — the cache's whole
  /// point is that no solver ran.
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_rejected = 0;
  double seconds = 0.0;

  /// Fraction of the domain volume with the given leaf status.
  double VolumeFraction(RegionStatus status) const;
  /// Verdict per Table I's legend.
  Verdict Summarize() const;
};

/// Verdict of a report whose domain still has open boxes: a full ✓ cannot
/// be claimed while undecided subdomains remain (a resume could still find
/// a counterexample there), so it degrades to ✓*.
Verdict PartialVerdict(const VerificationReport& report);

/// Volume (product of widths) of a box; dimensions of zero width (point
/// intervals) contribute factor 0.
double BoxVolume(const solver::Box& box);

}  // namespace xcv::verifier
