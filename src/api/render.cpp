#include "api/render.h"

#include <algorithm>
#include <cstdio>

#include "campaign/serialize.h"
#include "obs/metrics.h"
#include "report/tables.h"
#include "support/fault.h"
#include "support/simd.h"
#include "verifier/region.h"

namespace xcv::api {

using campaign::PairState;
using conditions::ConditionInfo;

namespace {

/// printf-append: the renderers keep the CLI's exact historical formats,
/// so they format through snprintf rather than iostreams. Lines longer
/// than the stack buffer (e.g. unusually long functional names or fault
/// help text) reformat into a heap string — never truncated.
template <typename... Args>
void Appendf(std::string& out, const char* fmt, Args... args) {
  char buf[1024];
  const int n = std::snprintf(buf, sizeof(buf), fmt, args...);
  if (n <= 0) return;
  if (static_cast<std::size_t>(n) < sizeof(buf)) {
    out.append(buf, static_cast<std::size_t>(n));
    return;
  }
  std::string big(static_cast<std::size_t>(n) + 1, '\0');
  std::snprintf(&big[0], big.size(), fmt, args...);
  big.resize(static_cast<std::size_t>(n));
  out += big;
}

}  // namespace

std::string RenderReport(OutputMode mode,
                         const campaign::CampaignOptions& options,
                         const std::vector<PairState>& pairs, bool cancelled) {
  switch (mode) {
    case OutputMode::kJson:
      return campaign::CheckpointToJson(options, pairs, cancelled);
    case OutputMode::kCsv: return CsvReport(pairs);
    case OutputMode::kTable: return TableReport(pairs);
  }
  return TableReport(pairs);
}

std::string CsvReport(const std::vector<PairState>& pairs) {
  std::string out;
  out +=
      "functional,condition,applicable,done,verdict,verified_frac,"
      "counterexample_frac,inconclusive_frac,timeout_frac,leaves,witnesses,"
      "solver_calls,solver_timeouts,cache_hits,cache_misses,cache_rejected,"
      "seconds\n";
  using verifier::RegionStatus;
  for (const PairState& p : pairs) {
    Appendf(out,
            "%s,%s,%d,%d,%s,%.6f,%.6f,%.6f,%.6f,%zu,%zu,%llu,%llu,%llu,%llu,"
            "%llu,%.3f\n",
            p.functional.c_str(), p.condition.c_str(), p.applicable ? 1 : 0,
            p.done ? 1 : 0, campaign::VerdictToken(p.verdict).c_str(),
            p.report.VolumeFraction(RegionStatus::kVerified),
            p.report.VolumeFraction(RegionStatus::kCounterexample),
            p.report.VolumeFraction(RegionStatus::kInconclusive),
            p.report.VolumeFraction(RegionStatus::kTimeout),
            p.report.leaves.size(), p.report.witnesses.size(),
            static_cast<unsigned long long>(p.report.solver_calls),
            static_cast<unsigned long long>(p.report.solver_timeouts),
            static_cast<unsigned long long>(p.report.cache_hits),
            static_cast<unsigned long long>(p.report.cache_misses),
            static_cast<unsigned long long>(p.report.cache_rejected),
            p.seconds);
  }
  return out;
}

std::string TableReport(const std::vector<PairState>& pairs) {
  std::string out;
  // Recover the row/column structure from the pair list (works for both
  // fresh matrices and resumed subsets).
  std::vector<std::string> conds, funcs;
  for (const PairState& p : pairs) {
    if (std::find(conds.begin(), conds.end(), p.condition) == conds.end())
      conds.push_back(p.condition);
    if (std::find(funcs.begin(), funcs.end(), p.functional) == funcs.end())
      funcs.push_back(p.functional);
  }
  std::vector<std::vector<report::VerdictCell>> cells(
      conds.size(),
      std::vector<report::VerdictCell>(
          funcs.size(), {verifier::Verdict::kNotApplicable}));
  for (const PairState& p : pairs) {
    const auto r = std::find(conds.begin(), conds.end(), p.condition) -
                   conds.begin();
    const auto c = std::find(funcs.begin(), funcs.end(), p.functional) -
                   funcs.begin();
    cells[r][c] = {p.verdict};
  }
  std::vector<std::string> row_labels;
  for (const std::string& c : conds) {
    const ConditionInfo* info = conditions::FindCondition(c);
    row_labels.push_back(info != nullptr ? info->name : c);
  }
  out += report::RenderTable1(row_labels, funcs, cells);
  out += "\n";

  out += "Per-pair detail (fractions of domain volume):\n";
  Appendf(out, "%-10s %-9s %5s %8s %8s %8s %8s %6s %9s\n", "condition",
          "DFA", "done", "verified", "counter", "inconcl", "timeout",
          "calls", "secs");
  using verifier::RegionStatus;
  for (const PairState& p : pairs) {
    if (!p.applicable) continue;
    Appendf(out, "%-10s %-9s %5s %8.3f %8.3f %8.3f %8.3f %6llu %9.2f\n",
            p.condition.c_str(), p.functional.c_str(),
            p.done ? "yes" : "NO",
            p.report.VolumeFraction(RegionStatus::kVerified),
            p.report.VolumeFraction(RegionStatus::kCounterexample),
            p.report.VolumeFraction(RegionStatus::kInconclusive),
            p.report.VolumeFraction(RegionStatus::kTimeout),
            static_cast<unsigned long long>(p.report.solver_calls),
            p.seconds);
  }
  return out;
}

std::string InfoReport() {
  std::string out;
  out += "SIMD dispatch (see src/support/simd.h):\n";
  Appendf(out, "  %-8s %-9s %-10s %-7s %s\n", "tier", "compiled",
          "supported", "active", "flags");
  const simd::Tier active = simd::ActiveTier();
  for (int ti = 0; ti < simd::kNumTiers; ++ti) {
    const auto tier = static_cast<simd::Tier>(ti);
    const bool compiled = simd::TierCompiled(tier);
    const bool supported = simd::TierSupported(tier);
    const simd::Kernels* k = simd::KernelsFor(tier);
    Appendf(out, "  %-8s %-9s %-10s %-7s %s\n", simd::TierName(tier),
            compiled ? "yes" : "no", supported ? "yes" : "no",
            tier == active ? "*" : "", k != nullptr ? k->flags : "-");
  }
  const std::string& env = simd::EnvOverride();
  if (env.empty())
    Appendf(out, "XCV_SIMD: (unset — CPUID picked %s)\n",
            simd::TierName(simd::BestSupportedTier()));
  else
    Appendf(out, "XCV_SIMD: %s\n", env.c_str());
  out +=
      "All tiers produce bit-identical interval endpoints; the choice only\n"
      "affects speed. Override with XCV_SIMD=scalar|sse2|avx2|avx512.\n";
  out += "\nRegistered fault points (--faults / XCV_FAULTS):\n";
  Appendf(out, "  %-38s %-12s %s\n", "point", "arg", "effect");
  for (const support::fault::PointInfo& p :
       support::fault::RegisteredPoints())
    Appendf(out, "  %-38s %-12s %s\n", p.name, p.arg[0] ? p.arg : "-",
            p.help);
  out +=
      "transport.* points also accept a .<node-name> suffix (e.g.\n"
      "transport.preempt.local-0@1) to target one node of a fleet.\n";
  return out;
}

std::string MetricsReport() {
  std::string out = obs::Registry::Global().RenderPrometheus();
  // Families register on first use, so a fresh process (plain `xcv info`)
  // has an empty registry — say so instead of printing nothing.
  if (out.empty())
    out = "# no metrics recorded in this process yet\n";
  return out;
}

}  // namespace xcv::api
