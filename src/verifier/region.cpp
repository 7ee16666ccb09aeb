#include "verifier/region.h"

namespace xcv::verifier {

std::string RegionStatusName(RegionStatus status) {
  switch (status) {
    case RegionStatus::kVerified: return "verified";
    case RegionStatus::kCounterexample: return "counterexample";
    case RegionStatus::kInconclusive: return "inconclusive";
    case RegionStatus::kTimeout: return "timeout";
  }
  return "?";
}

std::string VerdictSymbol(Verdict verdict) {
  switch (verdict) {
    case Verdict::kVerified: return "✓";          // ✓
    case Verdict::kVerifiedPartial: return "✓*";  // ✓*
    case Verdict::kUnknown: return "?";
    case Verdict::kCounterexample: return "✗";    // ✗
    case Verdict::kNotApplicable: return "−";     // −
  }
  return "?";
}

std::string VerdictName(Verdict verdict) {
  switch (verdict) {
    case Verdict::kVerified: return "verified";
    case Verdict::kVerifiedPartial: return "partially verified";
    case Verdict::kUnknown: return "unknown (timeout/inconclusive)";
    case Verdict::kCounterexample: return "counterexample found";
    case Verdict::kNotApplicable: return "not applicable";
  }
  return "?";
}

double BoxVolume(const solver::Box& box) {
  double v = 1.0;
  for (std::size_t i = 0; i < box.size(); ++i) v *= box[i].Width();
  return v;
}

double VerificationReport::VolumeFraction(RegionStatus status) const {
  double total = 0.0, matching = 0.0;
  for (const Region& r : leaves) {
    const double v = BoxVolume(r.box);
    total += v;
    if (r.status == status) matching += v;
  }
  return total > 0.0 ? matching / total : 0.0;
}

Verdict VerificationReport::Summarize() const {
  bool any_ce = !witnesses.empty();
  bool any_verified = false;
  bool any_other = false;
  for (const Region& r : leaves) {
    switch (r.status) {
      case RegionStatus::kCounterexample: any_ce = true; break;
      case RegionStatus::kVerified: any_verified = true; break;
      default: any_other = true;
    }
  }
  if (any_ce) return Verdict::kCounterexample;
  if (any_verified && !any_other) return Verdict::kVerified;
  if (any_verified) return Verdict::kVerifiedPartial;
  return Verdict::kUnknown;
}

Verdict PartialVerdict(const VerificationReport& report) {
  const Verdict v = report.Summarize();
  return v == Verdict::kVerified ? Verdict::kVerifiedPartial : v;
}

}  // namespace xcv::verifier
