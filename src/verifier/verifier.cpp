#include "verifier/verifier.h"

#include "support/check.h"
#include "support/stopwatch.h"
#include "verifier/engine.h"

namespace xcv::verifier {

using expr::BoolExpr;
using solver::Box;

Verifier::Verifier(BoolExpr psi, VerifierOptions options)
    : psi_(std::move(psi)), options_(options) {
  XCV_CHECK_MSG(options_.split_threshold > 0.0,
                "split threshold must be positive");
  XCV_CHECK_MSG(options_.num_threads >= 1, "need at least one thread");
}

VerificationReport Verifier::Run(const Box& domain) const {
  Stopwatch watch;
  PairEngine engine(psi_, options_);
  engine.Seed(domain);
  PairEngine* const engines[] = {&engine};
  RunEngines(engines, options_.num_threads, nullptr, {});
  VerificationReport report = engine.TakeReport();
  report.seconds = watch.ElapsedSeconds();
  return report;
}

}  // namespace xcv::verifier
