#include "common.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>

namespace xcv::bench {

double EnvOr(const char* name, double fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return fallback;
  char* end = nullptr;
  const double parsed = std::strtod(value, &end);
  if (end == value || std::isnan(parsed) || parsed < 0.0) return fallback;
  return parsed;
}

double EnvOrPositive(const char* name, double fallback) {
  const double v = EnvOr(name, fallback);
  return v > 0.0 ? v : fallback;
}

verifier::VerifierOptions BenchVerifierOptions() {
  verifier::VerifierOptions o;
  o.split_threshold = EnvOrPositive("XCV_SPLIT_THRESHOLD", 0.3125);
  o.solver.max_nodes =
      static_cast<std::uint64_t>(EnvOrPositive("XCV_SOLVER_NODES", 30'000));
  o.solver.delta = 1e-3;
  o.solver.time_budget_seconds = 0.5;
  o.solver.max_invalid_models = 512;
  o.solver.wave_width =
      static_cast<int>(EnvOrPositive("XCV_WAVE_WIDTH", 8));
  const double budget = EnvOr("XCV_PAIR_SECONDS", 10.0);
  o.total_time_budget_seconds =
      budget > 0.0 ? budget : std::numeric_limits<double>::infinity();
  return o;
}

gridsearch::PbOptions BenchPbOptions() {
  gridsearch::PbOptions o;
  const auto n = static_cast<std::size_t>(EnvOrPositive("XCV_PB_GRID", 150));
  o.n_rs = n;
  o.n_s = n;
  o.n_alpha = 9;
  return o;
}

int BenchNumThreads() {
  return static_cast<int>(EnvOrPositive("XCV_THREADS", 1));
}

namespace {

// Benchmarks honour the same XCV_CACHE variable as the xcv CLI: point it at
// a verdict-cache file to replay previously decided boxes (reports are
// byte-identical either way; only the wall time changes).
std::string EnvCachePath() {
  const char* value = std::getenv("XCV_CACHE");
  return value != nullptr ? value : "";
}

PairRun ToPairRun(campaign::PairState state) {
  PairRun run;
  run.applicable = state.applicable;
  run.verdict = state.verdict;
  run.seconds = state.seconds;
  run.report = std::move(state.report);
  return run;
}

}  // namespace

PairRun RunPair(const functionals::Functional& f,
                const conditions::ConditionInfo& cond,
                const verifier::VerifierOptions& options) {
  campaign::CampaignOptions copts;
  copts.verifier = options;
  copts.cache_path = EnvCachePath();
  campaign::Campaign c(copts);
  c.Add(f, cond);
  campaign::CampaignResult result = c.Run();
  PairRun run = ToPairRun(std::move(result.pairs.at(0)));
  // A one-pair campaign's wall time is the pair's wall time (PairState
  // carries busy seconds, which only match wall time sequentially).
  run.seconds = result.seconds;
  return run;
}

std::vector<std::vector<PairRun>> RunMatrix(
    const std::vector<functionals::Functional>& functionals,
    const std::vector<conditions::ConditionInfo>& conditions,
    const verifier::VerifierOptions& options, int num_threads,
    const char* progress_tag) {
  campaign::CampaignOptions copts;
  copts.verifier = options;
  copts.verifier.num_threads = num_threads;
  copts.cache_path = EnvCachePath();
  campaign::Campaign c(copts);
  c.AddMatrix(functionals, conditions);
  campaign::CampaignResult result = c.Run(
      [progress_tag](const campaign::PairState& p, std::size_t completed,
                     std::size_t total) {
        std::fprintf(stderr, "[%s] %zu/%zu %s x %s: %s\n", progress_tag,
                     completed, total, p.condition.c_str(),
                     p.functional.c_str(),
                     verifier::VerdictName(p.verdict).c_str());
      });

  std::vector<std::vector<PairRun>> runs;
  runs.reserve(conditions.size());
  std::size_t flat = 0;
  for (std::size_t r = 0; r < conditions.size(); ++r) {
    runs.emplace_back();
    for (std::size_t col = 0; col < functionals.size(); ++col)
      runs.back().push_back(ToPairRun(std::move(result.pairs.at(flat++))));
  }
  return runs;
}

void PrintHeader(const std::string& title, const std::string& paper_ref) {
  std::printf("==============================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("Reproduces: %s\n", paper_ref.c_str());
  std::printf("Budget: %.0fs/pair, threshold t=%.4g, %d-node solver calls, "
              "%d thread(s)\n",
              EnvOr("XCV_PAIR_SECONDS", 10.0),
              EnvOrPositive("XCV_SPLIT_THRESHOLD", 0.3125),
              static_cast<int>(EnvOrPositive("XCV_SOLVER_NODES", 30'000)),
              BenchNumThreads());
  std::printf("==============================================================\n\n");
}

}  // namespace xcv::bench
