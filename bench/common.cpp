#include "common.h"

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <optional>
#include <utility>

#include "api/job_spec.h"
#include "support/check.h"

namespace xcv::bench {

namespace {

// XCV_PB_GRID's range: an axis needs two points (its step divides by
// n - 1), and 1000 x 1000 x 9 is already a 9M-point grid per panel.
constexpr std::int64_t kMaxPbGrid = 1000;

// Each override and the `xcv` flag it is parsed as.
constexpr std::pair<const char*, const char*> kEnvFlags[] = {
    {"XCV_PAIR_SECONDS", "budget-seconds"},
    {"XCV_SPLIT_THRESHOLD", "split-threshold"},
    {"XCV_SOLVER_NODES", "solver-nodes"},
    {"XCV_WAVE_WIDTH", "wave-width"},
    {"XCV_THREADS", "threads"}};

PairRun ToPairRun(campaign::PairState state) {
  PairRun run;
  run.applicable = state.applicable;
  run.verdict = state.verdict;
  run.seconds = state.seconds;
  run.report = std::move(state.report);
  return run;
}

}  // namespace

campaign::CampaignOptions BenchOptions() {
  std::map<std::string, std::string> flags;
  for (const auto& [var, flag] : kEnvFlags)
    if (const char* value = std::getenv(var); value != nullptr && *value)
      flags[flag] = value;
  api::JobSpec spec = api::DefaultJobSpec();
  try {
    api::ApplyFlags(flags, spec);  // XCV_CACHE is --cache's default there
    api::ValidateJobSpec(spec);
  } catch (const InternalError& e) {
    std::fprintf(stderr, "bench: bad XCV_* override: %s\n", e.what());
    std::exit(2);
  }
  return spec.options;
}

gridsearch::PbOptions BenchPbOptions() {
  // XCV_PB_GRID is no flag, but is checked as the integer flags are.
  std::int64_t n = 150;
  if (const char* value = std::getenv("XCV_PB_GRID");
      value != nullptr && *value) {
    try {
      const std::optional<double> parsed = json::DecimalToDouble(value);
      XCV_CHECK_MSG(parsed.has_value(),
                    "XCV_PB_GRID needs a number, got '" << value << "'");
      n = json::CheckedInteger(*parsed, 2, kMaxPbGrid, "XCV_PB_GRID");
    } catch (const InternalError& e) {
      std::fprintf(stderr, "bench: bad XCV_PB_GRID override: %s\n",
                   e.what());
      std::exit(2);
    }
  }
  gridsearch::PbOptions o;
  o.n_rs = static_cast<std::size_t>(n);
  o.n_s = static_cast<std::size_t>(n);
  o.n_alpha = 9;
  return o;
}

PairRun RunPair(const functionals::Functional& f,
                const conditions::ConditionInfo& cond,
                const campaign::CampaignOptions& options) {
  campaign::Campaign c(options);
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
    const campaign::CampaignOptions& options, const char* progress_tag) {
  campaign::Campaign c(options);
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
  const verifier::VerifierOptions v = BenchOptions().verifier;
  BenchPbOptions();  // checks XCV_PB_GRID too, before the first output
  char budget[32] = "unlimited";
  if (std::isfinite(v.total_time_budget_seconds))
    std::snprintf(budget, sizeof budget, "%gs", v.total_time_budget_seconds);
  std::printf("==============================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("Reproduces: %s\n", paper_ref.c_str());
  std::printf("Budget: %s/pair, threshold t=%.4g, %llu-node solver calls, "
              "%d thread(s)\n",
              budget, v.split_threshold,
              static_cast<unsigned long long>(v.solver.max_nodes),
              v.num_threads);
  std::printf("==============================================================\n\n");
}

}  // namespace xcv::bench
