// Parallel domain splitting: Algorithm 1's recursion as prioritized tasks
// on the shared priority scheduler. The sweep raises the campaign's
// concurrency cap on ONE process-wide pool — no per-run pool construction.
// (This extends the paper — their runs were sequential. On a single-core
// host the sweep mainly demonstrates that the parallel driver is correct
// and overhead-free.)
#include <cstdio>

#include "common.h"

int main() {
  using namespace xcv;
  bench::PrintHeader(
      "Parallel domain splitting — thread sweep on the shared scheduler",
      "Algorithm 1 parallelization (this repo's HPC extension)");

  const auto& pbe = *functionals::FindFunctional("PBE");
  const auto& cond = *conditions::FindCondition("EC7");

  std::printf("%-8s %10s %10s %10s %12s\n", "threads", "verdict", "leaves",
              "calls", "seconds");
  // Generous busy-time budget: measure the full recursion at twice the
  // bench budget (an unlimited budget stays unlimited).
  auto options = bench::BenchOptions();
  options.verifier.total_time_budget_seconds *= 2.0;
  double base_seconds = 0.0;
  for (int threads : {1, 2, 4, 8}) {
    options.verifier.num_threads = threads;
    const auto run = bench::RunPair(pbe, cond, options);
    if (threads == 1) base_seconds = run.seconds;
    std::printf("%-8d %10s %10zu %10llu %9.2f (%.2fx)\n", threads,
                verifier::VerdictSymbol(run.verdict).c_str(),
                run.report.leaves.size(),
                static_cast<unsigned long long>(run.report.solver_calls),
                run.seconds,
                run.seconds > 0 ? base_seconds / run.seconds : 0.0);
  }
  std::printf(
      "\nNote: speedups require physical cores; the verdict and partition "
      "must be\nidentical at every thread count (reports are canonically "
      "ordered).\n");
  return 0;
}
