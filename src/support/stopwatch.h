// Wall-clock timing: Stopwatch measures elapsed time (the solver charges
// its per-box time budget from it, see solver::SolverOptions).
#pragma once

#include <chrono>

namespace xcv {

/// Monotonic stopwatch. Starts running on construction.
class Stopwatch {
 public:
  Stopwatch() : start_(Clock::now()) {}

  /// Restarts the stopwatch at zero.
  void Reset() { start_ = Clock::now(); }

  /// Elapsed time in seconds since construction or the last Reset().
  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  /// Elapsed time in milliseconds.
  double ElapsedMillis() const { return ElapsedSeconds() * 1e3; }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace xcv
