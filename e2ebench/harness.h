// Shared pieces of the end-to-end benchmark program: the run configuration,
// the result record every workload fills, order statistics, metrics-registry
// scrapes, report digests, and the optional bench-side trace spans.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "obs/trace.h"

namespace xcvbench {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point t0);

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 0;
  /// Length of the measured phase; workloads run whole rounds inside it.
  double seconds = 0.0;
  /// --trace 1: also run a traced phase and report the per-layer metrics.
  bool trace = false;
  /// Working directory inside the checkout, emptied by main.
  std::string work_dir;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What a workload run hands back to main: the operation tally, both metric
/// sets, and the human-readable lines printed before the JSON result.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  std::vector<std::string> lines;

  /// Counts one checked operation; a failed one is also described in lines.
  void Check(bool ok, const std::string& what);
  void Line(const std::string& text) { lines.push_back(text); }
};

/// The end-to-end set every workload reports (peak_rss_mb is added by main
/// once the run is over): median set-up, median round wall, boxes per
/// second of round wall, and jobs per second of time spent in rounds.
std::vector<Metric> EndToEndMetrics(double setup_s, double wall_s,
                                    double boxes_per_round, double jobs,
                                    double rounds_s);

/// Whole rounds fill the measured phase: another round starts only when the
/// median round so far predicts it ends within `seconds` (the first always
/// runs), so a run never overshoots by a whole round.
bool AnotherRound(const std::vector<double>& round_seconds, double elapsed,
                  double seconds);

double Median(std::vector<double> v);

/// Nearest-rank percentile q in (0, 1). Empty unless at least ten samples
/// lie beyond it — the benchmark never prints a percentile it cannot
/// support (p50 needs 20 samples, p90 needs 100).
std::optional<double> Percentile(std::vector<double> v, double q);

/// "name = value unit (n=N)" or the refusal, for the report lines.
std::string PercentileLine(const std::string& name,
                           const std::vector<double>& samples_ms, double q);

/// Peak resident set size of this process so far.
double PeakRssMb();

/// Columns 1..ncols of every line of a CSV document.
std::string CsvColumns(const std::string& csv, int ncols);

/// 64-bit FNV-1a of `text`, as 16 hex digits.
std::string Digest(const std::string& text);

/// A parsed snapshot of the process metrics registry (its Prometheus text
/// exposition read back), so the benchmark sees exactly what /v1/metrics
/// would serve.
class Scrape {
 public:
  static Scrape Take();
  /// Sum over every series of `name` (all label values).
  double Sum(const std::string& name) const;
  /// One series, by its full "name{labels}" key (0 when absent).
  double Series(const std::string& key) const;

 private:
  std::map<std::string, double> series_;
};

double FileMb(const std::string& path);
/// Total size of the files in `dir` whose names start with `prefix`.
double FilesMb(const std::string& dir, const std::string& prefix);

std::string Fixed(double v, int digits);

/// True while the benchmark's own traced phase owns the recorder. Bench
/// spans record only then, so they never leak into the daemon's per-job
/// trace files during untraced phases.
bool BenchTracing();
void SetBenchTracing(bool on);

/// A span around a call into the program, recorded from the benchmark's
/// side of the boundary (category "bench"). `name` must be a literal.
class BenchSpan {
 public:
  explicit BenchSpan(const char* name) {
    if (BenchTracing()) span_.emplace(name, "bench");
  }

 private:
  std::optional<xcv::obs::Span> span_;
};

}  // namespace xcvbench
