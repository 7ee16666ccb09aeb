// The per-layer metric set. Every workload fills one LayerInputs from its
// traced phase; PerLayerMetrics turns it into the fixed list BENCHMARK.json
// names, in the same order on every workload (a layer a workload never
// reaches reads 0).
#pragma once

#include <string>
#include <vector>

#include "fold.h"
#include "harness.h"

namespace xcvbench {

/// Registry deltas over one phase (counters and histogram sums/counts).
struct Counters {
  double solver_calls = 0, solver_timeouts = 0, solver_nodes = 0;
  double cache_hits = 0, cache_misses = 0, cache_rejected = 0;
  double revalidations = 0;
  double sched_tasks = 0, sched_steals = 0;
  double sched_wait_sum_s = 0, sched_wait_count = 0;
  double http_handler_s = 0;
  double admission_sum_s = 0, admission_count = 0;

  static Counters Between(const Scrape& before, const Scrape& after);
};

struct LayerInputs {
  /// Rounds in the traced phase; times and counts are reported per round.
  int rounds = 1;
  FoldResult fold;
  Counters counters;
  /// Untraced and traced median round wall (trace.overhead_frac).
  double untraced_round_s = 0, traced_round_s = 0;

  double cache_load_s = 0, cache_save_s = 0, cache_file_mb = 0;
  double cache_entries = 0;
  double campaign_build_s = 0, checkpoint_mb_per_job = 0;
  double http_submit_ms = 0, http_poll_ms = 0, http_report_ms = 0;
  double http_errors = 0;
  double daemon_journal_kb = 0, daemon_cache_mb = 0;
  double trace_job_mb = 0;
};

std::vector<Metric> PerLayerMetrics(const LayerInputs& in);

/// The fold table: one line per layer (per round, with its share of the
/// traced wall), then the check that the lines sum to that wall.
std::vector<std::string> FoldLines(const LayerInputs& in);

/// Arms the recorder, runs `phase` inside the root span "timed-phase", and
/// returns the rendered trace JSON.
template <typename Phase>
std::string Traced(Phase&& phase) {
  xcv::obs::TraceRecorder::Global().Start();
  SetBenchTracing(true);
  {
    BenchSpan root("timed-phase");
    phase();
  }
  SetBenchTracing(false);
  return xcv::obs::TraceRecorder::Global().Stop();
}

}  // namespace xcvbench
