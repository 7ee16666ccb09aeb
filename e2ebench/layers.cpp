#include "layers.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <utility>

namespace xcvbench {

Counters Counters::Between(const Scrape& before, const Scrape& after) {
  auto sum = [&](const char* name) {
    return after.Sum(name) - before.Sum(name);
  };
  auto series = [&](const std::string& key) {
    return after.Series(key) - before.Series(key);
  };
  Counters c;
  c.solver_calls = sum("xcv_solver_calls_total");
  c.solver_timeouts = series("xcv_solver_calls_total{result=\"timeout\"}");
  c.solver_nodes = sum("xcv_solver_nodes_total");
  c.cache_hits = series("xcv_cache_lookups_total{outcome=\"hit\"}");
  c.cache_misses = series("xcv_cache_lookups_total{outcome=\"miss\"}");
  c.cache_rejected = series("xcv_cache_lookups_total{outcome=\"rejected\"}");
  c.revalidations = sum("xcv_cache_revalidations_total");
  c.sched_tasks = sum("xcv_scheduler_tasks_total");
  c.sched_steals = sum("xcv_scheduler_steals_total");
  c.sched_wait_sum_s = sum("xcv_scheduler_task_wait_seconds_sum");
  c.sched_wait_count = sum("xcv_scheduler_task_wait_seconds_count");
  c.http_handler_s = sum("xcv_http_request_seconds_sum");
  c.admission_sum_s = sum("xcv_daemon_admission_wait_seconds_sum");
  c.admission_count = sum("xcv_daemon_admission_wait_seconds_count");
  return c;
}

namespace {

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double Get(const std::map<std::string, double>& m, const std::string& key) {
  const auto it = m.find(key);
  return it == m.end() ? 0.0 : it->second;
}

}  // namespace

std::vector<Metric> PerLayerMetrics(const LayerInputs& in) {
  const double r = std::max(1, in.rounds);
  const Counters& c = in.counters;
  const FoldResult& f = in.fold;
  const double busy = Get(f.busy_s, "solve");
  const double classify = Get(f.busy_s, "classify");
  const double contract = Get(f.busy_s, "contract");
  return {
      {"solver.calls", c.solver_calls / r, "count"},
      {"solver.nodes", c.solver_nodes / r, "count"},
      {"solver.timeout_frac", Ratio(c.solver_timeouts, c.solver_calls),
       "ratio"},
      {"solver.busy_s", busy / r, "s"},
      {"solver.classify_s", classify / r, "s"},
      {"solver.contract_s", contract / r, "s"},
      {"solver.other_s", (busy - classify - contract) / r, "s"},
      {"solver.nodes_per_busy_s", Ratio(c.solver_nodes, busy), "1/s"},
      {"engine.boxes", (c.solver_calls + c.cache_hits) / r, "count"},
      {"engine.self_s", Get(f.layers, "verifier.engine") / r, "s"},
      {"cache.load_s", in.cache_load_s, "s"},
      {"cache.save_s", in.cache_save_s, "s"},
      {"cache.file_mb", in.cache_file_mb, "MB"},
      {"cache.revalidations", c.revalidations / r, "count"},
      {"cache.revalidate_s", Get(f.busy_s, "cache-revalidate") / r, "s"},
      {"cache.entries", in.cache_entries, "count"},
      {"cache.rejected", c.cache_rejected / r, "count"},
      {"cache.hit_frac",
       Ratio(c.cache_hits, c.cache_hits + c.cache_misses + c.cache_rejected),
       "ratio"},
      {"campaign.build_s", in.campaign_build_s, "s"},
      {"campaign.checkpoint_mb", in.checkpoint_mb_per_job, "MB"},
      {"sched.tasks", c.sched_tasks / r, "count"},
      {"sched.steals", c.sched_steals / r, "count"},
      {"sched.wait_ms", 1e3 * Ratio(c.sched_wait_sum_s, c.sched_wait_count),
       "ms"},
      {"http.submit_ms", in.http_submit_ms, "ms"},
      {"http.poll_ms", in.http_poll_ms, "ms"},
      {"http.report_ms", in.http_report_ms, "ms"},
      {"http.handler_s", c.http_handler_s / r, "s"},
      {"http.errors", in.http_errors, "count"},
      {"daemon.admission_wait_ms",
       1e3 * Ratio(c.admission_sum_s, c.admission_count), "ms"},
      {"daemon.journal_kb", in.daemon_journal_kb, "KB"},
      {"daemon.cache_mb", in.daemon_cache_mb, "MB"},
      {"trace.job_mb", in.trace_job_mb, "MB"},
      {"trace.overhead_frac",
       Ratio(in.traced_round_s, in.untraced_round_s) - 1.0, "ratio"},
      {"trace.events", static_cast<double>(f.events) / r, "count"},
      {"trace.wall_s", f.wall_s / r, "s"},
      {"trace.unattributed_s", Get(f.layers, "unattributed") / r, "s"},
  };
}

std::vector<std::string> FoldLines(const LayerInputs& in) {
  const double r = std::max(1, in.rounds);
  const FoldResult& f = in.fold;
  std::vector<std::pair<std::string, double>> rows(f.layers.begin(),
                                                   f.layers.end());
  std::sort(rows.begin(), rows.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });
  std::vector<std::string> lines;
  lines.push_back("fold of the traced phase (" + std::to_string(in.rounds) +
                  " round(s), " + std::to_string(f.events) +
                  " events; seconds per round, share of traced wall):");
  double sum = 0.0;
  for (const auto& [layer, seconds] : rows) {
    char buf[160];
    std::snprintf(buf, sizeof(buf), "  %-22s %10.4f s  %6.2f%%",
                  layer.c_str(), seconds / r,
                  100.0 * Ratio(seconds, f.wall_s));
    lines.push_back(buf);
    sum += seconds;
  }
  lines.push_back("  sum of layers " + Fixed(sum / r, 4) +
                  " s vs traced wall " + Fixed(f.wall_s / r, 4) + " s: " +
                  (FoldBalanced(f) ? "equal" : "MISMATCH"));
  std::string busy = "busy seconds per round, all threads:";
  for (const auto& [kind, seconds] : f.busy_s)
    busy += " " + kind + "=" + Fixed(seconds / r, 4);
  lines.push_back(busy);
  const Counters& c = in.counters;
  if (c.sched_tasks > 0) {
    // Pool gaps sit inside verifier.engine; the queueing they cause is
    // only visible in the scheduler's own histogram.
    lines.push_back("scheduler per round: " + Fixed(c.sched_tasks / r, 0) +
                    " tasks, " + Fixed(c.sched_steals / r, 0) +
                    " steals, queued " + Fixed(c.sched_wait_sum_s / r, 4) +
                    " task-seconds (mean wait " +
                    Fixed(1e3 * Ratio(c.sched_wait_sum_s, c.sched_wait_count),
                          3) +
                    " ms)");
  }
  return lines;
}

}  // namespace xcvbench
