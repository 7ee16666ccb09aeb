// serve_mix: an in-process xcvd (service::Daemon on a loopback port, one
// job slot) under three closed-loop tenant clients speaking HTTP through
// service::HttpFetch.
// Each client submits a job, polls it at a fixed short interval, then
// fetches its CSV report; only then does it submit its next job.
//
// The seeded mix has three kinds of job:
//   * cold: one (functional, condition) pair at a node budget no other job
//     in the run uses, so it misses the shared cache and grows it;
//   * matrix: a small lda,am05 x EC1,EC2,EC4 matrix, also at a unique
//     budget (cold, six pairs, a checkpoint write per pair);
//   * warm: the tenant resubmitting one of its finished cold specs (each
//     exactly once), answered from the shared cache.
// So cold stores run beside warm hits. Every report must equal a direct
// campaign::Campaign run of the same spec, computed after the timed phase.
#include <algorithm>
#include <filesystem>
#include <random>
#include <stdexcept>
#include <thread>

#include "api/render.h"
#include "campaign/campaign.h"
#include "layers.h"
#include "service/daemon.h"
#include "service/http.h"
#include "support/json.h"
#include "workloads.h"

namespace xcvbench {

namespace {

using xcv::service::HttpFetch;
using xcv::service::HttpResponse;

constexpr int kTenants = 3;
// One job slot. With two, jobs that finish together both run the shared
// cache's VerdictCache::Save, and AtomicWriteFile's fixed temp name
// (cache.json.tmp) lets one save rename the other's file away: the second
// rename fails and the exception ends the process from the job's thread.
// With one slot, the next job's own fsyncs (journal, checkpoints, trace
// file) keep its save clear of the previous one.
constexpr int kMaxConcurrentJobs = 1;
constexpr auto kPollInterval = std::chrono::milliseconds(10);
// A job not done after this long counts as failed (and ends its client).
constexpr double kJobDeadlineSeconds = 120.0;

struct Pair {
  const char* functional;
  const char* condition;
};

// Single-pair cold jobs: each takes tens to a few hundred milliseconds at
// ~100 nodes, so a run holds well over 100 jobs.
constexpr Pair kColdPairs[] = {{"pbe", "EC1"},  {"pbe", "EC4"},
                               {"am05", "EC2"}, {"am05", "EC3"},
                               {"am05", "EC4"}, {"lyp", "EC1"},
                               {"lyp", "EC2"},  {"lda", "EC3"}};
constexpr int kColdBudgetBase = 100;
constexpr int kMatrixBudgetBase = 200;

enum class Kind { kCold, kMatrix, kWarm };

const char* KindName(Kind k) {
  switch (k) {
    case Kind::kCold: return "cold";
    case Kind::kMatrix: return "matrix";
    case Kind::kWarm: return "warm";
  }
  return "?";
}

struct Job {
  Kind kind = Kind::kCold;
  std::string tenant;
  xcv::api::JobSpec spec;
  std::string body;  // the submitted job-spec document
  /// Index into the run's distinct specs (its reference report).
  std::size_t spec_index = 0;

  // Filled by the client.
  bool ok = false;
  std::string error;
  double latency_ms = 0;
  std::string csv;
};

struct Mix {
  std::vector<xcv::api::JobSpec> specs;  // distinct specs, tenant cleared
  std::vector<std::vector<Job>> tenants;
  std::size_t jobs = 0;
};

xcv::api::JobSpec MakeSpec(const std::string& functionals,
                           const std::string& conditions, int nodes) {
  return SpecFromFlags({{"functionals", functionals},
                        {"conditions", conditions},
                        {"solver-nodes", std::to_string(nodes)},
                        {"budget-seconds", "0"},
                        {"threads", "1"}});
}

/// The seeded job mix, about `per_tenant` jobs for each of kTenants
/// tenants: cold singles and matrices (4:1), each resubmitted exactly once
/// by its tenant at a later point. The seed picks which tenant runs which
/// spec, the order, when each resubmission comes and the budget offsets;
/// the cold pair multiset and the resubmit-once rule are fixed, so every
/// seed asks for the same work up to a few nodes of budget.
Mix GenerateMix(std::uint64_t seed, int per_tenant) {
  std::mt19937_64 rng(seed);
  const int cold_total = kTenants * per_tenant / 2;
  const int matrices = cold_total / 5;
  const int colds = cold_total - matrices;

  Mix mix;
  // Distinct cold specs. A budget is unique per (pair, occurrence), so no
  // two cold specs share a cache scope and each one really is cold.
  std::vector<int> offset(std::size(kColdPairs) + 1);
  for (int& o : offset) o = static_cast<int>(rng() % 10);
  std::vector<int> seen(std::size(kColdPairs), 0);
  std::vector<std::pair<Kind, std::size_t>> cold_specs;
  for (int i = 0; i < colds; ++i) {
    const std::size_t p = static_cast<std::size_t>(i) % std::size(kColdPairs);
    const int nodes = kColdBudgetBase + offset[p] + seen[p]++;
    mix.specs.push_back(MakeSpec(kColdPairs[p].functional,
                                 kColdPairs[p].condition, nodes));
    cold_specs.emplace_back(Kind::kCold, mix.specs.size() - 1);
  }
  for (int i = 0; i < matrices; ++i) {
    mix.specs.push_back(MakeSpec("lda,am05", "EC1,EC2,EC4",
                                 kMatrixBudgetBase + offset.back() + i));
    cold_specs.emplace_back(Kind::kMatrix, mix.specs.size() - 1);
  }
  std::shuffle(cold_specs.begin(), cold_specs.end(), rng);

  // Deal the cold specs round-robin to tenants. Each tenant then walks its
  // list, and at every step either runs its next cold spec or resubmits a
  // random one it has run but not yet resubmitted (a closed loop
  // guarantees that run has finished).
  mix.tenants.resize(kTenants);
  for (int t = 0; t < kTenants; ++t) {
    const std::string tenant = "tenant-" + std::to_string(t);
    auto add = [&](Kind kind, std::size_t index) {
      Job job;
      job.kind = kind;
      job.tenant = tenant;
      job.spec = mix.specs[index];
      job.spec.tenant = tenant;
      job.body = xcv::api::WriteJobSpecJson(job.spec);
      job.spec_index = index;
      mix.tenants[t].push_back(std::move(job));
      ++mix.jobs;
    };
    std::vector<std::size_t> pending;
    for (std::size_t next = t; next < cold_specs.size() || !pending.empty();) {
      const bool colds_left = next < cold_specs.size();
      if (!pending.empty() && (!colds_left || rng() % 2 == 0)) {
        const std::size_t k = rng() % pending.size();
        add(Kind::kWarm, pending[k]);
        pending.erase(pending.begin() + static_cast<std::ptrdiff_t>(k));
      } else {
        add(cold_specs[next].first, cold_specs[next].second);
        pending.push_back(cold_specs[next].second);
        next += kTenants;
      }
    }
  }
  return mix;
}

/// Client-side timings of one phase. An error is a job the client gave up
/// on: a non-2xx response, a broken connection, a failed or overdue job.
struct ClientStats {
  std::vector<double> submit_ms, poll_ms, report_ms;
  double errors = 0;
};

double MsSince(Clock::time_point t0) { return 1e3 * SecondsSince(t0); }

HttpResponse Fetch(int port, const std::string& method,
                   const std::string& target, const std::string& body,
                   std::vector<double>* samples_ms) {
  const auto t0 = Clock::now();
  HttpResponse resp = HttpFetch(port, method, target, body);
  samples_ms->push_back(MsSince(t0));
  return resp;
}

/// One tenant's closed loop: submit, poll until done, fetch the report.
void RunClient(int port, std::vector<Job>& jobs, ClientStats& stats) {
  for (Job& job : jobs) {
    const auto t0 = Clock::now();
    try {
      HttpResponse resp;
      {
        BenchSpan span("http-submit");
        resp = Fetch(port, "POST", "/v1/campaigns", job.body,
                     &stats.submit_ms);
      }
      if (resp.status != 201) throw std::runtime_error("submit: " + resp.body);
      const std::string id = xcv::json::ParseJson(resp.body).At("id").AsString();
      std::string status;
      do {
        std::this_thread::sleep_for(kPollInterval);
        if (SecondsSince(t0) > kJobDeadlineSeconds)
          throw std::runtime_error("job " + id + " missed its deadline");
        BenchSpan span("http-poll");
        resp = Fetch(port, "GET", "/v1/campaigns/" + id, "", &stats.poll_ms);
        if (resp.status != 200) throw std::runtime_error("poll: " + resp.body);
        status = xcv::json::ParseJson(resp.body).At("status").AsString();
      } while (status == "queued" || status == "running");
      if (status != "done") throw std::runtime_error("job " + id + " " + status);
      BenchSpan span("http-report");
      resp = Fetch(port, "GET", "/v1/campaigns/" + id + "/report?format=csv",
                   "", &stats.report_ms);
      if (resp.status != 200) throw std::runtime_error("report: " + resp.body);
      job.csv = std::move(resp.body);
      job.ok = true;
    } catch (const std::exception& e) {
      ++stats.errors;
      job.error = e.what();
    }
    job.latency_ms = MsSince(t0);
  }
}

xcv::service::DaemonOptions DaemonOptionsFor(const std::string& state_dir) {
  xcv::service::DaemonOptions options;
  options.state_dir = state_dir;
  options.port = 0;
  options.max_concurrent_jobs = kMaxConcurrentJobs;
  options.job_traces = true;  // the daemon's default
  return options;
}

/// Daemon::Start until /v1/healthz answers 200.
double StartDaemon(xcv::service::Daemon& daemon) {
  const auto t0 = Clock::now();
  daemon.Start();
  while (HttpFetch(daemon.port(), "GET", "/v1/healthz").status != 200) {
  }
  return SecondsSince(t0);
}

struct Phase {
  double wall_s = 0;
  ClientStats stats;
  std::vector<Job> jobs;  // every tenant's jobs, with results
  Counters counters;
};

/// Runs the whole mix against `daemon`: the clients start together and
/// the phase ends when the last one has fetched its last report.
Phase RunPhase(xcv::service::Daemon& daemon, const Mix& mix) {
  Phase phase;
  std::vector<std::vector<Job>> work = mix.tenants;
  std::vector<ClientStats> stats(kTenants);
  const Scrape before = Scrape::Take();
  const auto t0 = Clock::now();
  {
    std::vector<std::jthread> clients;
    for (int t = 0; t < kTenants; ++t)
      clients.emplace_back([&, t] { RunClient(daemon.port(), work[t], stats[t]); });
  }
  phase.wall_s = SecondsSince(t0);
  phase.counters = Counters::Between(before, Scrape::Take());
  for (int t = 0; t < kTenants; ++t) {
    for (Job& job : work[t]) phase.jobs.push_back(std::move(job));
    const ClientStats& s = stats[t];
    auto append = [](std::vector<double>& to, const std::vector<double>& from) {
      to.insert(to.end(), from.begin(), from.end());
    };
    append(phase.stats.submit_ms, s.submit_ms);
    append(phase.stats.poll_ms, s.poll_ms);
    append(phase.stats.report_ms, s.report_ms);
    phase.stats.errors += s.errors;
  }
  return phase;
}

/// Direct single-process runs of every distinct spec: CSV columns 1-13.
std::vector<std::string> References(const Mix& mix) {
  std::vector<std::string> refs(mix.specs.size());
  std::vector<std::jthread> workers;
  for (int w = 0; w < kTenants; ++w) {
    workers.emplace_back([&, w] {
      for (std::size_t i = w; i < mix.specs.size(); i += kTenants) {
        xcv::campaign::Campaign campaign(mix.specs[i].options);
        xcv::api::PopulateCampaign(mix.specs[i], campaign);
        refs[i] = CsvColumns(xcv::api::CsvReport(campaign.Run().pairs), 13);
      }
    });
  }
  return refs;
}

/// Every report must equal the direct run of its spec: all 13 columns for
/// cold jobs, the cache-independent columns 1-11 for warm replays.
void CheckReports(const Phase& phase, const std::vector<std::string>& refs,
                  Outcome& out) {
  for (const Job& job : phase.jobs) {
    const int cols = job.kind == Kind::kWarm ? 11 : 13;
    const bool ok =
        job.ok && CsvColumns(job.csv, cols) == CsvColumns(refs[job.spec_index], cols);
    out.Check(ok, std::string("serve_mix ") + KindName(job.kind) + " job of " +
                      job.tenant + ": " +
                      (job.ok ? "report differs from a direct run" : job.error));
  }
}

std::vector<double> Latencies(const Phase& phase, bool (*keep)(Kind)) {
  std::vector<double> v;
  for (const Job& job : phase.jobs)
    if (keep(job.kind)) v.push_back(job.latency_ms);
  return v;
}

}  // namespace

Outcome RunServeMix(const RunConfig& cfg) {
  Outcome out;
  // About 6 jobs per second of --seconds, and never fewer than 102, so
  // job_p90_ms always has ten samples beyond it.
  const int per_tenant = std::max(34, static_cast<int>(cfg.seconds * 2));
  const Mix mix = GenerateMix(cfg.seed, per_tenant);

  // Set-up: Daemon::Start on a fresh state dir until /v1/healthz answers.
  // It is fsync-bound, so the throwaway starts are split between the two
  // ends of the run to sample the disk more than once; set-up reports the
  // median of all of them and the real start.
  std::vector<double> setup;
  auto throwaway_starts = [&](int count) {
    for (int i = 0; i < count; ++i) {
      const std::string dir = cfg.work_dir + "/setup";
      xcv::service::Daemon daemon(DaemonOptionsFor(dir));
      setup.push_back(StartDaemon(daemon));
      daemon.Stop();
      std::filesystem::remove_all(dir);
    }
  };
  throwaway_starts(15);

  const std::string state = cfg.work_dir + "/xcvd";
  Phase phase;
  double trace_job_mb = 0;
  {
    xcv::service::Daemon daemon(DaemonOptionsFor(state));
    setup.push_back(StartDaemon(daemon));
    phase = RunPhase(daemon, mix);
    trace_job_mb = FilesMb(state, "trace-");
  }
  const std::vector<std::string> refs = References(mix);
  CheckReports(phase, refs, out);
  throwaway_starts(15);

  const double boxes = phase.counters.solver_calls + phase.counters.cache_hits;
  out.end_to_end =
      EndToEndMetrics(Median(setup), phase.wall_s, boxes,
                      static_cast<double>(mix.jobs), phase.wall_s);
  out.Line("serve_mix: " + std::to_string(mix.jobs) + " jobs from " +
           std::to_string(kTenants) + " closed-loop tenants, " +
           std::to_string(mix.specs.size()) + " distinct specs, " +
           Fixed(boxes, 0) + " boxes; max_concurrent_jobs=" +
           std::to_string(kMaxConcurrentJobs) + ", poll every " +
           std::to_string(kPollInterval.count()) + " ms");
  const auto all = Latencies(phase, [](Kind) { return true; });
  out.Line(PercentileLine("job_p50_ms", all, 0.5));
  out.Line(PercentileLine("job_p90_ms", all, 0.9));
  out.Line(PercentileLine("  warm job_p50_ms", Latencies(phase, [](Kind k) {
                            return k == Kind::kWarm;
                          }), 0.5));
  out.Line(PercentileLine("  cold job_p50_ms", Latencies(phase, [](Kind k) {
                            return k != Kind::kWarm;
                          }), 0.5));
  out.Line("nodes_per_s = " +
           Fixed(phase.counters.solver_nodes / phase.wall_s, 1) + " 1/s");
  out.Line("http errors: " + Fixed(phase.stats.errors, 0));

  if (!cfg.trace) return out;
  // The traced phase replays the same mix on a fresh daemon while the
  // benchmark owns the recorder, so every job's spans land in one timeline
  // (the daemon's per-job traces stand aside while it is armed).
  LayerInputs in;
  in.untraced_round_s = phase.wall_s;
  in.trace_job_mb = trace_job_mb;
  const std::string traced_state = cfg.work_dir + "/xcvd-traced";
  xcv::service::Daemon daemon(DaemonOptionsFor(traced_state));
  StartDaemon(daemon);
  Phase traced;
  const std::string json = Traced([&] { traced = RunPhase(daemon, mix); });
  CheckReports(traced, refs, out);
  in.traced_round_s = traced.wall_s;
  in.counters = traced.counters;
  in.fold = FoldTrace(json, "timed-phase",
                      {"http-submit", "http-poll", "http-report"});
  out.Check(FoldBalanced(in.fold), "serve_mix fold lines sum to wall");
  auto p50 = [](const std::vector<double>& ms) {
    return Percentile(ms, 0.5).value_or(0.0);
  };
  in.http_submit_ms = p50(traced.stats.submit_ms);
  in.http_poll_ms = p50(traced.stats.poll_ms);
  in.http_report_ms = p50(traced.stats.report_ms);
  in.http_errors = traced.stats.errors;
  in.daemon_journal_kb = 1024.0 * FileMb(traced_state + "/queue.json");
  in.daemon_cache_mb = FileMb(traced_state + "/cache.json");
  in.checkpoint_mb_per_job =
      FilesMb(traced_state, "job-") / static_cast<double>(mix.jobs);
  in.cache_entries = static_cast<double>(daemon.CacheSize());
  daemon.Stop();

  std::vector<double> loads, saves;
  for (int i = 0; i < 5; ++i) {
    xcv::cache::VerdictCache cache;
    auto t0 = Clock::now();
    cache.Load(traced_state + "/cache.json");
    loads.push_back(SecondsSince(t0));
    t0 = Clock::now();
    cache.Save(cfg.work_dir + "/save-probe.json");
    saves.push_back(SecondsSince(t0));
  }
  in.cache_load_s = Median(loads);
  in.cache_save_s = Median(saves);
  in.cache_file_mb = in.daemon_cache_mb;
  in.campaign_build_s = CampaignBuildSeconds(mix.specs.back(), 101);
  out.per_layer = PerLayerMetrics(in);
  out.Line(PercentileLine("traced http.submit_ms", traced.stats.submit_ms, 0.5));
  out.Line(PercentileLine("traced http.poll_ms", traced.stats.poll_ms, 0.5));
  out.Line(PercentileLine("traced http.report_ms", traced.stats.report_ms, 0.5));
  for (std::string& line : FoldLines(in)) out.Line(std::move(line));
  return out;
}

}  // namespace xcvbench
