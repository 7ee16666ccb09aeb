#include "service/daemon.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <limits>
#include <system_error>
#include <utility>

#include "api/render.h"
#include "campaign/serialize.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "support/check.h"
#include "support/io.h"
#include "support/json.h"
#include "support/strings.h"

namespace xcv::service {

using campaign::PairState;
using json::JsonValue;

const char* JobStatusToken(JobStatus status) {
  switch (status) {
    case JobStatus::kQueued: return "queued";
    case JobStatus::kRunning: return "running";
    case JobStatus::kPausing: return "pausing";
    case JobStatus::kPaused: return "paused";
    case JobStatus::kCancelling: return "cancelling";
    case JobStatus::kCancelled: return "cancelled";
    case JobStatus::kDone: return "done";
    case JobStatus::kFailed: return "failed";
  }
  return "failed";
}

JobStatus JobStatusFromToken(const std::string& token) {
  static constexpr JobStatus kAll[] = {
      JobStatus::kQueued,     JobStatus::kRunning,   JobStatus::kPausing,
      JobStatus::kPaused,     JobStatus::kCancelling, JobStatus::kCancelled,
      JobStatus::kDone,       JobStatus::kFailed};
  for (JobStatus s : kAll)
    if (token == JobStatusToken(s)) return s;
  XCV_CHECK_MSG(false, "unknown job status token '" << token << "'");
  return JobStatus::kFailed;
}

namespace {

bool IsStopped(JobStatus s) {
  return s == JobStatus::kPaused || s == JobStatus::kCancelled ||
         s == JobStatus::kDone || s == JobStatus::kFailed;
}

bool IsActive(JobStatus s) {
  return s == JobStatus::kRunning || s == JobStatus::kPausing ||
         s == JobStatus::kCancelling;
}

HttpResponse JsonResponse(int status, std::string body) {
  HttpResponse resp;
  resp.status = status;
  resp.content_type = "application/json";
  resp.body = std::move(body);
  return resp;
}

HttpResponse ErrorResponse(int status, const std::string& message) {
  return JsonResponse(status,
                      "{\"error\": " + json::JsonEscape(message) + "}\n");
}

obs::Histogram& AdmissionWaitHistogram() {
  static obs::Histogram& h = obs::Registry::Global().GetHistogram(
      "xcv_daemon_admission_wait_seconds",
      "Seconds a job waited in the queue before a scheduler slot.",
      obs::DefaultSecondsBuckets());
  return h;
}

constexpr support::DocumentKind kJournalDocument{
    "xcvd-queue", kQueueSchemaVersion, "jobs", "service.journal"};

}  // namespace

struct Daemon::Job {
  /// What a poll of GET /v1/campaigns/:id shows per pair — updated live
  /// from the campaign's progress callback while the job runs.
  struct PairProgress {
    std::string functional;
    std::string condition;
    bool applicable = false;
    bool done = false;
    std::string verdict = "not_applicable";
    double seconds = 0.0;
    std::uint64_t solver_calls = 0;
  };

  /// What the requester wants a cooperative cancel to mean once the
  /// campaign actually stops. kStop is the daemon's own shutdown: the job
  /// goes back to queued so a restart resumes it.
  enum class Pending { kNone, kPause, kCancel, kStop };

  std::string id;
  api::JobSpec spec;
  JobStatus status = JobStatus::kQueued;
  std::string error;
  std::vector<PairProgress> pairs;
  std::size_t pairs_done = 0;
  Pending pending = Pending::kNone;
  /// Valid exactly while RunJob is inside campaign.Run (guarded by mu_);
  /// the cancel/pause endpoints use it to request a cooperative stop.
  campaign::Campaign* campaign = nullptr;
  /// When the job last entered the queue (zero = unknown, e.g. restored
  /// from a journal) — feeds the admission-wait histogram on admission.
  std::chrono::steady_clock::time_point queued_at{};

  /// Resets the progress view to the spec's unrun matrix.
  void InitProgressFromSpec() { ProgressFromPairStates(api::InitialPairs(spec)); }

  /// Rebuilds the progress view from authoritative pair states (campaign
  /// result or a reloaded checkpoint).
  void ProgressFromPairStates(const std::vector<PairState>& states) {
    pairs.clear();
    pairs_done = 0;
    for (const PairState& p : states) {
      PairProgress pp;
      pp.functional = p.functional;
      pp.condition = p.condition;
      pp.applicable = p.applicable;
      pp.done = p.done;
      pp.verdict = campaign::VerdictToken(p.verdict);
      pp.seconds = p.seconds;
      pp.solver_calls = p.report.solver_calls;
      pairs.push_back(std::move(pp));
      if (p.done) ++pairs_done;
    }
  }
};

Daemon::Daemon(DaemonOptions options) : options_(std::move(options)) {
  XCV_CHECK_MSG(options_.max_concurrent_jobs >= 1,
                "xcvd needs max_concurrent_jobs >= 1");
}

Daemon::~Daemon() { Stop(); }

std::string Daemon::JournalPath() const {
  return options_.state_dir + "/queue.json";
}

std::string Daemon::CachePath() const {
  return options_.state_dir + "/cache.json";
}

std::string Daemon::CheckpointPathFor(const std::string& id) const {
  return options_.state_dir + "/job-" + id + ".json";
}

std::string Daemon::TracePathFor(const std::string& id) const {
  return options_.state_dir + "/trace-" + id + ".json";
}

void Daemon::UpdateJobsGaugeLocked() {
  // Count jobs per (tenant, state) and push the whole grid, including
  // zeros for every previously seen tenant — a gauge that never returns
  // to zero would report phantom jobs after they finish.
  std::map<std::pair<std::string, std::string>, double> counts;
  for (const auto& job : jobs_) {
    gauge_tenants_.insert(job->spec.tenant);
    ++counts[{job->spec.tenant, JobStatusToken(job->status)}];
  }
  static constexpr JobStatus kAll[] = {
      JobStatus::kQueued,    JobStatus::kRunning,    JobStatus::kPausing,
      JobStatus::kPaused,    JobStatus::kCancelling, JobStatus::kCancelled,
      JobStatus::kDone,      JobStatus::kFailed};
  for (const std::string& tenant : gauge_tenants_) {
    for (JobStatus s : kAll) {
      const char* token = JobStatusToken(s);
      obs::Registry::Global()
          .GetGauge("xcv_daemon_jobs", "Jobs in the daemon queue.",
                    {"tenant", "state"}, {tenant, token})
          .Set(counts[{tenant, token}]);
    }
  }
}

// ---- Journal ----------------------------------------------------------------

void Daemon::SaveJournalLocked() {
  // Every queue transition passes through here, making it the one hook
  // needed to keep the per-tenant jobs gauge in step with the journal.
  if (obs::MetricsEnabled()) UpdateJobsGaugeLocked();
  std::string out = "{\n";
  out += "  \"format\": \"xcvd-queue\",\n";
  out += "  \"version\": 1,\n";
  out += "  \"schema_version\": " + std::to_string(kQueueSchemaVersion) +
         ",\n";
  out += "  \"next_id\": " + std::to_string(next_id_) + ",\n";
  out += "  \"jobs\": [";
  for (std::size_t i = 0; i < jobs_.size(); ++i) {
    const Job& job = *jobs_[i];
    if (i) out += ',';
    out += "\n    {\n";
    out += "      \"id\": " + json::JsonEscape(job.id) + ",\n";
    out += std::string("      \"status\": \"") + JobStatusToken(job.status) +
           "\",\n";
    out += "      \"error\": " + json::JsonEscape(job.error) + ",\n";
    out += "      \"spec\": ";
    api::AppendJobSpecJson(out, job.spec, "      ");
    out += "\n    }";
  }
  if (!jobs_.empty()) out += "\n  ";
  out += "]\n}\n";
  support::SaveDocument(JournalPath(), kJournalDocument, std::move(out));
}

support::LoadOutcome Daemon::LoadJournal() {
  // One job entry -> one queue record, with interrupted states remapped:
  // a job that was running (or mid-pause/-cancel) when the daemon died
  // continues from its checkpoint with the requester's intent honoured.
  const auto restore_entry = [&](const JsonValue& e) {
    auto job = std::make_unique<Job>();
    job->id = e.At("id").AsString();
    job->status = JobStatusFromToken(e.At("status").AsString());
    if (const JsonValue* err = e.Find("error")) job->error = err->AsString();
    job->spec = api::JobSpecFromJson(e.At("spec"));
    if (job->status == JobStatus::kRunning)
      job->status = JobStatus::kQueued;
    else if (job->status == JobStatus::kPausing)
      job->status = JobStatus::kPaused;
    else if (job->status == JobStatus::kCancelling)
      job->status = JobStatus::kCancelled;

    // Rebuild the progress view from the job's checkpoint when it has one
    // (paused/interrupted/done jobs), else from the unrun matrix.
    const std::string cp_path = CheckpointPathFor(job->id);
    std::error_code ec;
    bool restored = false;
    if (std::filesystem::exists(cp_path, ec)) {
      support::LoadOutcome load;
      const campaign::Checkpoint cp =
          campaign::LoadCheckpointFileTolerant(cp_path, &load);
      if (!load.cold) {
        job->ProgressFromPairStates(cp.pairs);
        restored = true;
      }
    }
    if (!restored) job->InitProgressFromSpec();

    // Keep next_id_ ahead of every recovered id even if the header's
    // counter was lost to a torn write.
    if (job->id.size() > 1 && job->id[0] == 'j') {
      const std::uint64_t n = std::strtoull(job->id.c_str() + 1, nullptr, 10);
      next_id_ = std::max(next_id_, n + 1);
    }
    jobs_.push_back(std::move(job));
  };

  // A cold load (fresh state dir, injected EIO, corrupt journal) is an
  // empty queue. Job checkpoints on disk are untouched either way —
  // resubmitted jobs still resume from them.
  return support::RecoverDocument(
      JournalPath(), kJournalDocument,
      {[&](const JsonValue& root) {
         next_id_ = static_cast<std::uint64_t>(json::CheckedInteger(
             root.At("next_id").AsDouble(), 0, json::kMaxExactInteger,
             "next_id"));
       },
       [&](json::Cursor& record) {
         const JsonValue e = record.Value();
         try {
           restore_entry(e);
         } catch (const InternalError&) {
           // One damaged record must not take the rest of the queue down.
         }
       }});
}

// ---- Lifecycle --------------------------------------------------------------

void Daemon::Start() {
  XCV_CHECK_MSG(!started_, "Daemon started twice");
  std::error_code ec;
  std::filesystem::create_directories(options_.state_dir, ec);
  XCV_CHECK_MSG(!ec, "cannot create state dir '" << options_.state_dir
                                                 << "': " << ec.message());
  // Warm the process-wide cache from the last shutdown's snapshot; a
  // missing or corrupt file is a cold cache, never an error.
  cache_.Load(CachePath());
  {
    std::lock_guard<std::mutex> lock(mu_);
    const bool had_journal = std::filesystem::exists(JournalPath(), ec);
    journal_load_ = LoadJournal();
    if (options_.verbose && !journal_load_.clean)
      std::fprintf(stderr, "[xcvd] journal: %s\n",
                   journal_load_.detail.c_str());
    // Make the recovered state durable immediately (also replaces a
    // quarantined journal with a clean one). A fresh state dir has nothing
    // to recover: its first journal is written at the first transition.
    if (had_journal) SaveJournalLocked();
  }
  started_ = true;
  stopping_ = false;
  scheduler_ = std::thread([this] { SchedulerLoop(); });
  server_.Start(options_.port,
                [this](const HttpRequest& req) { return Handle(req); });
  if (options_.verbose)
    std::fprintf(stderr, "[xcvd] listening on 127.0.0.1:%d (state: %s)\n",
                 server_.port(), options_.state_dir.c_str());
}

void Daemon::Stop() {
  if (!started_) return;
  // No new submissions while tearing down.
  server_.Stop();
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
    for (const auto& job : jobs_) {
      if (!IsActive(job->status)) continue;
      // Shutdown is not a cancel: unless the requester already asked for
      // one, the job goes back to the queue and a restart resumes it.
      // Marked even when the runner has not yet registered its campaign —
      // RunJob re-checks pending at registration and cancels itself, so
      // shutdown never blocks on a freshly admitted job running to
      // completion.
      if (job->pending == Job::Pending::kNone)
        job->pending = Job::Pending::kStop;
      if (job->campaign != nullptr) job->campaign->RequestCancel();
    }
    cv_.notify_all();
  }
  if (scheduler_.joinable()) scheduler_.join();
  for (const auto& runner : runners_)
    if (runner->thread.joinable()) runner->thread.join();
  runners_.clear();
  {
    std::lock_guard<std::mutex> lock(mu_);
    SaveJournalLocked();
  }
  cache_.Save(CachePath());
  started_ = false;
  if (options_.verbose)
    std::fprintf(stderr, "[xcvd] stopped (journal + cache saved)\n");
}

// ---- Scheduling -------------------------------------------------------------

Daemon::Job* Daemon::FindLocked(const std::string& id) {
  for (const auto& job : jobs_)
    if (job->id == id) return job.get();
  return nullptr;
}

Daemon::Job* Daemon::PickNextLocked() {
  // Round-robin across tenants: a queued job whose tenant has the fewest
  // jobs in flight wins; among equally loaded tenants the one served
  // least recently wins, and only then submission order. In-flight load
  // alone is not enough — at max_concurrent_jobs=1 every pick happens
  // with zero jobs running, so without the last-served tie-break one
  // tenant's backlog would drain in pure submission order and starve
  // everyone else.
  std::vector<std::pair<std::string, int>> running_per_tenant;
  auto load_of = [&](const std::string& tenant) -> int& {
    for (auto& [t, n] : running_per_tenant)
      if (t == tenant) return n;
    running_per_tenant.emplace_back(tenant, 0);
    return running_per_tenant.back().second;
  };
  for (const auto& job : jobs_)
    if (IsActive(job->status)) ++load_of(job->spec.tenant);

  Job* best = nullptr;
  int best_load = std::numeric_limits<int>::max();
  std::uint64_t best_served = std::numeric_limits<std::uint64_t>::max();
  for (const auto& job : jobs_) {
    if (job->status != JobStatus::kQueued) continue;
    const int load = load_of(job->spec.tenant);
    std::uint64_t served = 0;  // never-served tenants go first
    if (const auto it = tenant_last_served_.find(job->spec.tenant);
        it != tenant_last_served_.end())
      served = it->second;
    if (load < best_load || (load == best_load && served < best_served)) {
      best = job.get();
      best_load = load;
      best_served = served;
    }
  }
  return best;
}

void Daemon::ReapRunnersLocked() {
  // A done runner is past its last mu_ use and about to return, so the
  // join is effectively instant.
  for (auto it = runners_.begin(); it != runners_.end();) {
    if ((*it)->done.load(std::memory_order_acquire)) {
      if ((*it)->thread.joinable()) (*it)->thread.join();
      it = runners_.erase(it);
    } else {
      ++it;
    }
  }
}

void Daemon::SchedulerLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    cv_.wait(lock, [this] {
      ReapRunnersLocked();
      return stopping_ ||
             (running_count_ < options_.max_concurrent_jobs &&
              PickNextLocked() != nullptr);
    });
    if (stopping_) return;
    Job* job = PickNextLocked();
    if (job == nullptr) continue;
    if (obs::MetricsEnabled() &&
        job->queued_at.time_since_epoch().count() != 0)
      AdmissionWaitHistogram().Observe(
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        job->queued_at)
              .count());
    job->queued_at = {};
    job->status = JobStatus::kRunning;
    ++running_count_;
    tenant_last_served_[job->spec.tenant] = ++tenant_serve_seq_;
    SaveJournalLocked();
    auto runner = std::make_unique<Runner>();
    Runner* raw = runner.get();
    runner->thread = std::thread([this, job, raw] {
      RunJob(job);
      raw->done.store(true, std::memory_order_release);
      cv_.notify_all();  // wake the scheduler to reap this handle
    });
    runners_.push_back(std::move(runner));
  }
}

void Daemon::RunJob(Job* job) {
  // Per-job span timeline: the process-wide recorder is claimed for this
  // run if it is free (TryStart — at max_concurrent_jobs > 1 a concurrent
  // job simply runs untraced) and its events land in trace-<id>.json for
  // GET /v1/campaigns/:id/trace.
  const bool tracing =
      options_.job_traces && obs::TraceRecorder::Global().TryStart();

  // The job's options, re-based onto the daemon's state: its checkpoint
  // lives in the state dir and every solver verdict flows through the one
  // process-wide cache (a job-spec document carries neither path).
  campaign::CampaignOptions options = job->spec.options;
  options.checkpoint_path = CheckpointPathFor(job->id);
  options.shared_cache = &cache_;

  std::string error;
  campaign::CampaignResult result;
  try {
    campaign::Campaign campaign(options);
    // A job that already has a checkpoint (pause, restart, resume) picks
    // up exactly where it stopped; a fresh job builds its matrix through
    // the same PopulateCampaign path the CLI uses.
    bool restored = false;
    std::error_code ec;
    if (std::filesystem::exists(options.checkpoint_path, ec)) {
      support::LoadOutcome load;
      campaign::Checkpoint cp =
          campaign::LoadCheckpointFileTolerant(options.checkpoint_path, &load);
      if (!cp.pairs.empty()) {
        for (PairState& p : cp.pairs) campaign.Restore(std::move(p));
        restored = true;
      }
    }
    if (!restored) api::PopulateCampaign(job->spec, campaign);

    // job->campaign must never outlive the stack-local Campaign: if Run
    // throws, the unwind destroys the Campaign while a concurrent
    // pause/cancel/Stop could still dereference the pointer. This guard
    // registers under mu_ and — declared after `campaign`, so destroyed
    // first — nulls it under mu_ on every exit path, including unwind.
    struct Registration {
      std::mutex& mu;
      Job* job;
      Registration(std::mutex& mu, Job* job, campaign::Campaign* c)
          : mu(mu), job(job) {
        std::lock_guard<std::mutex> lock(mu);
        job->campaign = c;
        // A cancel/pause/stop that raced the admission decision still
        // lands.
        if (job->pending != Job::Pending::kNone) c->RequestCancel();
      }
      ~Registration() {
        std::lock_guard<std::mutex> lock(mu);
        job->campaign = nullptr;
      }
    } registration(mu_, job, &campaign);

    auto progress = [this, job](const PairState& p, std::size_t completed,
                                std::size_t /*total*/) {
      std::lock_guard<std::mutex> lock(mu_);
      for (Job::PairProgress& pp : job->pairs) {
        if (pp.functional != p.functional || pp.condition != p.condition)
          continue;
        pp.done = p.done;
        pp.verdict = campaign::VerdictToken(p.verdict);
        pp.seconds = p.seconds;
        pp.solver_calls = p.report.solver_calls;
        break;
      }
      job->pairs_done = completed;
    };
    result = campaign.Run(progress);
  } catch (const std::exception& e) {
    error = e.what();
  }

  if (tracing) {
    std::string trace_error;
    if (!obs::TraceRecorder::Global().StopToFile(TracePathFor(job->id),
                                                 &trace_error) &&
        options_.verbose)
      std::fprintf(stderr, "[xcvd] %s: trace write failed: %s\n",
                   job->id.c_str(), trace_error.c_str());
  }

  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!error.empty()) {
      job->status = JobStatus::kFailed;
      job->error = error;
    } else if (result.cancelled) {
      switch (job->pending) {
        case Job::Pending::kPause: job->status = JobStatus::kPaused; break;
        case Job::Pending::kCancel:
          job->status = JobStatus::kCancelled;
          break;
        default: job->status = JobStatus::kQueued; break;  // daemon stop
      }
      job->ProgressFromPairStates(result.pairs);
    } else {
      job->status = JobStatus::kDone;
      job->ProgressFromPairStates(result.pairs);
    }
    job->pending = Job::Pending::kNone;
    SaveJournalLocked();
    --running_count_;
    cv_.notify_all();
    if (options_.verbose)
      std::fprintf(stderr, "[xcvd] %s -> %s (%zu/%zu pairs)\n",
                   job->id.c_str(), JobStatusToken(job->status),
                   job->pairs_done, job->pairs.size());
  }
  // Persist the shared cache after every job that stored a verdict, so a
  // kill between jobs keeps the warmth. Saves are atomic, checksummed and
  // serialized by the cache: this runs after the slot is freed, so it can
  // overlap the next job's save. A warm resubmission stores nothing and
  // leaves the file alone.
  cache_.SaveIfChanged(CachePath());
}

// ---- Endpoints --------------------------------------------------------------

HttpResponse Daemon::Handle(const HttpRequest& req) {
  try {
    if (req.path == "/v1/healthz" && req.method == "GET")
      return HandleHealthz();
    if (req.path == "/v1/metrics" && req.method == "GET") {
      HttpResponse resp;
      // Prometheus text exposition format 0.0.4 — scrape-ready as-is.
      resp.content_type = "text/plain; version=0.0.4; charset=utf-8";
      resp.body = obs::Registry::Global().RenderPrometheus();
      return resp;
    }
    if (req.path == "/v1/info" && req.method == "GET") {
      HttpResponse resp;
      resp.content_type = "text/plain; charset=utf-8";
      resp.body = api::InfoReport();
      return resp;
    }
    if (req.path == "/v1/shutdown" && req.method == "POST") {
      shutdown_requested_.store(true, std::memory_order_relaxed);
      return JsonResponse(202, "{\"status\": \"stopping\"}\n");
    }
    if (req.path == "/v1/campaigns") {
      if (req.method == "POST") return HandleSubmit(req);
      if (req.method == "GET") return HandleList();
      return ErrorResponse(405, "use GET or POST on /v1/campaigns");
    }
    if (StartsWith(req.path, "/v1/campaigns/")) {
      std::string rest = req.path.substr(sizeof("/v1/campaigns/") - 1);
      std::string action;
      if (const std::size_t slash = rest.find('/');
          slash != std::string::npos) {
        action = rest.substr(slash + 1);
        rest = rest.substr(0, slash);
      }
      std::lock_guard<std::mutex> lock(mu_);
      Job* job = FindLocked(rest);
      if (job == nullptr)
        return ErrorResponse(404, "no job '" + rest + "'");
      if (action.empty() && req.method == "GET") return HandleGet(*job);
      if (action == "report" && req.method == "GET")
        return HandleReport(*job, req);
      if (action == "trace" && req.method == "GET")
        return HandleTrace(*job);
      if (action == "pause" && req.method == "POST")
        return HandleStopJob(*job, /*cancel=*/false);
      if (action == "cancel" && req.method == "POST")
        return HandleStopJob(*job, /*cancel=*/true);
      if (action == "resume" && req.method == "POST")
        return HandleResume(*job);
      return ErrorResponse(404, "unknown action '" + action + "'");
    }
    return ErrorResponse(404, "no route for " + req.method + " " + req.path);
  } catch (const InternalError& e) {
    // The API layer's validation errors are the caller's fault.
    return ErrorResponse(400, e.what());
  }
}

HttpResponse Daemon::HandleSubmit(const HttpRequest& req) {
  // ParseJobSpecJson runs the single validation path; a bad selector or a
  // negative budget throws InternalError -> 400 with the named field.
  api::JobSpec spec = api::ParseJobSpecJson(req.body);
  std::lock_guard<std::mutex> lock(mu_);
  if (stopping_) return ErrorResponse(409, "daemon is shutting down");
  auto job = std::make_unique<Job>();
  job->id = "j" + std::to_string(next_id_++);
  job->spec = std::move(spec);
  job->queued_at = std::chrono::steady_clock::now();
  job->InitProgressFromSpec();
  const std::string id = job->id;
  jobs_.push_back(std::move(job));
  SaveJournalLocked();
  cv_.notify_all();
  return JsonResponse(201, "{\"id\": " + json::JsonEscape(id) +
                               ", \"status\": \"queued\"}\n");
}

HttpResponse Daemon::HandleList() {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = "{\n  \"jobs\": [";
  for (std::size_t i = 0; i < jobs_.size(); ++i) {
    const Job& job = *jobs_[i];
    if (i) out += ',';
    out += "\n    {\"id\": " + json::JsonEscape(job.id) +
           ", \"status\": \"" + JobStatusToken(job.status) +
           "\", \"tenant\": " + json::JsonEscape(job.spec.tenant) +
           ", \"pairs_done\": " + std::to_string(job.pairs_done) +
           ", \"pairs_total\": " + std::to_string(job.pairs.size()) + "}";
  }
  if (!jobs_.empty()) out += "\n  ";
  out += "]\n}\n";
  return JsonResponse(200, std::move(out));
}

HttpResponse Daemon::HandleGet(const Job& job) {
  std::string out = "{\n";
  out += "  \"id\": " + json::JsonEscape(job.id) + ",\n";
  out += std::string("  \"status\": \"") + JobStatusToken(job.status) +
         "\",\n";
  out += "  \"tenant\": " + json::JsonEscape(job.spec.tenant) + ",\n";
  out += "  \"error\": " + json::JsonEscape(job.error) + ",\n";
  out += "  \"pairs_done\": " + std::to_string(job.pairs_done) + ",\n";
  out += "  \"pairs_total\": " + std::to_string(job.pairs.size()) + ",\n";
  out += "  \"pairs\": [";
  for (std::size_t i = 0; i < job.pairs.size(); ++i) {
    const Job::PairProgress& pp = job.pairs[i];
    if (i) out += ',';
    out += "\n    {\"functional\": " + json::JsonEscape(pp.functional) +
           ", \"condition\": " + json::JsonEscape(pp.condition) +
           ", \"applicable\": " + (pp.applicable ? "true" : "false") +
           ", \"done\": " + (pp.done ? "true" : "false") + ", \"verdict\": \"" +
           pp.verdict + "\", \"solver_calls\": " +
           std::to_string(pp.solver_calls) +
           ", \"seconds\": " + json::JsonDouble(pp.seconds) + "}";
  }
  if (!job.pairs.empty()) out += "\n  ";
  out += "],\n";
  out += "  \"spec\": ";
  api::AppendJobSpecJson(out, job.spec, "  ");
  out += "\n}\n";
  return JsonResponse(200, std::move(out));
}

HttpResponse Daemon::HandleStopJob(Job& job, bool cancel) {
  const JobStatus target = cancel ? JobStatus::kCancelled : JobStatus::kPaused;
  if (job.status == JobStatus::kDone || job.status == JobStatus::kFailed)
    return ErrorResponse(409, "job " + job.id + " is already " +
                                  JobStatusToken(job.status));
  if (job.status == target || (cancel && job.status == JobStatus::kCancelling) ||
      (!cancel && job.status == JobStatus::kPausing))
    return JsonResponse(200, std::string("{\"status\": \"") +
                                 JobStatusToken(job.status) + "\"}\n");
  if (job.status == JobStatus::kQueued || IsStopped(job.status)) {
    // Not running: the transition is immediate (no checkpoint to take).
    job.status = target;
    SaveJournalLocked();
    return JsonResponse(200, std::string("{\"status\": \"") +
                                 JobStatusToken(job.status) + "\"}\n");
  }
  // Running: cooperative. In-flight solver calls finish, the campaign
  // writes its checkpoint, then RunJob lands the final status.
  job.pending = cancel ? Job::Pending::kCancel : Job::Pending::kPause;
  job.status = cancel ? JobStatus::kCancelling : JobStatus::kPausing;
  if (job.campaign != nullptr) job.campaign->RequestCancel();
  SaveJournalLocked();
  return JsonResponse(202, std::string("{\"status\": \"") +
                               JobStatusToken(job.status) + "\"}\n");
}

HttpResponse Daemon::HandleResume(Job& job) {
  if (job.status == JobStatus::kDone)
    return ErrorResponse(409, "job " + job.id + " is already done");
  if (job.status == JobStatus::kQueued || IsActive(job.status))
    return JsonResponse(200, std::string("{\"status\": \"") +
                                 JobStatusToken(job.status) + "\"}\n");
  job.status = JobStatus::kQueued;
  job.error.clear();
  job.pending = Job::Pending::kNone;
  job.queued_at = std::chrono::steady_clock::now();
  SaveJournalLocked();
  cv_.notify_all();
  return JsonResponse(202, "{\"status\": \"queued\"}\n");
}

HttpResponse Daemon::HandleReport(const Job& job, const HttpRequest& req) {
  // The checkpoint file is the report's source of truth: the campaign
  // rewrites it after every completed pair, so this serves live partial
  // reports, final reports, and reports of jobs finished before a daemon
  // restart — all through one path.
  const std::string path = CheckpointPathFor(job.id);
  std::error_code ec;
  if (!std::filesystem::exists(path, ec))
    return ErrorResponse(409, "job " + job.id +
                                  " has not produced a report yet");
  campaign::Checkpoint cp;
  try {
    cp = campaign::LoadCheckpointFile(path);
  } catch (const InternalError& e) {
    return ErrorResponse(500, e.what());
  }

  api::OutputMode mode = job.spec.output;
  if (const auto it = req.query.find("format"); it != req.query.end()) {
    try {
      mode = api::OutputModeFromToken(it->second);
    } catch (const InternalError&) {
      return ErrorResponse(400, "unknown report format '" + it->second +
                                    "' (table | json | csv)");
    }
  }
  HttpResponse resp;
  resp.content_type = mode == api::OutputMode::kJson  ? "application/json"
                      : mode == api::OutputMode::kCsv ? "text/csv"
                                  : "text/plain; charset=utf-8";
  resp.body = api::RenderReport(mode, cp.options, cp.pairs, cp.cancelled);
  return resp;
}

HttpResponse Daemon::HandleTrace(const Job& job) {
  // Serves the file the job's RunJob invocation wrote (AtomicWriteFile, so
  // a concurrent rewrite is never seen half-written). No file means the
  // job has not run since the daemon started, or traces are disabled, or
  // another concurrent job owned the recorder during its run.
  std::string body;
  if (!support::ReadFileToString(TracePathFor(job.id), &body, nullptr))
    return ErrorResponse(404, "job " + job.id + " has no trace (not run "
                                  "yet, or job traces are disabled)");
  HttpResponse resp;
  resp.content_type = "application/json";
  resp.body = std::move(body);
  return resp;
}

HttpResponse Daemon::HandleHealthz() {
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t queued = 0, running = 0, done = 0, failed = 0;
  for (const auto& job : jobs_) {
    if (job->status == JobStatus::kQueued) ++queued;
    if (IsActive(job->status)) ++running;
    if (job->status == JobStatus::kDone) ++done;
    if (job->status == JobStatus::kFailed) ++failed;
  }
  const obs::Registry& reg = obs::Registry::Global();
  std::string out = "{\"status\": \"ok\", \"queued\": " +
                    std::to_string(queued) +
                    ", \"running\": " + std::to_string(running) +
                    ", \"done\": " + std::to_string(done) +
                    ", \"failed\": " + std::to_string(failed) +
                    ", \"cache_entries\": " + std::to_string(cache_.size()) +
                    ", \"metrics\": {\"solver_calls\": " +
                    obs::FormatMetricValue(
                        reg.CounterTotal("xcv_solver_calls_total")) +
                    ", \"cache_lookups\": " +
                    obs::FormatMetricValue(
                        reg.CounterTotal("xcv_cache_lookups_total")) +
                    ", \"http_requests\": " +
                    obs::FormatMetricValue(
                        reg.CounterTotal("xcv_http_requests_total")) +
                    "}}\n";
  return JsonResponse(200, std::move(out));
}

}  // namespace xcv::service
