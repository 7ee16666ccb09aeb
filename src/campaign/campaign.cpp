#include "campaign/campaign.h"

#include <utility>

#include "campaign/serialize.h"
#include "obs/trace.h"
#include "support/check.h"
#include "support/fault.h"
#include "support/fnv.h"
#include "support/stopwatch.h"
#include "verifier/engine.h"

namespace xcv::campaign {

using conditions::ConditionInfo;
using functionals::Functional;

std::size_t CampaignResult::CompletedCount() const {
  std::size_t n = 0;
  for (const PairState& p : pairs)
    if (p.done) ++n;
  return n;
}

std::uint64_t CampaignResult::CacheHits() const {
  std::uint64_t n = 0;
  for (const PairState& p : pairs) n += p.report.cache_hits;
  return n;
}

std::uint64_t CampaignResult::CacheMisses() const {
  std::uint64_t n = 0;
  for (const PairState& p : pairs) n += p.report.cache_misses;
  return n;
}

std::uint64_t CampaignResult::CacheRejected() const {
  std::uint64_t n = 0;
  for (const PairState& p : pairs) n += p.report.cache_rejected;
  return n;
}

struct Campaign::Entry {
  PairState state;
  const Functional* functional = nullptr;   // null for non-applicable pairs
  const ConditionInfo* condition = nullptr;
  std::unique_ptr<verifier::PairEngine> engine;
  std::atomic<bool> finish_latch{false};
  // Trace identity: async pair events ('b'/'e') match on this id, so
  // interleaved pairs stay separable in the timeline.
  std::size_t pair_index = 0;
};

namespace {

std::string PairTraceName(const PairState& p) {
  return "pair " + p.functional + ":" + p.condition;
}

}  // namespace

Campaign::Campaign(CampaignOptions options) : options_(std::move(options)) {
  XCV_CHECK_MSG(options_.verifier.num_threads >= 1,
                "need at least one thread");
  if (options_.shared_cache != nullptr) {
    // A shared cache is warm when it already holds verdicts from earlier
    // jobs in this process — that's the whole point of sharing it.
    cache_was_warm_ = options_.shared_cache->size() > 0;
  } else if (!options_.cache_path.empty()) {
    cache_ = std::make_unique<cache::VerdictCache>();
    // Absent/corrupt/truncated files are a cold start, never an error: a
    // campaign must run to completion with whatever cache it finds.
    cache_was_warm_ = cache_->Load(options_.cache_path);
  }
}

Campaign::~Campaign() = default;

verifier::VerifierOptions Campaign::TunedOptions(
    const Functional& f, const ConditionInfo& cond) const {
  verifier::VerifierOptions tuned = options_.verifier;
  if (options_.tune_lda_delta && f.family == functionals::Family::kLda)
    tuned.solver.delta = 1e-5;
  if (cache::VerdictCache* cache = ActiveCache(); cache != nullptr) {
    tuned.solver.cache = cache;
    // Salt with the condition id: the cache key then names the full
    // (functional tape, condition, options, box) coordinate even if two
    // conditions happened to compile to identical atom tapes.
    tuned.solver.cache_salt = support::HashBytes(
        cond.short_id,
        support::FnvMix(support::kFnvOffset, cond.short_id.size()));
  }
  return tuned;
}

PairState InitialPairState(const Functional& f, const ConditionInfo& cond) {
  PairState p;
  p.functional = f.name;
  p.condition = cond.short_id;
  p.applicable = conditions::Applies(cond, f);
  if (!p.applicable) {
    p.done = true;
    p.verdict = verifier::Verdict::kNotApplicable;
  }
  return p;
}

void Campaign::Add(const Functional& f, const ConditionInfo& cond) {
  XCV_CHECK_MSG(!ran_, "Add after Run");
  auto entry = std::make_unique<Entry>();
  entry->state = InitialPairState(f, cond);
  if (entry->state.applicable) {
    entry->functional = &f;
    entry->condition = &cond;
  }
  entries_.push_back(std::move(entry));
}

void Campaign::AddMatrix(const std::vector<Functional>& functionals,
                         const std::vector<ConditionInfo>& conditions) {
  for (const ConditionInfo& cond : conditions)
    for (const Functional& f : functionals) Add(f, cond);
}

void Campaign::Restore(PairState state) {
  XCV_CHECK_MSG(!ran_, "Restore after Run");
  auto entry = std::make_unique<Entry>();
  if (state.applicable) {
    const Functional* f = functionals::FindFunctional(state.functional);
    const ConditionInfo* cond = conditions::FindCondition(state.condition);
    XCV_CHECK_MSG(f != nullptr,
                  "checkpoint names unknown functional '" << state.functional
                                                          << "'");
    XCV_CHECK_MSG(cond != nullptr,
                  "checkpoint names unknown condition '" << state.condition
                                                         << "'");
    entry->functional = f;
    entry->condition = cond;
  }
  entry->state = std::move(state);
  entries_.push_back(std::move(entry));
}

void Campaign::FinishPair(Entry& entry, const ProgressFn& progress) {
  // First caller wins; later ProcessNext stragglers see the latch set.
  if (entry.finish_latch.exchange(true)) return;
  verifier::VerificationReport final_report = entry.engine->TakeReport();
  {
    // States are only read (checkpoints) and written under progress_mu_.
    std::lock_guard<std::mutex> lock(progress_mu_);
    entry.state.report = std::move(final_report);
    entry.state.verdict = entry.state.report.Summarize();
    entry.state.seconds = entry.state.report.seconds;
    entry.state.open.clear();
    entry.state.done = true;
    ++completed_;
    if (progress) progress(entry.state, completed_, entries_.size());
    WriteCheckpointLocked();
  }
  if (obs::TraceRecorder::Global().armed())
    obs::TraceRecorder::Global().RecordAsync(
        PairTraceName(entry.state), "xcv", 'e', entry.pair_index);
  // Chaos hooks, outside the lock so a straggler simulation never stalls
  // other pairs' checkpoint writes.
  support::fault::MaybeDelay("campaign.pair-done.delay");
  support::fault::MaybeCrash("campaign.pair-done.crash");
}

void Campaign::WriteCheckpointLocked() {
  if (options_.checkpoint_path.empty()) return;
  std::vector<PairState> pairs;
  pairs.reserve(entries_.size());
  for (const auto& e : entries_) {
    if (e->engine != nullptr && !e->state.done) {
      // Live pair: consistent snapshot of partial report + open boxes.
      PairState live = e->state;
      verifier::EngineSnapshot snap = e->engine->Snapshot();
      live.report = std::move(snap.report);
      live.open = std::move(snap.open);
      live.verdict = verifier::PartialVerdict(live.report);
      live.seconds = live.report.seconds;
      pairs.push_back(std::move(live));
    } else {
      pairs.push_back(e->state);
    }
  }
  WriteCheckpointFile(options_.checkpoint_path, options_, pairs,
                      CancelRequested());
}

CampaignResult Campaign::Run(ProgressFn progress) {
  XCV_CHECK_MSG(!ran_, "Run called twice");
  ran_ = true;
  Stopwatch watch;

  obs::Span job_span("job");
  job_span.Arg("pairs", static_cast<std::uint64_t>(entries_.size()));

  // Build one engine per unfinished applicable pair.
  std::vector<Entry*> running;
  std::size_t pair_index = 0;
  for (const auto& e : entries_) {
    e->pair_index = pair_index++;
    if (e->state.done || !e->state.applicable) {
      if (e->state.done) ++completed_;
      continue;
    }
    const auto psi = conditions::BuildCondition(*e->condition, *e->functional);
    XCV_CHECK_MSG(psi.has_value(), "applicable pair failed to encode: "
                                       << e->state.functional << " x "
                                       << e->state.condition);
    e->engine = std::make_unique<verifier::PairEngine>(
        *psi, TunedOptions(*e->functional, *e->condition));
    if (obs::TraceRecorder::Global().armed())
      obs::TraceRecorder::Global().RecordAsync(PairTraceName(e->state), "xcv",
                                               'b', e->pair_index);
    const bool has_restored_frontier = !e->state.open.empty();
    if (has_restored_frontier) {
      e->engine->Restore(e->state.report, std::move(e->state.open));
      e->state.open.clear();
    } else {
      // Fresh pair (or a checkpoint written before the pair started): any
      // stale partial report is discarded and the full domain re-enqueued.
      e->engine->Seed(conditions::PaperDomain(*e->functional));
    }
    running.push_back(e.get());
  }

  std::vector<verifier::PairEngine*> engines;
  engines.reserve(running.size());
  for (Entry* e : running) engines.push_back(e->engine.get());
  verifier::RunEngines(engines, options_.verifier.num_threads, &cancel_,
                       [this, &running, &progress](std::size_t i) {
                         FinishPair(*running[i], progress);
                       });

  // Collect: cancelled pairs keep their partial report + open frontier.
  const bool cancelled = CancelRequested();
  for (Entry* e : running) {
    if (e->state.done) continue;
    if (e->engine->Finished()) {
      FinishPair(*e, progress);
      continue;
    }
    e->state.open = e->engine->TakeOpenFrontier();
    e->state.report = e->engine->TakeReport();
    e->state.verdict = verifier::PartialVerdict(e->state.report);
    e->state.seconds = e->state.report.seconds;
    if (obs::TraceRecorder::Global().armed())
      obs::TraceRecorder::Global().RecordAsync(PairTraceName(e->state), "xcv",
                                               'e', e->pair_index,
                                               "\"partial\":1");
  }

  CampaignResult result;
  result.cancelled = cancelled;
  result.seconds = watch.ElapsedSeconds();
  result.pairs.reserve(entries_.size());
  for (const auto& e : entries_) result.pairs.push_back(e->state);
  if (cache::VerdictCache* cache = ActiveCache(); cache != nullptr) {
    result.cache_entries = cache->size();
    result.cache_was_warm = cache_was_warm_;
    // Only the owned, file-backed cache is saved here; a shared cache's
    // owner (the daemon) decides when and where it persists. A run that
    // stored nothing into a cleanly loaded file leaves the file untouched.
    if (cache_ != nullptr && !options_.cache_readonly)
      cache_->SaveIfChanged(options_.cache_path);
  }
  {
    std::lock_guard<std::mutex> lock(progress_mu_);
    if (!options_.checkpoint_path.empty())
      WriteCheckpointFile(options_.checkpoint_path, options_, result.pairs,
                          cancelled);
  }
  return result;
}

}  // namespace xcv::campaign
