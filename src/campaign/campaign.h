// Campaign engine: "verify a set of (functional, condition) pairs" as the
// first-class unit of work — the paper's whole Table I matrix instead of
// one solver call.
//
// A Campaign enqueues any subset of the matrix, builds one PairEngine per
// applicable pair, and runs them all through verifier::RunEngines: at one
// thread inline, otherwise as pool tickets on the shared priority scheduler
// (ThreadPool::Global) behind a single concurrency-capped task group — no
// per-pair thread pools. Either way the best open box across all pairs
// runs next (widest-first by default; see FrontierStrategy). Progress
// streams through a callback as pairs complete, cancellation is cooperative
// (RequestCancel from any thread or a signal handler), and the full state —
// finished reports plus every open frontier — checkpoints to JSON
// (serialize.h) and resumes.
#pragma once

#include <atomic>
#include <cstddef>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "cache/verdict_cache.h"
#include "conditions/conditions.h"
#include "functionals/functional.h"
#include "verifier/verifier.h"

namespace xcv::campaign {

/// State of one (functional, condition) pair, both while a campaign runs
/// and inside a checkpoint.
struct PairState {
  std::string functional;  // registry name, e.g. "PBE"
  std::string condition;   // short id, e.g. "EC1"
  bool applicable = false;
  /// True once the pair's domain partition is complete.
  bool done = false;
  /// The pair's position in the pre-shard checkpoint (-1 = unsharded).
  /// Written by `xcv shard` (src/shard/), carried untouched through
  /// resume, and used by `xcv merge` to restore the original pair order.
  int origin_index = -1;
  verifier::Verdict verdict = verifier::Verdict::kNotApplicable;
  /// Final report when done; the partial report recorded so far otherwise.
  verifier::VerificationReport report;
  /// Open frontier boxes (non-empty only for interrupted pairs).
  std::vector<solver::Box> open;
  /// Accumulated busy time spent on this pair, in seconds.
  double seconds = 0.0;
};

/// Provenance of a shard checkpoint produced by `xcv shard` (src/shard/):
/// which slice of a K-way partition this campaign is. Serialized inside the
/// checkpoint options (backward-compatible: absent means unsharded) and
/// carried untouched through resume, so `xcv merge` can identify and order
/// the shards of one campaign no matter how often each was resumed.
struct ShardInfo {
  int index = 0;             ///< this shard's slot in [0, count)
  int count = 1;             ///< total shards in the partition; 1 = unsharded
  std::string by = "pairs";  ///< granularity token: "pairs" | "frontier"
};

struct CampaignOptions {
  /// Base per-pair verifier options (budget, solver knobs, frontier). Its
  /// num_threads is the worker cap of the whole campaign.
  verifier::VerifierOptions verifier;
  /// LDA pairs are one-dimensional and cheap: spend the budget on precision
  /// (tightens delta to 1e-5, shrinking the inconclusive slivers near
  /// rs -> 0, as in the paper's VWN column).
  bool tune_lda_delta = true;
  /// When non-empty, a checkpoint is written here after every completed
  /// pair and when Run returns (including after cancellation).
  std::string checkpoint_path;
  /// When non-empty, the campaign owns a persistent verdict cache
  /// (src/cache/): loaded from this path before Run (a missing or corrupt
  /// file degrades to a cold cache), consulted/extended by every solver
  /// call, and written back atomically when Run returns — unless the file
  /// loaded clean and the run stored nothing (VerdictCache::SaveIfChanged).
  /// The cache only skips solver work — verdicts, leaves and witnesses are
  /// byte-identical with the cache on, off, warm, or cold.
  std::string cache_path;
  /// Consult the cache but never write the file back (shared/CI caches).
  bool cache_readonly = false;
  /// Non-owned, process-wide verdict cache (the `xcvd` serving path): when
  /// set it takes precedence over cache_path — the campaign consults and
  /// extends it but never loads or saves a file; the owner handles
  /// persistence and must outlive Run(). Never serialized. VerdictCache is
  /// internally synchronized, so many concurrent campaigns may share one.
  cache::VerdictCache* shared_cache = nullptr;
  /// Shard provenance (default: unsharded). Set by `xcv shard`.
  ShardInfo shard;
};

/// The state an unrun campaign records for one (f, cond) pair — exactly
/// what Campaign::Add starts from. Exposed so `xcv shard` (and tools that
/// build shardable checkpoints before any solving) construct fresh pair
/// lists that cannot drift from what `verify` would run.
PairState InitialPairState(const functionals::Functional& f,
                           const conditions::ConditionInfo& cond);

struct CampaignResult {
  std::vector<PairState> pairs;  // in enqueue order
  double seconds = 0.0;          // wall time of Run()
  bool cancelled = false;
  /// Verdict-cache summary (all zero when no cache was configured).
  std::uint64_t cache_entries = 0;   // entries held after the run
  bool cache_was_warm = false;       // the cache file loaded successfully

  std::size_t CompletedCount() const;
  /// Sums of the per-pair report counters.
  std::uint64_t CacheHits() const;
  std::uint64_t CacheMisses() const;
  std::uint64_t CacheRejected() const;
};

class Campaign {
 public:
  explicit Campaign(CampaignOptions options);
  ~Campaign();

  Campaign(const Campaign&) = delete;
  Campaign& operator=(const Campaign&) = delete;

  /// Enqueues one pair. `f` and `cond` must outlive Run() (registry entries
  /// always do; custom functionals are the caller's responsibility).
  /// Non-applicable pairs are recorded with verdict −.
  void Add(const functionals::Functional& f,
           const conditions::ConditionInfo& cond);

  /// Enqueues the full cross product, condition-major (Table I row order).
  void AddMatrix(const std::vector<functionals::Functional>& functionals,
                 const std::vector<conditions::ConditionInfo>& conditions);

  /// Enqueues a pair restored from a checkpoint. Names are resolved via the
  /// registries; throws xcv::InternalError for unknown names.
  void Restore(PairState state);

  /// Invoked (serialized, possibly from worker threads) each time a pair
  /// completes.
  using ProgressFn = std::function<void(
      const PairState& pair, std::size_t completed, std::size_t total)>;

  /// Runs every enqueued pair to completion (or cancellation) and returns
  /// the per-pair states. Call once.
  CampaignResult Run(ProgressFn progress = {});

  /// Cooperative cancellation: in-flight solver calls finish, every other
  /// box stays on its pair's open frontier for checkpointing. Safe from any
  /// thread and from signal handlers (only sets an atomic flag).
  void RequestCancel() { cancel_.store(true, std::memory_order_relaxed); }
  bool CancelRequested() const {
    return cancel_.load(std::memory_order_relaxed);
  }

  const CampaignOptions& options() const { return options_; }
  std::size_t PairCount() const { return entries_.size(); }

  /// The cache this campaign consults: the shared one when configured,
  /// else the owned per-run cache, else nullptr.
  const cache::VerdictCache* verdict_cache() const { return ActiveCache(); }

 private:
  struct Entry;

  cache::VerdictCache* ActiveCache() const {
    return options_.shared_cache != nullptr ? options_.shared_cache
                                            : cache_.get();
  }

  verifier::VerifierOptions TunedOptions(
      const functionals::Functional& f,
      const conditions::ConditionInfo& cond) const;
  void FinishPair(Entry& entry, const ProgressFn& progress);
  void WriteCheckpointLocked();

  CampaignOptions options_;
  std::unique_ptr<cache::VerdictCache> cache_;
  bool cache_was_warm_ = false;
  std::atomic<bool> cancel_{false};
  std::vector<std::unique_ptr<Entry>> entries_;
  std::mutex progress_mu_;  // serializes progress callbacks + checkpoints
  std::size_t completed_ = 0;
  bool ran_ = false;
};

}  // namespace xcv::campaign
