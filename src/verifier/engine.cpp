#include "verifier/engine.h"

#include <algorithm>
#include <cmath>
#include <exception>
#include <limits>
#include <map>
#include <set>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "support/check.h"
#include "support/thread_pool.h"

namespace xcv::verifier {

using solver::Box;
using solver::CheckResult;
using solver::DeltaSolver;
using solver::SatKind;

namespace {

// Large enough to outrank any box width on the paper domains (≤ 5 per
// axis), small enough to keep widest-first ordering among suspects.
constexpr double kSuspectBoost = 1e6;

struct OpenBoxLess {
  template <typename T>
  bool operator()(const T& a, const T& b) const {
    if (a.priority != b.priority) return a.priority < b.priority;
    return a.seq > b.seq;  // earlier submission first among ties
  }
};

bool LexLess(const std::vector<double>& a, const std::vector<double>& b) {
  return std::lexicographical_compare(a.begin(), a.end(), b.begin(), b.end());
}

// Strict total order on boxes of one partition: lexicographic on
// (lo, hi) per dimension. Disjoint partition leaves never tie.
bool BoxLess(const Box& a, const Box& b) {
  const std::size_t n = std::min(a.size(), b.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (a[i].lo() != b[i].lo()) return a[i].lo() < b[i].lo();
    if (a[i].hi() != b[i].hi()) return a[i].hi() < b[i].hi();
  }
  return a.size() < b.size();
}

// Observability instruments (src/obs/metrics.h). Each accessor resolves
// its registry slot once into a function-local static; after that an
// increment is one relaxed fetch_add — or one relaxed load when metrics
// are disabled. These mirror (never replace) the report counters: the
// fetch_adds on cache_hits_/solver_calls_/... below stay the source of
// truth for verdicts and CSVs.
obs::Counter& CacheLookupCounter(const char* outcome) {
  static const char* kHelp =
      "Verdict-cache lookups by outcome (mirrors the report's "
      "cache_hits/cache_misses/cache_rejected columns).";
  static obs::Counter& hit = obs::Registry::Global().GetCounter(
      "xcv_cache_lookups_total", kHelp, {"outcome"}, {"hit"});
  static obs::Counter& miss = obs::Registry::Global().GetCounter(
      "xcv_cache_lookups_total", kHelp, {"outcome"}, {"miss"});
  static obs::Counter& rejected = obs::Registry::Global().GetCounter(
      "xcv_cache_lookups_total", kHelp, {"outcome"}, {"rejected"});
  if (outcome[0] == 'h') return hit;
  if (outcome[0] == 'm') return miss;
  return rejected;
}

obs::Counter& SolverCallCounter(SatKind kind) {
  static const char* kHelp =
      "Boxes the solver decided, by result (sums to the report's "
      "solver_calls column; result=\"timeout\" is solver_timeouts).";
  static obs::Counter& unsat = obs::Registry::Global().GetCounter(
      "xcv_solver_calls_total", kHelp, {"result"}, {"unsat"});
  static obs::Counter& delta_sat = obs::Registry::Global().GetCounter(
      "xcv_solver_calls_total", kHelp, {"result"}, {"delta_sat"});
  static obs::Counter& timeout = obs::Registry::Global().GetCounter(
      "xcv_solver_calls_total", kHelp, {"result"}, {"timeout"});
  switch (kind) {
    case SatKind::kUnsat: return unsat;
    case SatKind::kDeltaSat: return delta_sat;
    case SatKind::kTimeout: return timeout;
  }
  return timeout;
}

void ObserveSolverStats(const solver::SolverStats& stats) {
  static obs::Counter& nodes = obs::Registry::Global().GetCounter(
      "xcv_solver_nodes_total", "ICP boxes popped across all solves.");
  static obs::Counter& contractions = obs::Registry::Global().GetCounter(
      "xcv_solver_contractions_total", "HC4 contraction passes executed.");
  static obs::Counter& prunes = obs::Registry::Global().GetCounter(
      "xcv_solver_prunes_total",
      "Boxes discarded by certainty or emptiness.");
  nodes.Add(static_cast<double>(stats.nodes));
  contractions.Add(static_cast<double>(stats.contractions));
  prunes.Add(static_cast<double>(stats.prunes));
}

}  // namespace

double FrontierPriority(FrontierStrategy strategy,
                        std::span<const Interval> box, bool suspect,
                        std::uint64_t seq) {
  switch (strategy) {
    case FrontierStrategy::kWidestFirst:
      return solver::MaxWidth(box);
    case FrontierStrategy::kSuspectFirst:
      return solver::MaxWidth(box) + (suspect ? kSuspectBoost : 0.0);
    case FrontierStrategy::kFifo:
      return -static_cast<double>(seq);
  }
  return 0.0;
}

void CanonicalizeReport(VerificationReport& report) {
  std::sort(report.leaves.begin(), report.leaves.end(),
            [](const Region& a, const Region& b) {
              return BoxLess(a.box, b.box);
            });
  std::sort(report.witnesses.begin(), report.witnesses.end(), LexLess);
}

// ---- Report union (distributed shard merge) ---------------------------------
// Leaves and open boxes are identified by solver::BoxBitsLess (-0.0 ≠ 0.0),
// the verdict cache's box key: shard resumes regenerate the exact boxes the
// splitting arithmetic produced.

int RegionStatusPrecedence(RegionStatus status) {
  switch (status) {
    case RegionStatus::kCounterexample: return 3;  // delta-sat, valid model
    case RegionStatus::kInconclusive: return 2;    // delta-sat, invalid model
    case RegionStatus::kVerified: return 1;        // unsat
    case RegionStatus::kTimeout: return 0;
  }
  return 0;
}

std::size_t MergeReportInto(VerificationReport& into,
                            VerificationReport&& from) {
  into.solver_calls += from.solver_calls;
  into.solver_timeouts += from.solver_timeouts;
  into.cache_hits += from.cache_hits;
  into.cache_misses += from.cache_misses;
  into.cache_rejected += from.cache_rejected;
  into.seconds += from.seconds;
  for (auto& w : from.witnesses) into.witnesses.push_back(std::move(w));

  // Box -> index of its first leaf in `into`.
  std::map<Box, std::size_t, solver::BoxBitsLess> index;
  for (std::size_t i = 0; i < into.leaves.size(); ++i)
    index.emplace(into.leaves[i].box, i);

  std::size_t dropped = 0;
  for (Region& leaf : from.leaves) {
    const auto [it, inserted] = index.emplace(leaf.box, into.leaves.size());
    if (inserted) {
      into.leaves.push_back(std::move(leaf));
      continue;
    }
    ++dropped;
    Region& existing = into.leaves[it->second];
    if (RegionStatusPrecedence(leaf.status) >
        RegionStatusPrecedence(existing.status))
      existing = std::move(leaf);
  }
  return dropped;
}

std::size_t CanonicalizeOpenBoxes(std::vector<solver::Box>& open,
                                  const VerificationReport& report) {
  // Every decided leaf, then every open box kept so far.
  std::set<Box, solver::BoxBitsLess> seen;
  for (const Region& leaf : report.leaves) seen.insert(leaf.box);
  const std::size_t before = open.size();
  std::erase_if(open, [&seen](const Box& box) {
    return !seen.insert(box).second;
  });
  std::sort(open.begin(), open.end(), BoxLess);
  return before - open.size();
}

std::vector<Box> SplitBox(const Box& box, bool split_all_dims) {
  if (!split_all_dims) {
    auto [a, b] = box.Bisect(box.WidestDim());
    return {std::move(a), std::move(b)};
  }
  std::vector<Box> out{box};
  for (std::size_t dim = 0; dim < box.size(); ++dim) {
    if (box[dim].IsPoint()) continue;
    std::vector<Box> next;
    next.reserve(out.size() * 2);
    for (const Box& b : out) {
      auto [left, right] = b.Bisect(dim);
      next.push_back(std::move(left));
      next.push_back(std::move(right));
    }
    out = std::move(next);
  }
  return out;
}

PairEngine::PairEngine(expr::BoolExpr psi, VerifierOptions options)
    : psi_(std::move(psi)),
      not_psi_(expr::BoolExpr::Not(psi_)),
      exact_psi_(psi_),
      options_(options) {
  XCV_CHECK_MSG(options_.split_threshold > 0.0,
                "split threshold must be positive");
  XCV_CHECK_MSG(options_.num_threads >= 1, "need at least one thread");
}

void PairEngine::SetTicketSink(std::function<void(double)> sink) {
  std::lock_guard<std::mutex> lock(mu_);
  sink_ = std::move(sink);
  queued_tickets_ = 0;
}

PairEngine::Tickets PairEngine::TopUpTicketsLocked() {
  Tickets t;
  if (!sink_) return t;
  const auto width = static_cast<std::size_t>(options_.solver.wave_width);
  const std::size_t needed = (open_.size() + width - 1) / width;
  if (needed <= queued_tickets_) return t;
  t.count = needed - queued_tickets_;
  queued_tickets_ = needed;
  t.priority = open_.front().priority;
  t.sink = sink_;
  return t;
}

void PairEngine::HandOut(const Tickets& tickets) {
  for (std::size_t i = 0; i < tickets.count; ++i)
    tickets.sink(tickets.priority);
}

void PairEngine::EmitTicketsForOpen() {
  Tickets tickets;
  {
    std::lock_guard<std::mutex> lock(mu_);
    tickets = TopUpTicketsLocked();
  }
  HandOut(tickets);
}

void PairEngine::PushLocked(std::span<const Interval> box, bool suspect) {
  if (store_.dims() != box.size()) {
    // Re-keying the store drops every slot; with live refs on the frontier
    // that would dangle them (possible only via a checkpoint whose open
    // boxes disagree on dimensionality — reject it loudly instead).
    XCV_CHECK_MSG(open_.empty() && in_flight_.empty(),
                  "open frontier boxes must share one dimensionality");
    store_.Reset(box.size());
  }
  OpenBox entry;
  entry.seq = next_seq_++;
  entry.priority =
      FrontierPriority(options_.frontier, box, suspect, entry.seq);
  entry.box_ref = store_.AllocateCopy(box);
  open_.push_back(entry);
  std::push_heap(open_.begin(), open_.end(), OpenBoxLess{});
}

void PairEngine::Seed(const Box& domain) {
  Tickets tickets;
  {
    std::lock_guard<std::mutex> lock(mu_);
    seeded_ = true;
    PushLocked(domain.dims(), /*suspect=*/false);
    tickets = TopUpTicketsLocked();
  }
  HandOut(tickets);
}

void PairEngine::Restore(VerificationReport partial, std::vector<Box> open) {
  Tickets tickets;
  {
    std::lock_guard<std::mutex> lock(mu_);
    seeded_ = true;
    solver_calls_.store(partial.solver_calls);
    solver_timeouts_.store(partial.solver_timeouts);
    cache_hits_.store(partial.cache_hits);
    cache_misses_.store(partial.cache_misses);
    cache_rejected_.store(partial.cache_rejected);
    busy_seconds_ = partial.seconds;
    report_ = std::move(partial);
    for (const Box& b : open) PushLocked(b.dims(), /*suspect=*/false);
    tickets = TopUpTicketsLocked();
  }
  HandOut(tickets);
}

std::unique_ptr<DeltaSolver> PairEngine::AcquireSolver() {
  {
    std::lock_guard<std::mutex> lock(solver_mu_);
    if (!free_solvers_.empty()) {
      auto s = std::move(free_solvers_.back());
      free_solvers_.pop_back();
      return s;
    }
  }
  return std::make_unique<DeltaSolver>(not_psi_, options_.solver);
}

void PairEngine::ReleaseSolver(std::unique_ptr<DeltaSolver> s) {
  std::lock_guard<std::mutex> lock(solver_mu_);
  free_solvers_.push_back(std::move(s));
}

bool PairEngine::ProcessNext(const std::atomic<bool>* cancel) {
  // Claim the batch: the best open boxes, up to wave_width. Materialize
  // value copies for the unlocked solver call; the pooled slots stay live
  // (and in the in-flight set) until the outcomes are recorded, so
  // Snapshot still sees the boxes.
  const auto limit = static_cast<std::size_t>(options_.solver.wave_width);
  std::vector<Claim> claims;
  std::vector<Box> boxes;
  claims.reserve(limit);  // allocate before taking the lock
  boxes.reserve(limit);
  bool expired;
  {
    std::lock_guard<std::mutex> lock(mu_);
    // A pool ticket is spent when it starts, whether or not it finds work:
    // the tickets still queued cover the open frontier (SetTicketSink).
    if (queued_tickets_ > 0) --queued_tickets_;
    if (cancel != nullptr && cancel->load(std::memory_order_relaxed))
      return false;
    if (open_.empty()) return false;
    while (claims.size() < limit && !open_.empty()) {
      std::pop_heap(open_.begin(), open_.end(), OpenBoxLess{});
      OpenBox& item = claims.emplace_back().item;
      item = open_.back();
      open_.pop_back();
      boxes.push_back(Box(store_.View(item.box_ref)));
      in_flight_.emplace_back(item.seq, item.box_ref);
    }
    // The budget covers this pair's own processing time, not the wall time
    // it spent queued behind other pairs on the shared pool (and not other
    // pairs' work): compare against accumulated busy seconds.
    expired = busy_seconds_ >= options_.total_time_budget_seconds;
  }

  Stopwatch watch;

  // Overall budget exhausted: classify the remaining area as timeout
  // without spending solver time (keeps the partition total).
  if (!expired) {
    auto solver = AcquireSolver();
    std::vector<CheckResult> results;
    {
      obs::Span solve_span("solve");
      results = solver->CheckMany(boxes, cancel);
      if (solve_span.armed()) {
        // Deterministic args only (no wall seconds): replays of the same
        // run under the fixed trace clock stay byte-identical.
        std::uint64_t nodes = 0;
        bool all_cached = true;
        for (const CheckResult& r : results) {
          nodes += r.stats.nodes;
          all_cached = all_cached && r.from_cache;
        }
        solve_span.Arg("boxes", static_cast<std::uint64_t>(results.size()));
        solve_span.Arg("nodes", nodes);
        solve_span.Arg("from_cache",
                       static_cast<std::uint64_t>(all_cached ? 1 : 0));
      }
    }
    ReleaseSolver(std::move(solver));

    for (std::size_t i = 0; i < claims.size(); ++i) {
      const CheckResult& result = results[i];
      Claim& claim = claims[i];
      if (result.cancelled) {
        claim.requeue = true;
        continue;
      }
      if (result.cache_rejected) {
        cache_rejected_.fetch_add(1, std::memory_order_relaxed);
        CacheLookupCounter("rejected").Inc();
      }
      if (result.from_cache) {
        // No solver ran; the replayed result is byte-equivalent to the cold
        // run's, so everything below (status, witness, split) replays too.
        cache_hits_.fetch_add(1, std::memory_order_relaxed);
        CacheLookupCounter("hit").Inc();
      } else {
        // hits / misses / rejected are disjoint per box (see region.h): a
        // rejected hit was not a miss — the lookup found an entry.
        if (options_.solver.cache != nullptr && !result.cache_rejected) {
          cache_misses_.fetch_add(1, std::memory_order_relaxed);
          CacheLookupCounter("miss").Inc();
        }
        solver_calls_.fetch_add(1, std::memory_order_relaxed);
        SolverCallCounter(result.kind).Inc();
        if (result.kind == SatKind::kTimeout)
          solver_timeouts_.fetch_add(1, std::memory_order_relaxed);
        if (obs::MetricsEnabled()) ObserveSolverStats(result.stats);
      }

      if (result.kind == SatKind::kUnsat) {
        claim.status = RegionStatus::kVerified;
        continue;
      }
      if (result.kind == SatKind::kDeltaSat) {
        // Algorithm 1's valid(x): the model must violate ψ beyond the
        // witness tolerance (see VerifierOptions::witness_tolerance). The
        // scratch is per call: worker threads share exact_psi_.
        expr::TapeBatchScratch scratch;
        const bool violates_psi = !exact_psi_.Holds(
            result.model, options_.witness_tolerance, scratch);
        if (violates_psi) {
          claim.status = RegionStatus::kCounterexample;
          claim.witness = result.model;
        } else {
          claim.status = RegionStatus::kInconclusive;
        }
      }
      // Leaf when children would fall below the threshold t.
      const Box& box = boxes[i];
      if (box.MaxWidth() / 2.0 >= options_.split_threshold) {
        claim.children = SplitBox(box, options_.split_all_dims);
        claim.child_suspect.resize(claim.children.size(), 0);
        if (result.kind == SatKind::kDeltaSat) {
          for (std::size_t c = 0; c < claim.children.size(); ++c)
            claim.child_suspect[c] = claim.children[c].Contains(result.model);
        }
      }
    }
  }

  const double elapsed = watch.ElapsedSeconds();
  Tickets tickets;
  {
    std::lock_guard<std::mutex> lock(mu_);
    busy_seconds_ += elapsed;
    for (std::size_t i = 0; i < claims.size(); ++i) {
      Claim& claim = claims[i];
      const OpenBox& item = claim.item;
      for (auto it = in_flight_.begin(); it != in_flight_.end(); ++it) {
        if (it->first == item.seq) {
          in_flight_.erase(it);
          break;
        }
      }
      if (claim.requeue) {
        // Back on the frontier unchanged: same slot, priority, and seq.
        open_.push_back(item);
        std::push_heap(open_.begin(), open_.end(), OpenBoxLess{});
        continue;
      }
      store_.Release(item.box_ref);  // leaf or split: the slot is recycled
      if (!claim.witness.empty()) report_.witnesses.push_back(claim.witness);
      if (claim.children.empty()) {
        report_.leaves.push_back(
            {std::move(boxes[i]), claim.status, std::move(claim.witness)});
      } else {
        for (std::size_t c = 0; c < claim.children.size(); ++c)
          PushLocked(claim.children[c].dims(), claim.child_suspect[c] != 0);
      }
    }
    tickets = TopUpTicketsLocked();
  }
  HandOut(tickets);
  return true;
}

bool PairEngine::Finished() const {
  std::lock_guard<std::mutex> lock(mu_);
  return seeded_ && open_.empty() && in_flight_.empty();
}

double PairEngine::TopPriority() const {
  std::lock_guard<std::mutex> lock(mu_);
  if (open_.empty()) return -std::numeric_limits<double>::infinity();
  return open_.front().priority;
}

std::size_t PairEngine::OpenCount() const {
  std::lock_guard<std::mutex> lock(mu_);
  return open_.size();
}

EngineSnapshot PairEngine::Snapshot() const {
  EngineSnapshot snap;
  std::lock_guard<std::mutex> lock(mu_);
  snap.report = report_;
  snap.report.solver_calls = solver_calls_.load();
  snap.report.solver_timeouts = solver_timeouts_.load();
  snap.report.cache_hits = cache_hits_.load();
  snap.report.cache_misses = cache_misses_.load();
  snap.report.cache_rejected = cache_rejected_.load();
  snap.report.seconds = busy_seconds_;
  snap.open.reserve(open_.size() + in_flight_.size());
  for (const OpenBox& b : open_)
    snap.open.push_back(Box(store_.View(b.box_ref)));
  for (const auto& [seq, ref] : in_flight_)
    snap.open.push_back(Box(store_.View(ref)));
  CanonicalizeReport(snap.report);
  std::sort(snap.open.begin(), snap.open.end(), BoxLess);
  return snap;
}

VerificationReport PairEngine::TakeReport() {
  std::lock_guard<std::mutex> lock(mu_);
  XCV_CHECK_MSG(in_flight_.empty(), "TakeReport while boxes are in flight");
  VerificationReport report = std::move(report_);
  report_ = VerificationReport{};
  report.solver_calls = solver_calls_.load();
  report.solver_timeouts = solver_timeouts_.load();
  report.cache_hits = cache_hits_.load();
  report.cache_misses = cache_misses_.load();
  report.cache_rejected = cache_rejected_.load();
  report.seconds = busy_seconds_;
  CanonicalizeReport(report);
  return report;
}

std::vector<Box> PairEngine::TakeOpenFrontier() {
  std::lock_guard<std::mutex> lock(mu_);
  XCV_CHECK_MSG(in_flight_.empty(),
                "TakeOpenFrontier while boxes are in flight");
  std::vector<Box> out;
  out.reserve(open_.size());
  for (const OpenBox& b : open_) {
    out.push_back(Box(store_.View(b.box_ref)));
    store_.Release(b.box_ref);
  }
  open_.clear();
  std::sort(out.begin(), out.end(), BoxLess);
  return out;
}

void RunEngines(std::span<PairEngine* const> engines, int num_threads,
                const std::atomic<bool>* cancel,
                const std::function<void(std::size_t)>& finished) {
  if (num_threads <= 1) {
    for (;;) {
      if (cancel != nullptr && cancel->load(std::memory_order_relaxed)) return;
      std::size_t best = engines.size();
      double best_priority = -std::numeric_limits<double>::infinity();
      for (std::size_t i = 0; i < engines.size(); ++i) {
        const double p = engines[i]->TopPriority();
        if (p > best_priority) {
          best_priority = p;
          best = i;
        }
      }
      if (best == engines.size()) return;
      engines[best]->ProcessNext(cancel);
      if (finished && engines[best]->Finished()) finished(best);
    }
  }
  const auto cap = static_cast<std::size_t>(num_threads);
  ThreadPool& pool = ThreadPool::Global(cap);
  auto group = pool.MakeGroup(cap);
  // The first error a ticket throws stops the group: tickets that start
  // after it return without work, and it is rethrown once the group has
  // drained, as the one-thread loop would have thrown it.
  std::exception_ptr error;
  std::atomic<bool> failed{false};
  // Each ticket decides a batch of its engine's *current* best boxes.
  for (std::size_t i = 0; i < engines.size(); ++i) {
    PairEngine* engine = engines[i];
    engine->SetTicketSink([&, engine, i](double priority) {
      pool.Submit(group, priority, [&, engine, i] {
        if (failed.load(std::memory_order_relaxed)) return;
        try {
          engine->ProcessNext(cancel);
          if (finished && engine->Finished()) finished(i);
        } catch (...) {
          // Only the ticket that sets the flag writes the error;
          // pool.Wait orders that write before the rethrow below.
          if (!failed.exchange(true)) error = std::current_exception();
        }
      });
    });
  }
  for (PairEngine* engine : engines) engine->EmitTicketsForOpen();
  pool.Wait(group);
  for (PairEngine* engine : engines) engine->SetTicketSink(nullptr);
  if (error) std::rethrow_exception(error);
}

}  // namespace xcv::verifier
