#include "solver/icp.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <utility>

#include <bit>

#include "cache/verdict_cache.h"
#include "expr/optimize.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "support/check.h"

namespace xcv::solver {

using expr::BoolExpr;

namespace {
// Presample lattice chunk: bounds the batch scratch to tape slots × kChunk
// doubles.
constexpr std::size_t kPresampleChunk = 1024;

// Lane fill of the classify waves: one relaxed add each per wave (cache
// revalidation sweeps are not waves). lanes / waves is the mean fill.
void ObserveWave(std::size_t lanes) {
  static obs::Counter& waves = obs::Registry::Global().GetCounter(
      "xcv_solver_waves_total",
      "Classify waves (batched interval sweeps over up to wave_width "
      "boxes).");
  static obs::Counter& wave_lanes = obs::Registry::Global().GetCounter(
      "xcv_solver_wave_lanes_total", "Boxes classified across all waves.");
  waves.Inc();
  wave_lanes.Add(static_cast<double>(lanes));
}

// The ring projections (kAdd/kMul/kDiv/kSqr slot visits) a wave's backward
// sweeps ran or skipped as clean, taken from the sweep scratch once per wave.
void ObserveProjections(expr::TapeBackwardBatchScratch& bs) {
  static constexpr char kHelp[] =
      "Backward-sweep visits to add/mul/div/sqr slots with an alive lane, "
      "by whether their projections ran or were skipped as clean.";
  static obs::Counter& run = obs::Registry::Global().GetCounter(
      "xcv_solver_projections_total", kHelp, {"outcome"}, {"run"});
  static obs::Counter& skipped = obs::Registry::Global().GetCounter(
      "xcv_solver_projections_total", kHelp, {"outcome"}, {"skipped"});
  run.Add(static_cast<double>(bs.projections_run));
  skipped.Add(static_cast<double>(bs.projections_skipped));
  bs.projections_run = 0;
  bs.projections_skipped = 0;
}

// One per CheckMany call with cache hits.
obs::Counter& CacheRevalidationCounter() {
  static obs::Counter& c = obs::Registry::Global().GetCounter(
      "xcv_cache_revalidations_total",
      "Batched forward sweeps run to revalidate cached verdicts.");
  return c;
}
}  // namespace

std::string SatKindName(SatKind kind) {
  switch (kind) {
    case SatKind::kUnsat: return "UNSAT";
    case SatKind::kDeltaSat: return "delta-SAT";
    case SatKind::kTimeout: return "TIMEOUT";
  }
  return "?";
}

DeltaSolver::DeltaSolver(expr::BoolExpr formula, SolverOptions options)
    : exact_(formula), options_(options) {
  XCV_CHECK_MSG(options_.delta > 0.0, "delta must be positive");
  XCV_CHECK_MSG(
      options_.wave_width >= 1 && options_.wave_width <= kMaxWaveWidth,
      "wave width must be in [1, " << kMaxWaveWidth << "], got "
                                   << options_.wave_width);
  // Interval tapes: Optimize of each exact tape, which is exactly
  // CompileOptimized of the atom, so each atom is compiled once.
  atoms_.reserve(exact_.atoms().size());
  for (const Atom& atom : exact_.atoms())
    atoms_.push_back({expr::Optimize(atom.tape), atom.rel});
  CollectRequiredAtoms(exact_.skeleton(), required_atoms_);
  std::sort(required_atoms_.begin(), required_atoms_.end());
  required_atoms_.erase(
      std::unique(required_atoms_.begin(), required_atoms_.end()),
      required_atoms_.end());
  is_required_.assign(atoms_.size(), 0);
  for (int atom : required_atoms_)
    is_required_[static_cast<std::size_t>(atom)] = 1;

  // Reserve every evaluation scratch once, up front: the hot loop must not
  // grow buffers lazily (one solver serves thousands of nodes per call,
  // and campaign workers each own a solver from the engine's free-list).
  std::size_t max_slots = 0, max_exact_slots = 0;
  for (const Atom& atom : atoms_)
    max_slots = std::max(max_slots, atom.tape.size());
  for (const Atom& atom : exact_.atoms())
    max_exact_slots = std::max(max_exact_slots, atom.tape.size());
  interval_batch_.Reserve(max_slots,
                          static_cast<std::size_t>(options_.wave_width));
  exact_scratch_.Reserve(max_exact_slots, 1);
  // The presample lattice never exceeds presample_points points, so cap the
  // chunk reservation accordingly (and skip it entirely when presampling is
  // off — engine workers each own a solver, so idle scratch multiplies).
  if (options_.presample_points > 0) {
    presample_.batch.Reserve(
        max_slots,
        std::min(kPresampleChunk,
                 static_cast<std::size_t>(options_.presample_points)));
  }
  const auto width = static_cast<std::size_t>(options_.wave_width);
  req_batch_.resize(required_atoms_.size());
  for (std::size_t r = 0; r < required_atoms_.size(); ++r)
    req_batch_[r].Reserve(
        atoms_[static_cast<std::size_t>(required_atoms_[r])].tape.size(),
        width);
  backward_.Reserve(max_slots, width);

  cache_scope_ = ComputeCacheScope();
}

std::uint64_t DeltaSolver::ComputeCacheScope() const {
  using expr::FnvMix;
  // Formula identity: canonical optimized tape of every distinct atom (in
  // compilation order, which is deterministic for a fixed formula) plus the
  // skeleton's shape over atom indices.
  std::uint64_t h = expr::kFnvOffset;
  for (const Atom& atom : atoms_) {
    h = FnvMix(h, expr::TapeFingerprint(atom.tape));
    h = FnvMix(h, static_cast<std::uint64_t>(atom.rel));
  }
  auto hash_skeleton = [&h](auto&& self, const Node& node) -> void {
    h = FnvMix(h, static_cast<std::uint64_t>(node.kind));
    h = FnvMix(h, static_cast<std::uint64_t>(
                      static_cast<std::int64_t>(node.atom)));
    h = FnvMix(h, node.children.size());
    for (const Node& c : node.children) self(self, c);
  };
  hash_skeleton(hash_skeleton, exact_.skeleton());
  // Every verdict-affecting option. wave_width is deliberately absent: it
  // batches evaluation without changing any verdict, model, or node count,
  // so caches stay valid across wave-width changes.
  h = FnvMix(h, std::bit_cast<std::uint64_t>(options_.delta));
  h = FnvMix(h, options_.max_nodes);
  h = FnvMix(h, std::bit_cast<std::uint64_t>(options_.time_budget_seconds));
  h = FnvMix(h, static_cast<std::uint64_t>(
                    static_cast<std::int64_t>(options_.contraction_rounds)));
  h = FnvMix(h, static_cast<std::uint64_t>(
                    static_cast<std::int64_t>(options_.max_invalid_models)));
  h = FnvMix(h, static_cast<std::uint64_t>(
                    static_cast<std::int64_t>(options_.presample_points)));
  h = FnvMix(h, options_.cache_salt);
  return h;
}

void DeltaSolver::MaybeRecord(const Box& domain, const CheckResult& result,
                              bool deadline_stopped) const {
  if (options_.cache == nullptr) return;
  // Wall-clock-caused outcomes are not reproducible — a rerun (or another
  // machine) could get further. Everything else is a pure function of
  // (formula, options, box) and replays exactly.
  if (deadline_stopped) return;
  cache::CachedVerdict cv;
  switch (result.kind) {
    case SatKind::kUnsat:
      cv.kind = cache::CachedKind::kUnsat;
      break;
    case SatKind::kDeltaSat:
      cv.kind = cache::CachedKind::kDeltaSat;
      cv.model = result.model;
      cv.model_box.assign(result.model_box.dims().begin(),
                          result.model_box.dims().end());
      break;
    case SatKind::kTimeout:
      cv.kind = cache::CachedKind::kTimeout;
      break;
  }
  cv.nodes = result.stats.nodes;
  options_.cache->Store(cache_scope_, domain.dims(), std::move(cv));
}

void DeltaSolver::CollectRequiredAtoms(const Node& node,
                                       std::vector<int>& out) const {
  switch (node.kind) {
    case BoolExpr::Kind::kAtom:
      out.push_back(node.atom);
      return;
    case BoolExpr::Kind::kAnd:
      for (const Node& c : node.children) CollectRequiredAtoms(c, out);
      return;
    default:
      return;  // atoms under Or are not necessary conditions
  }
}

DeltaSolver::Tri DeltaSolver::ClassifyRoot(const Interval& root,
                                           expr::Rel rel) {
  if (root.IsEmpty()) return Tri::kFalse;  // nowhere defined
  if (rel == expr::Rel::kLe) {
    if (root.hi() <= 0.0) return Tri::kTrue;
    if (root.lo() > 0.0) return Tri::kFalse;
  } else {
    if (root.hi() < 0.0) return Tri::kTrue;
    if (root.lo() >= 0.0) return Tri::kFalse;
  }
  return Tri::kUnknown;
}

DeltaSolver::Tri DeltaSolver::EvaluateSkeleton(const Node& node,
                                               const Tri* atom_status) const {
  switch (node.kind) {
    case BoolExpr::Kind::kTrue: return Tri::kTrue;
    case BoolExpr::Kind::kFalse: return Tri::kFalse;
    case BoolExpr::Kind::kAtom:
      return atom_status[static_cast<std::size_t>(node.atom)];
    case BoolExpr::Kind::kAnd: {
      Tri acc = Tri::kTrue;
      for (const Node& c : node.children) {
        const Tri t = EvaluateSkeleton(c, atom_status);
        if (t == Tri::kFalse) return Tri::kFalse;
        if (t == Tri::kUnknown) acc = Tri::kUnknown;
      }
      return acc;
    }
    case BoolExpr::Kind::kOr: {
      Tri acc = Tri::kFalse;
      for (const Node& c : node.children) {
        const Tri t = EvaluateSkeleton(c, atom_status);
        if (t == Tri::kTrue) return Tri::kTrue;
        if (t == Tri::kUnknown) acc = Tri::kUnknown;
      }
      return acc;
    }
  }
  return Tri::kUnknown;
}

bool DeltaSolver::ValidateModel(std::span<const double> model) {
  return exact_.Holds(model, 0.0, exact_scratch_);
}

bool DeltaSolver::PresampleLattice(const Box& domain, CheckResult& result) {
  const std::size_t dims = domain.size();
  const auto per_dim = static_cast<std::size_t>(std::max(
      2.0,
      std::floor(std::pow(static_cast<double>(options_.presample_points),
                          1.0 / static_cast<double>(dims)))));
  std::size_t total = 1;
  for (std::size_t d = 0; d < dims; ++d) total *= per_dim;

  // Deterministic interior lattice, laid out structure-of-arrays so each
  // atom tape runs once over all points instead of once per point.
  auto& coords = presample_.coords;
  coords.resize(dims);
  for (std::size_t d = 0; d < dims; ++d) coords[d].resize(total);
  for (std::size_t i = 0; i < total; ++i) {
    std::size_t rest = i;
    for (std::size_t d = 0; d < dims; ++d) {
      const std::size_t idx = rest % per_dim;
      rest /= per_dim;
      const double fraction =
          (static_cast<double>(idx) + 0.5) / static_cast<double>(per_dim);
      coords[d][i] = domain[d].lo() + fraction * domain[d].Width();
    }
  }

  auto& values = presample_.values;
  values.resize(atoms_.size());
  std::vector<const double*> inputs(dims);
  for (std::size_t a = 0; a < atoms_.size(); ++a) {
    values[a].resize(total);
    const expr::Tape& tape = atoms_[a].tape;
    for (std::size_t start = 0; start < total; start += kPresampleChunk) {
      const std::size_t n = std::min(kPresampleChunk, total - start);
      for (std::size_t d = 0; d < dims; ++d)
        inputs[d] = coords[d].data() + start;
      expr::EvalTapeBatch(tape, inputs, n, values[a].data() + start,
                          presample_.batch);
    }
  }

  auto& point_values = presample_.point_values;
  point_values.resize(atoms_.size());
  std::vector<double> point(dims);
  for (std::size_t i = 0; i < total; ++i) {
    for (std::size_t a = 0; a < atoms_.size(); ++a)
      point_values[a] = values[a][i];
    if (!exact_.HoldsGiven(point_values, 0.0)) continue;
    for (std::size_t d = 0; d < dims; ++d) point[d] = coords[d][i];
    // The batch screen ran on optimized tapes; confirm on the exact tapes
    // before reporting, so returned models are genuine under IEEE
    // semantics.
    if (!exact_.Holds(point, 0.0, exact_scratch_)) continue;
    result.kind = SatKind::kDeltaSat;
    result.model = point;
    std::vector<Interval> dims_iv;
    dims_iv.reserve(dims);
    for (double v : point) dims_iv.emplace_back(v);
    result.model_box = Box(std::move(dims_iv));
    return true;
  }
  return false;
}

BoxStore::Ref DeltaSolver::NewNodeFromTmp(std::size_t owner) {
  const BoxStore::Ref ref = store_.AllocateCopy(tmp_box_);
  const std::size_t atoms = atoms_.size();
  if (classified_.size() < store_.capacity()) {
    classified_.resize(store_.capacity(), 0);
    owner_arena_.resize(store_.capacity());
    status_arena_.resize(store_.capacity() * atoms);
    bwd_empty_arena_.resize(store_.capacity());
    bwd_count_arena_.resize(store_.capacity());
    bwd_box_arena_.resize(store_.capacity() * store_.dims() * 2);
    child_arena_.resize(store_.capacity() * 2, -1);
  }
  const auto slot = static_cast<std::size_t>(ref);
  classified_[slot] = 0;
  owner_arena_[slot] = static_cast<std::uint8_t>(owner);
  child_arena_[slot * 2] = -1;
  child_arena_[slot * 2 + 1] = -1;
  return ref;
}

void DeltaSolver::RunWave() {
  // Level 0: every parked box, then the unclassified open boxes nearest the
  // top of each parked search's stack, one per search in turn. Those boxes
  // will be popped later with these exact bounds (stack entries are
  // immutable until popped), so classifying them early is pure
  // speculation-free batching: after a split, the two fresh children ride
  // the same sweep, and deeper stack boxes fill the remaining lanes.
  const auto width = static_cast<std::size_t>(options_.wave_width);
  wave_refs_.clear();
  cursor_.clear();
  for (const std::size_t i : round_) {
    const Search& s = searches_[i];
    if (s.parked < 0) continue;
    wave_refs_.push_back(s.parked);
    cursor_.push_back(s.stack.size());
  }
  for (bool took = true; took && wave_refs_.size() < width;) {
    took = false;
    std::size_t j = 0;
    for (const std::size_t i : round_) {
      const Search& s = searches_[i];
      if (s.parked < 0) continue;
      std::size_t& c = cursor_[j++];
      while (c > 0 && classified_[static_cast<std::size_t>(s.stack[c - 1])])
        --c;
      if (c == 0 || wave_refs_.size() >= width) continue;
      wave_refs_.push_back(s.stack[--c]);
      took = true;
    }
  }

  // Speculative breadth-first descent. The fixpoint precompute already
  // yields each surviving lane's final contracted box, so the split the pop
  // will perform is known right now: materialize the two halves and
  // classify the children as the next wave, doubling the level while it
  // fits wave_width (the `expanded` cap bounds work per round when prunes
  // keep the level narrow). With a full batch of searches level 0 already
  // fills the wave, so this runs in a batch's tail. The tree is each
  // search's future search tree, so nothing here is wasted except past an
  // early return, and verdicts, boxes, and stats are byte-identical
  // throughout.
  std::size_t expanded = 0;
  while (!wave_refs_.empty() && wave_refs_.size() <= width &&
         expanded < 2 * width) {
    for (const BoxStore::Ref ref : wave_refs_)
      ++searches_[owner_arena_[static_cast<std::size_t>(ref)]].lanes;
    ClassifyContractWave();
    expanded += wave_refs_.size();
    ExpandWaveChildren();
    wave_refs_.swap(next_refs_);
  }
}

void DeltaSolver::ClassifyContractWave() {
  const auto width = static_cast<std::size_t>(options_.wave_width);
  const std::size_t k_boxes = wave_refs_.size();
  const std::size_t dims = store_.dims();
  for (std::size_t d = 0; d < dims; ++d) {
    double* lo = wave_lo_.data() + d * width;
    double* hi = wave_hi_.data() + d * width;
    for (std::size_t k = 0; k < k_boxes; ++k) {
      const Interval& iv = store_.View(wave_refs_[k])[d];
      lo[k] = iv.lo();
      hi[k] = iv.hi();
    }
  }

  const std::size_t atoms = atoms_.size();
  const std::size_t nreq = required_atoms_.size();
  // Per-wave (not per-node) phase spans: one relaxed load when no trace is
  // armed, so the kernels stay clean of clock reads in normal runs.
  obs::TraceRecorder& trec = obs::TraceRecorder::Global();
  const bool tracing = trec.armed();
  const std::uint64_t trace_t0 = tracing ? trec.NowUs() : 0;

  // Forward sweeps. Required atoms fill their own scratch so the per-slot
  // lanes survive until the backward pass below; the rest share one.
  std::size_t r = 0;
  for (std::size_t a = 0; a < atoms; ++a) {
    const Atom& atom = atoms_[a];
    expr::TapeIntervalBatchScratch& fb =
        is_required_[a] ? req_batch_[r] : interval_batch_;
    expr::EvalTapeIntervalBatch(atom.tape, wave_lo_ptrs_, wave_hi_ptrs_,
                                k_boxes, fb);
    const auto root = static_cast<std::size_t>(atom.tape.root());
    for (std::size_t k = 0; k < k_boxes; ++k) {
      status_arena_[static_cast<std::size_t>(wave_refs_[k]) * atoms + a] =
          ClassifyRoot(fb.At(root, k), atom.rel);
    }
    r += is_required_[a];
  }
  for (std::size_t k = 0; k < k_boxes; ++k)
    classified_[static_cast<std::size_t>(wave_refs_[k])] = 1;
  ObserveWave(k_boxes);
  if (tracing)
    trec.RecordComplete("classify", "xcv", trace_t0,
                        trec.NowUs() - trace_t0,
                        "\"boxes\":" + std::to_string(k_boxes));

  // Batched HC4 fixpoint over every undecided lane: rounds × required atoms,
  // precomputed for the whole wave and replayed at pop. Per-lane masks keep
  // each lane's control flow its own — a lane stops taking sweeps the moment
  // its box proves empty, and leaves the loop after a round with no
  // contraction — so its narrowing sequence, final box, and
  // contraction-call count do not depend on its wave-mates.
  const std::uint64_t trace_t1 = tracing ? trec.NowUs() : 0;
  wave_active_.resize(width);
  wave_any_.resize(width);
  wave_done_.resize(width);
  wave_empty_.resize(width);
  wave_unknown_.resize(width);
  wave_count_.resize(width);
  wave_outcome_.resize(width);
  std::size_t undecided = 0;
  for (std::size_t k = 0; k < k_boxes; ++k) {
    const auto ref_k = static_cast<std::size_t>(wave_refs_[k]);
    // Decided lanes are pruned or accepted at pop before any contraction;
    // only Tri::kUnknown lanes consult the arena.
    const bool unknown =
        EvaluateSkeleton(exact_.skeleton(),
                         status_arena_.data() + ref_k * atoms) ==
        Tri::kUnknown;
    wave_done_[k] = !unknown;
    wave_unknown_[k] = unknown;
    wave_empty_[k] = 0;
    wave_count_[k] = 0;
    undecided += unknown;
  }
  if (undecided == 0) {
    if (tracing)
      trec.RecordComplete("contract", "xcv", trace_t1,
                          trec.NowUs() - trace_t1,
                          "\"boxes\":" + std::to_string(k_boxes));
    return;
  }

  // Working boxes: start from the wave bounds, narrow in place.
  std::memcpy(bwd_lo_.data(), wave_lo_.data(), dims * width * sizeof(double));
  std::memcpy(bwd_hi_.data(), wave_hi_.data(), dims * width * sizeof(double));

  // While no lane has narrowed, the classification sweeps in req_batch_ are
  // the forward enclosures of the current boxes; afterwards each atom's
  // sweep is re-run on the narrowed boxes (bit-identical for lanes whose
  // box did not change — same inputs, same kernels).
  bool wave_untouched = true;
  for (int round = 0; round < options_.contraction_rounds; ++round) {
    std::size_t in_round = 0;
    for (std::size_t k = 0; k < k_boxes; ++k) {
      wave_active_[k] = !wave_done_[k];
      wave_any_[k] = 0;
      in_round += wave_active_[k];
    }
    if (in_round == 0) break;
    for (std::size_t rr = 0; rr < nreq; ++rr) {
      const auto a = static_cast<std::size_t>(required_atoms_[rr]);
      expr::TapeIntervalBatchScratch* fwd = &req_batch_[rr];
      if (round != 0 || !wave_untouched) {
        fwd = &interval_batch_;
        expr::EvalTapeIntervalBatch(atoms_[a].tape, bwd_clo_ptrs_,
                                    bwd_chi_ptrs_, k_boxes, *fwd);
      }
      for (std::size_t k = 0; k < k_boxes; ++k)
        wave_count_[k] += wave_active_[k];
      expr::ContractTapeIntervalBatch(atoms_[a].tape, *fwd,
                                      bwd_lo_ptrs_, bwd_hi_ptrs_, k_boxes,
                                      wave_active_.data(),
                                      wave_outcome_.data(), backward_);
      for (std::size_t k = 0; k < k_boxes; ++k) {
        if (!wave_active_[k]) continue;
        if (wave_outcome_[k] == expr::kContractLaneEmpty) {
          wave_empty_[k] = 1;
          wave_done_[k] = 1;
          wave_active_[k] = 0;  // no further sweeps for an empty box
        } else if (wave_outcome_[k] == expr::kContractLaneContracted) {
          wave_any_[k] = 1;
          wave_untouched = false;
        }
      }
    }
    for (std::size_t k = 0; k < k_boxes; ++k)
      if (wave_active_[k] && !wave_any_[k]) wave_done_[k] = 1;
  }

  ObserveProjections(backward_);

  for (std::size_t k = 0; k < k_boxes; ++k) {
    if (!wave_unknown_[k]) continue;
    const auto ref_k = static_cast<std::size_t>(wave_refs_[k]);
    bwd_empty_arena_[ref_k] = wave_empty_[k];
    bwd_count_arena_[ref_k] = wave_count_[k];
    if (!wave_empty_[k]) {
      double* dst = bwd_box_arena_.data() + ref_k * dims * 2;
      for (std::size_t d = 0; d < dims; ++d) {
        dst[2 * d] = bwd_lo_[d * width + k];
        dst[2 * d + 1] = bwd_hi_[d * width + k];
      }
    }
  }
  if (tracing)
    trec.RecordComplete("contract", "xcv", trace_t1,
                        trec.NowUs() - trace_t1,
                        "\"boxes\":" + std::to_string(k_boxes));
}

void DeltaSolver::ExpandWaveChildren() {
  next_refs_.clear();
  const std::size_t dims = store_.dims();
  const std::size_t k_boxes = wave_refs_.size();
  for (std::size_t k = 0; k < k_boxes; ++k) {
    // Decided lanes are pruned or accepted at pop before any split, empty
    // lanes are pruned after the arena replay, and delta-floor lanes
    // terminate — only the rest reach pop step 4's split.
    if (!wave_unknown_[k]) continue;
    const auto ref_k = static_cast<std::size_t>(wave_refs_[k]);
    if (bwd_empty_arena_[ref_k] != 0) continue;
    // The box the pop will bisect: the fixpoint's final box. Copied into
    // tmp_box_ before allocating — NewNodeFromTmp can grow the arenas and
    // the store.
    const double* src = bwd_box_arena_.data() + ref_k * dims * 2;
    tmp_box_.resize(dims);
    for (std::size_t d = 0; d < dims; ++d)
      tmp_box_[d] = Interval(src[2 * d], src[2 * d + 1]);
    if (solver::MaxWidth(tmp_box_) <= options_.delta) continue;
    const std::size_t widest = solver::WidestDim(tmp_box_);
    Interval left, right;
    tmp_box_[widest].Bisect(&left, &right);
    tmp_box_[widest] = right;
    const std::size_t owner = owner_arena_[ref_k];
    const BoxStore::Ref right_ref = NewNodeFromTmp(owner);
    tmp_box_[widest] = left;
    const BoxStore::Ref left_ref = NewNodeFromTmp(owner);
    child_arena_[ref_k * 2] = left_ref;
    child_arena_[ref_k * 2 + 1] = right_ref;
    next_refs_.push_back(left_ref);
    next_refs_.push_back(right_ref);
  }
}

void DeltaSolver::ShapeWaveRows(std::size_t dims) {
  const auto width = static_cast<std::size_t>(options_.wave_width);
  wave_lo_.resize(dims * width);
  wave_hi_.resize(dims * width);
  wave_lo_ptrs_.resize(dims);
  wave_hi_ptrs_.resize(dims);
  bwd_lo_.resize(dims * width);
  bwd_hi_.resize(dims * width);
  bwd_lo_ptrs_.resize(dims);
  bwd_hi_ptrs_.resize(dims);
  bwd_clo_ptrs_.resize(dims);
  bwd_chi_ptrs_.resize(dims);
  for (std::size_t d = 0; d < dims; ++d) {
    wave_lo_ptrs_[d] = wave_lo_.data() + d * width;
    wave_hi_ptrs_[d] = wave_hi_.data() + d * width;
    bwd_clo_ptrs_[d] = bwd_lo_ptrs_[d] = bwd_lo_.data() + d * width;
    bwd_chi_ptrs_[d] = bwd_hi_ptrs_[d] = bwd_hi_.data() + d * width;
  }
}

template <typename BoxAt>
void DeltaSolver::ClassifySweep(std::size_t n, BoxAt box_at,
                                std::vector<int>& out) {
  const auto width = static_cast<std::size_t>(options_.wave_width);
  XCV_CHECK_MSG(n <= width, "ClassifyBoxes takes at most wave_width ("
                                << width << ") boxes, got " << n);
  out.assign(n, 0);
  if (n == 0) return;
  const std::size_t dims = box_at(0).size();
  const std::size_t atoms = atoms_.size();
  ShapeWaveRows(dims);
  for (std::size_t k = 0; k < n; ++k) {
    const Box& box = box_at(k);
    XCV_DCHECK(box.size() == dims);
    for (std::size_t d = 0; d < dims; ++d) {
      wave_lo_[d * width + k] = box[d].lo();
      wave_hi_[d * width + k] = box[d].hi();
    }
  }

  // One batched sweep per atom, statuses per (box, atom).
  status_arena_.resize(n * atoms);
  for (std::size_t a = 0; a < atoms; ++a) {
    const Atom& atom = atoms_[a];
    expr::EvalTapeIntervalBatch(atom.tape, wave_lo_ptrs_, wave_hi_ptrs_, n,
                                interval_batch_);
    const auto root = static_cast<std::size_t>(atom.tape.root());
    for (std::size_t k = 0; k < n; ++k)
      status_arena_[k * atoms + a] =
          ClassifyRoot(interval_batch_.At(root, k), atom.rel);
  }

  for (std::size_t k = 0; k < n; ++k) {
    const Tri truth =
        EvaluateSkeleton(exact_.skeleton(), status_arena_.data() + k * atoms);
    out[k] = truth == Tri::kTrue ? 1 : truth == Tri::kFalse ? -1 : 0;
  }
}

bool DeltaSolver::DecideUpFront(Search& s) {
  const Box& domain = *s.domain;
  CheckResult& result = s.result;
  if (domain.AnyEmpty()) {
    result.kind = SatKind::kUnsat;
    return true;
  }

  // Verdict cache: an exact (scope, box) hit replays the recorded result
  // without any solver work, once RevalidateHits trusts it.
  cache::CachedVerdict cv;
  if (options_.cache == nullptr ||
      !options_.cache->Lookup(cache_scope_, domain.dims(), &cv))
    return false;
  switch (cv.kind) {
    case cache::CachedKind::kUnsat: result.kind = SatKind::kUnsat; break;
    case cache::CachedKind::kDeltaSat:
      result.kind = SatKind::kDeltaSat;
      result.model = std::move(cv.model);
      result.model_box = Box(std::move(cv.model_box));
      break;
    case cache::CachedKind::kTimeout:
      result.kind = SatKind::kTimeout;
      break;
  }
  result.stats.nodes = cv.nodes;
  result.from_cache = true;
  return true;
}

void DeltaSolver::RevalidateHits() {
  hit_searches_.clear();
  for (std::size_t i = 0; i < searches_.size(); ++i)
    if (searches_[i].result.from_cache) hit_searches_.push_back(i);
  const std::size_t hits = hit_searches_.size();
  if (hits == 0) return;
  {
    obs::Span span("cache-revalidate");
    span.Arg("wave", static_cast<std::uint64_t>(hits));
    ClassifySweep(
        hits,
        [this](std::size_t k) -> const Box& {
          return *searches_[hit_searches_[k]].domain;
        },
        hit_tri_);
  }
  CacheRevalidationCounter().Inc();

  // The sweep classified the formula over each box: +1 = certainly
  // satisfiable everywhere, -1 = certainly unsatisfiable, 0 = undecided. A
  // verdict that contradicts its box's classification cannot have come
  // from a run of this solver on this box (a scope-hash collision or a
  // tampered file): search the box like a miss.
  for (std::size_t k = 0; k < hits; ++k) {
    Search& s = searches_[hit_searches_[k]];
    const CheckResult& result = s.result;
    const int tri = hit_tri_[k];
    bool trusted = false;
    switch (result.kind) {
      case SatKind::kUnsat:
        trusted = tri != 1;
        break;
      case SatKind::kDeltaSat:
        trusted = tri != -1 && !result.model.empty() &&
                  s.domain->Contains(result.model);
        break;
      case SatKind::kTimeout:
        // A box decidable by one forward sweep is decided at node 1 — it
        // can never exhaust a node budget.
        trusted = tri == 0;
        break;
    }
    if (trusted) continue;
    s.result = CheckResult{};
    s.result.cache_rejected = true;
    s.done = false;
  }
}

bool DeltaSolver::Presample(Search& s) {
  // Model guessing: probe an interior lattice before any interval work. The
  // lattice is evaluated in batch over the atoms' optimized tapes; hits are
  // confirmed on the exact tapes before being reported.
  if (options_.presample_points <= 0) return false;
  obs::Span span("presample");
  const bool hit = PresampleLattice(*s.domain, s.result);
  span.Arg("hit", static_cast<std::uint64_t>(hit ? 1 : 0));
  if (hit) MaybeRecord(*s.domain, s.result, /*deadline_stopped=*/false);
  return hit;
}

void DeltaSolver::Accept(Search& s, std::span<const Interval> box,
                         std::vector<double> model) {
  s.result.kind = SatKind::kDeltaSat;
  s.result.model = std::move(model);
  s.result.model_box = Box(box);
  MaybeRecord(*s.domain, s.result, /*deadline_stopped=*/false);
  s.done = true;
}

void DeltaSolver::Settle(Search& s, SatKind kind, bool deadline_stopped) {
  if (s.invalid_candidates > 0) {
    s.result.kind = SatKind::kDeltaSat;
    s.result.model = std::move(s.last_invalid_model);
    s.result.model_box = std::move(s.last_invalid_box);
  } else {
    s.result.kind = kind;
  }
  MaybeRecord(*s.domain, s.result, deadline_stopped);
  s.done = true;
}

void DeltaSolver::Advance(Search& s) {
  const std::size_t dims = store_.dims();
  const std::size_t atoms = atoms_.size();
  SolverStats& stats = s.result.stats;
  for (;;) {
    BoxStore::Ref ref = s.parked;
    s.parked = -1;
    if (ref < 0) {
      // Stack exhausted: every box was pruned (UNSAT), unless invalid
      // delta-sat candidates were set aside — their boxes could not be
      // refuted at precision delta, so the honest answer is delta-sat.
      if (s.stack.empty()) {
        Settle(s, SatKind::kUnsat, /*deadline_stopped=*/false);
        return;
      }
      // Budget exhausted. Node-budget exhaustion is deterministic (max_nodes
      // is in the scope hash) and safe to replay; a wall-clock stop is not.
      const bool by_nodes = stats.nodes >= options_.max_nodes;
      if (by_nodes || (stats.nodes % 128 == 0 &&
                       s.charged >= options_.time_budget_seconds)) {
        Settle(s, SatKind::kTimeout, /*deadline_stopped=*/!by_nodes);
        return;
      }
      ref = s.stack.back();
      s.stack.pop_back();
      ++stats.nodes;
      // Unclassified: wait for the round's wave, which also covers
      // upcoming pops. Otherwise an earlier wave computed the statuses on
      // these exact bounds.
      if (!classified_[static_cast<std::size_t>(ref)]) {
        s.parked = ref;
        return;
      }
    }
    const auto slot = static_cast<std::size_t>(ref);

    // 1) Prune / accept by the classified atoms' certainty.
    const Tri truth = EvaluateSkeleton(exact_.skeleton(),
                                       status_arena_.data() + slot * atoms);
    if (truth == Tri::kFalse) {
      ++stats.prunes;
      store_.Release(ref);
      continue;
    }
    const std::span<Interval> box = store_.View(ref);
    if (truth == Tri::kTrue) {
      // Certainly satisfiable: the midpoint is a genuine model.
      Accept(s, box, solver::Midpoint(box));
      return;
    }

    // 2) Contract with necessary atoms (HC4 fixpoint rounds): replay the
    // fixpoint the wave precomputed for these bounds — final box,
    // emptiness, and contraction-call count.
    stats.contractions += bwd_count_arena_[slot];
    if (bwd_empty_arena_[slot] != 0) {
      ++stats.prunes;
      store_.Release(ref);
      continue;
    }
    const double* src = bwd_box_arena_.data() + slot * dims * 2;
    for (std::size_t d = 0; d < dims; ++d)
      box[d] = Interval(src[2 * d], src[2 * d + 1]);

    // 3) Precision floor: delta-sat candidate on the (possibly contracted)
    // box. If the midpoint fails exact validation, remember it but keep
    // searching (bounded) for a genuinely satisfying box — this isolates
    // counterexample corners without changing the delta semantics: when the
    // rejection budget is exhausted, the invalid model is reported, which
    // is the paper's "inconclusive" path.
    if (solver::MaxWidth(box) <= options_.delta) {
      std::vector<double> model = solver::Midpoint(box);
      if (exact_.Holds(model, 0.0, exact_scratch_) ||
          s.invalid_candidates >= options_.max_invalid_models) {
        Accept(s, box, std::move(model));
        return;
      }
      ++s.invalid_candidates;
      s.last_invalid_model = std::move(model);
      s.last_invalid_box = Box(std::span<const Interval>(box));
      store_.Release(ref);
      continue;
    }

    // 4) Branch on the widest dimension (LIFO: depth-first). The wave that
    // classified this box also bisected its fixpoint box into two children
    // (ExpandWaveChildren), so push them.
    const BoxStore::Ref left_ref = child_arena_[slot * 2];
    const BoxStore::Ref right_ref = child_arena_[slot * 2 + 1];
    XCV_CHECK_MSG(left_ref >= 0 && right_ref >= 0,
                  "box reached the split step without a wave expansion");
    store_.Release(ref);
    s.stack.push_back(right_ref);
    s.stack.push_back(left_ref);
  }
}

std::vector<CheckResult> DeltaSolver::CheckMany(
    std::span<const Box> domains, const std::atomic<bool>* cancel) {
  const auto width = static_cast<std::size_t>(options_.wave_width);
  XCV_CHECK_MSG(domains.size() <= width,
                "CheckMany takes at most wave_width (" << width
                                                       << ") boxes, got "
                                                       << domains.size());
  // Wall time is charged in consecutive slices, so the charges of a call's
  // boxes add up to its wall time: each box pays for its own cache lookup
  // and presample, the call's hits split the revalidation sweep, and each
  // lockstep round is split by wave lanes.
  Stopwatch watch;
  double charged_until = 0.0;
  auto next_slice = [&watch, &charged_until] {
    const double now = watch.ElapsedSeconds();
    const double slice = now - charged_until;
    charged_until = now;
    return slice;
  };

  searches_.resize(domains.size());
  for (std::size_t i = 0; i < domains.size(); ++i) {
    Search& s = searches_[i];
    s.domain = &domains[i];
    s.stack.clear();
    s.result = CheckResult{};
    s.invalid_candidates = 0;
    s.last_invalid_model.clear();
    s.last_invalid_box = Box();
    s.parked = -1;
    s.done = DecideUpFront(s);
    s.charged = next_slice();
  }
  RevalidateHits();
  if (!hit_searches_.empty()) {
    const double share =
        next_slice() / static_cast<double>(hit_searches_.size());
    for (const std::size_t i : hit_searches_) searches_[i].charged += share;
  }
  std::size_t live = 0;
  for (Search& s : searches_) {
    if (!s.done) {
      s.done = Presample(s);
      s.charged += next_slice();
    }
    live += s.done ? 0 : 1;
  }

  if (live > 0) {
    // Frontier setup: pooled flat slots, refs on per-search LIFO stacks.
    // Dimensions can change between calls (different domains), so re-key
    // the store; its arena memory is retained across calls.
    std::size_t dims = 0;
    for (const Search& s : searches_)
      if (!s.done) dims = s.domain->size();
    store_.Reset(dims);
    classified_.clear();
    owner_arena_.clear();
    status_arena_.clear();
    bwd_empty_arena_.clear();
    bwd_count_arena_.clear();
    bwd_box_arena_.clear();
    child_arena_.clear();
    ShapeWaveRows(dims);
    for (std::size_t i = 0; i < searches_.size(); ++i) {
      Search& s = searches_[i];
      if (s.done) continue;
      XCV_CHECK_MSG(s.domain->size() == dims,
                    "CheckMany boxes must share one dimensionality");
      tmp_box_.assign(s.domain->dims().begin(), s.domain->dims().end());
      s.stack.push_back(NewNodeFromTmp(i));
    }
  }

  // Lockstep rounds: advance every live search to its next unclassified box
  // (or its verdict), then classify all parked boxes in one wave. A round's
  // wall time is charged by wave lanes; a round without a wave (its
  // searches all finished) is split evenly.
  while (live > 0) {
    if (cancel != nullptr && cancel->load(std::memory_order_relaxed)) {
      for (Search& s : searches_) {
        if (s.done) continue;
        s.result = CheckResult{};
        s.result.cancelled = true;
        s.done = true;
      }
      break;
    }
    round_.clear();
    for (std::size_t i = 0; i < searches_.size(); ++i) {
      Search& s = searches_[i];
      if (s.done) continue;
      round_.push_back(i);
      s.lanes = 0;
      Advance(s);
      live -= s.done ? 1 : 0;
    }
    RunWave();
    const double slice = next_slice();
    std::size_t lanes = 0;
    for (const std::size_t i : round_) lanes += searches_[i].lanes;
    for (const std::size_t i : round_) {
      Search& s = searches_[i];
      s.charged += lanes == 0 ? slice / static_cast<double>(round_.size())
                              : slice * static_cast<double>(s.lanes) /
                                    static_cast<double>(lanes);
    }
  }

  std::vector<CheckResult> out;
  out.reserve(searches_.size());
  for (Search& s : searches_) {
    s.result.stats.seconds = s.charged;
    out.push_back(std::move(s.result));
  }
  return out;
}

void DeltaSolver::ClassifyBoxes(std::span<const Box> boxes,
                                std::vector<int>& out) {
  ClassifySweep(
      boxes.size(), [boxes](std::size_t k) -> const Box& { return boxes[k]; },
      out);
}

}  // namespace xcv::solver
