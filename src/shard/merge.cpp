#include "shard/merge.h"

#include <algorithm>
#include <limits>
#include <memory>
#include <span>
#include <unordered_map>
#include <utility>

#include "solver/box.h"
#include "support/check.h"
#include "verifier/engine.h"

namespace xcv::shard {

using campaign::Checkpoint;
using campaign::PairState;
using verifier::VerificationReport;

namespace {

// Run configuration with the per-node knobs (thread counts, wave width,
// shard slot, local paths — all verdict-neutral by construction) stripped:
// what every shard of one partition must agree on for the union's
// byte-identity guarantee to hold.
std::string VerdictAffectingOptionsKey(campaign::CampaignOptions options) {
  options.verifier.num_threads = 1;
  options.verifier.solver.wave_width = 1;  // batching knob, never verdicts
  options.shard = campaign::ShardInfo{};
  options.checkpoint_path.clear();
  options.cache_path.clear();
  options.cache_readonly = false;
  return campaign::CheckpointToJson(options, {}, false);
}

}  // namespace

Checkpoint MergeCheckpoints(std::vector<Checkpoint> shards,
                            MergeStats* stats) {
  XCV_CHECK_MSG(!shards.empty(), "no shard checkpoints to merge");
  MergeStats local;
  if (stats == nullptr) stats = &local;
  stats->shards = shards.size();

  // Shard order: by recorded shard index (input order breaks ties), so the
  // merge is independent of how the caller's shell expanded the glob.
  std::stable_sort(shards.begin(), shards.end(),
                   [](const Checkpoint& a, const Checkpoint& b) {
                     return a.options.shard.index < b.options.shard.index;
                   });

  Checkpoint merged;
  merged.options = shards.front().options;
  merged.options.shard = campaign::ShardInfo{};  // the union is unsharded
  merged.cancelled = false;

  const std::string options_key =
      VerdictAffectingOptionsKey(shards.front().options);
  for (const Checkpoint& shard : shards)
    if (VerdictAffectingOptionsKey(shard.options) != options_key)
      stats->options_mismatch = true;

  // Partition coverage: only decidable when every input still names its
  // slot in the same K-way partition (a prior partial merge resets the
  // provenance, and then the origin-gap check below is the safety net).
  {
    int k = 0;  // the one partition size the declaring inputs agree on
    for (const Checkpoint& shard : shards) {
      const int count = shard.options.shard.count;
      if (count <= 1) continue;  // unsharded / prior partial merge
      if (k == 0) k = count;
      if (count != k) stats->mixed_partitions = true;
    }
    if (k > 1 && !stats->mixed_partitions) {
      bool all_declare = true;
      std::vector<bool> covered(static_cast<std::size_t>(k));
      for (const Checkpoint& shard : shards) {
        const campaign::ShardInfo& info = shard.options.shard;
        if (info.count != k || info.index < 0 || info.index >= k) {
          all_declare = false;
          break;
        }
        covered[static_cast<std::size_t>(info.index)] = true;
      }
      if (all_declare)
        for (int i = 0; i < k; ++i)
          if (!covered[static_cast<std::size_t>(i)])
            stats->missing_shards.push_back(i);
    }
  }

  struct Group {
    PairState state;
    bool all_done = true;
    int origin = std::numeric_limits<int>::max();
    std::size_t first_seen = 0;
  };
  std::vector<Group> groups;
  std::unordered_map<std::string, std::size_t> index;  // key -> groups slot

  for (Checkpoint& shard : shards) {
    merged.cancelled = merged.cancelled || shard.cancelled;
    for (PairState& p : shard.pairs) {
      ++stats->pair_fragments;
      const std::string key = p.functional + '\x1f' + p.condition;
      auto [it, inserted] = index.emplace(key, groups.size());
      if (inserted) {
        Group g;
        g.state.functional = p.functional;
        g.state.condition = p.condition;
        g.first_seen = groups.size();
        groups.push_back(std::move(g));
      }
      Group& g = groups[it->second];
      g.state.applicable = g.state.applicable || p.applicable;
      g.all_done = g.all_done && p.done;
      if (p.origin_index >= 0) g.origin = std::min(g.origin, p.origin_index);
      g.state.seconds += p.seconds;
      stats->duplicate_leaves +=
          verifier::MergeReportInto(g.state.report, std::move(p.report));
      for (solver::Box& box : p.open) g.state.open.push_back(std::move(box));
    }
  }

  for (Group& g : groups) {
    verifier::CanonicalizeReport(g.state.report);
    stats->open_dropped +=
        verifier::CanonicalizeOpenBoxes(g.state.open, g.state.report);
    g.state.done = g.all_done && g.state.open.empty();
    // A merged pair with undecided boxes left is at most ✓*, the rule the
    // campaign applies to interrupted pairs.
    g.state.verdict =
        !g.state.applicable ? verifier::Verdict::kNotApplicable
        : g.state.done      ? g.state.report.Summarize()
                            : verifier::PartialVerdict(g.state.report);
    // Provenance survives the union: a merge of a subset of the shards must
    // still interleave correctly with the stragglers in a later merge, and
    // origin_index is the only global coordinate that can do it.
    g.state.origin_index =
        g.origin == std::numeric_limits<int>::max() ? -1 : g.origin;
  }

  // Origin coordinates are dense (0..n-1 over the pre-shard pair list), so
  // a hole in the merged sequence proves pairs are missing from the union —
  // regardless of how many merge stages the inputs went through.
  std::vector<int> origins;
  for (const Group& g : groups)
    if (g.origin != std::numeric_limits<int>::max())
      origins.push_back(g.origin);
  if (!origins.empty()) {
    std::sort(origins.begin(), origins.end());
    origins.erase(std::unique(origins.begin(), origins.end()), origins.end());
    stats->origin_gaps = origins.front() != 0 ||
                         origins.back() + 1 != static_cast<int>(origins.size());
  }

  // Restore the pre-shard pair order from origin provenance; pairs that
  // never carried one (merging hand-built checkpoints) keep first-seen
  // order after them.
  std::sort(groups.begin(), groups.end(), [](const Group& a, const Group& b) {
    if (a.origin != b.origin) return a.origin < b.origin;
    return a.first_seen < b.first_seen;
  });
  merged.pairs.reserve(groups.size());
  for (Group& g : groups) merged.pairs.push_back(std::move(g.state));
  return merged;
}

// ---- Cache union ------------------------------------------------------------

namespace {

// Replayed verdicts must agree exactly, bit patterns included
// (solver::SameDoubleBits/SameBoxBits — the verdict-cache key comparison).
bool SameVerdict(const cache::CachedVerdict& a,
                 const cache::CachedVerdict& b) {
  if (a.kind != b.kind || a.nodes != b.nodes) return false;
  if (a.model.size() != b.model.size()) return false;
  for (std::size_t i = 0; i < a.model.size(); ++i)
    if (!solver::SameDoubleBits(a.model[i], b.model[i])) return false;
  return solver::SameBoxBits(a.model_box, b.model_box);
}

}  // namespace

CacheMergeStats MergeCaches(const std::vector<const cache::VerdictCache*>& in,
                            cache::VerdictCache* out) {
  CacheMergeStats stats;
  // Conflicted keys stay dropped for the whole union, even when a third
  // input repeats one of the disagreeing verdicts — there is no way to tell
  // which side was right without re-solving. Conflicts are rare (they mean
  // a corrupted file or a scope-hash collision), so a flat list suffices.
  std::vector<std::pair<std::uint64_t, std::vector<Interval>>> poisoned;
  auto is_poisoned = [&poisoned](std::uint64_t scope,
                                 std::span<const Interval> box) {
    for (const auto& [pscope, pbox] : poisoned)
      if (pscope == scope && solver::SameBoxBits(pbox, box)) return true;
    return false;
  };

  for (const cache::VerdictCache* c : in) {
    if (c == nullptr) continue;
    c->ForEach([&](std::uint64_t scope, std::span<const Interval> box,
                   const cache::CachedVerdict& verdict) {
      if (is_poisoned(scope, box)) {
        ++stats.conflicts_dropped;
        return;
      }
      cache::CachedVerdict existing;
      if (out->Lookup(scope, box, &existing)) {
        if (SameVerdict(existing, verdict)) {
          ++stats.duplicates;
        } else {
          out->Erase(scope, box);
          poisoned.emplace_back(scope,
                                std::vector<Interval>(box.begin(), box.end()));
          stats.conflicts_dropped += 2;  // the stored entry and this one
        }
        return;
      }
      out->Store(scope, box, verdict);
    });
  }
  stats.added = out->size();
  return stats;
}

CacheMergeStats MergeCacheFiles(const std::vector<std::string>& paths,
                                cache::VerdictCache* out) {
  std::vector<std::unique_ptr<cache::VerdictCache>> loaded;
  std::size_t failed = 0;
  for (const std::string& path : paths) {
    auto c = std::make_unique<cache::VerdictCache>();
    if (c->Load(path)) {
      loaded.push_back(std::move(c));
    } else {
      ++failed;  // absent/corrupt input: its boxes simply re-solve
    }
  }
  std::vector<const cache::VerdictCache*> ptrs;
  ptrs.reserve(loaded.size());
  for (const auto& c : loaded) ptrs.push_back(c.get());
  CacheMergeStats stats = MergeCaches(ptrs, out);
  stats.files_loaded = loaded.size();
  stats.files_failed = failed;
  return stats;
}

}  // namespace xcv::shard
