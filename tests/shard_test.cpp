// Distributed sharding (src/shard/): deterministic partition, K=1
// identity, merge-of-shards == unsharded byte-identity at both
// granularities, cache union with conflicts, corrupt-input errors.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "cache/verdict_cache.h"
#include "campaign/campaign.h"
#include "campaign/serialize.h"
#include "conditions/conditions.h"
#include "functionals/functional.h"
#include "shard/merge.h"
#include "shard/partition.h"
#include "support/check.h"
#include "verifier/engine.h"

namespace xcv::shard {
namespace {

using campaign::Campaign;
using campaign::CampaignOptions;
using campaign::CampaignResult;
using campaign::Checkpoint;
using campaign::CheckpointToJson;
using campaign::PairState;
using conditions::ConditionInfo;
using functionals::Functional;
using solver::Box;

// Budget-free (hence deterministic) options coarse enough to finish the
// small matrices here in well under a second.
CampaignOptions FastCampaignOptions() {
  CampaignOptions o;
  o.verifier.split_threshold = 0.7;
  o.verifier.solver.max_nodes = 4'000;
  o.verifier.solver.delta = 1e-3;
  o.tune_lda_delta = false;
  return o;
}

std::vector<const Functional*> LdaPbeMatrix() {
  return {functionals::FindFunctional("VWN_RPA"),
          functionals::FindFunctional("PBE")};
}

std::vector<const ConditionInfo*> TestConditions() {
  return {conditions::FindCondition("EC1"), conditions::FindCondition("EC2"),
          conditions::FindCondition("EC4")};
}

// An unrun campaign checkpoint, built the way `xcv shard` builds one when
// no checkpoint file exists yet.
Checkpoint FreshCheckpoint() {
  Checkpoint cp;
  cp.options = FastCampaignOptions();
  for (const ConditionInfo* cond : TestConditions())
    for (const Functional* f : LdaPbeMatrix())
      cp.pairs.push_back(campaign::InitialPairState(*f, *cond));
  return cp;
}

// A synthetic interrupted checkpoint: every applicable pair's domain
// pre-split into a 2-level open frontier (4^d boxes), nothing decided yet.
// Resuming it is deterministic, so it is a fixed point both the single-node
// and the shard-merge paths must reach identically.
Checkpoint PartialCheckpoint() {
  Checkpoint cp = FreshCheckpoint();
  cp.cancelled = true;
  for (PairState& p : cp.pairs) {
    if (!p.applicable) continue;
    const Functional* f = functionals::FindFunctional(p.functional);
    XCV_CHECK_MSG(f != nullptr, "unknown functional " << p.functional);
    for (const Box& child :
         verifier::SplitBox(conditions::PaperDomain(*f), true))
      for (Box& grandchild : verifier::SplitBox(child, true))
        p.open.push_back(std::move(grandchild));
    verifier::CanonicalizeOpenBoxes(p.open, p.report);
    p.verdict = verifier::Verdict::kUnknown;
  }
  return cp;
}

// Drives one shard checkpoint to completion through the campaign engine,
// exactly like `xcv resume --checkpoint=shard-k.json` does on a node.
Checkpoint RunShard(Checkpoint shard) {
  CampaignOptions options = shard.options;
  Campaign campaign(options);
  for (PairState& p : shard.pairs) campaign.Restore(std::move(p));
  CampaignResult result = campaign.Run();
  Checkpoint out;
  out.options = options;
  out.pairs = std::move(result.pairs);
  out.cancelled = result.cancelled;
  return out;
}

// The two fields that legitimately differ between the single-node document
// and a merged one: busy seconds (real work on real machines) and the
// origin_index provenance a merge keeps so later partial merges still
// interleave correctly. Everything else must match byte for byte.
std::string NormalizedJson(Checkpoint cp) {
  for (PairState& p : cp.pairs) {
    p.seconds = 0.0;
    p.report.seconds = 0.0;
    p.origin_index = -1;
  }
  return CheckpointToJson(cp.options, cp.pairs, cp.cancelled);
}

// Full shard → resume-each → merge round trip.
Checkpoint ShardResumeMerge(const Checkpoint& cp, int shards, ShardBy by,
                            MergeStats* stats = nullptr) {
  PartitionOptions popts;
  popts.shards = shards;
  popts.by = by;
  std::vector<Checkpoint> finished;
  for (Checkpoint& shard : PartitionCheckpoint(cp, popts))
    finished.push_back(RunShard(std::move(shard)));
  return MergeCheckpoints(std::move(finished), stats);
}

TEST(Shard, PartitionIsDeterministic) {
  const Checkpoint partial = PartialCheckpoint();
  for (const ShardBy by : {ShardBy::kPairs, ShardBy::kFrontier}) {
    PartitionOptions popts;
    popts.shards = 3;
    popts.by = by;
    const auto first = PartitionCheckpoint(partial, popts);
    const auto second = PartitionCheckpoint(partial, popts);
    ASSERT_EQ(first.size(), 3u);
    for (std::size_t k = 0; k < first.size(); ++k) {
      EXPECT_EQ(CheckpointToJson(first[k].options, first[k].pairs,
                                 first[k].cancelled),
                CheckpointToJson(second[k].options, second[k].pairs,
                                 second[k].cancelled))
          << "shard " << k << " by=" << ShardByToken(by);
      EXPECT_EQ(first[k].options.shard.index, static_cast<int>(k));
      EXPECT_EQ(first[k].options.shard.count, 3);
      EXPECT_EQ(first[k].options.shard.by, ShardByToken(by));
    }
  }
}

TEST(Shard, EveryOpenBoxLandsInExactlyOneShard) {
  const Checkpoint partial = PartialCheckpoint();
  PartitionOptions popts;
  popts.shards = 3;
  popts.by = ShardBy::kFrontier;
  const auto shards = PartitionCheckpoint(partial, popts);

  // Multiset of (pair, box) across shards == the input's.
  auto frontier_multiset = [](const std::vector<Checkpoint>& cps) {
    std::map<std::string, int> boxes;
    for (const Checkpoint& cp : cps)
      for (const PairState& p : cp.pairs)
        for (const Box& b : p.open)
          ++boxes[p.functional + "|" + p.condition + "|" + b.ToString()];
    return boxes;
  };
  EXPECT_EQ(frontier_multiset(shards), frontier_multiset({partial}));

  // The deal is balanced: no shard holds more than a box over its share.
  std::vector<std::size_t> per_shard;
  for (const Checkpoint& cp : shards) {
    std::size_t n = 0;
    for (const PairState& p : cp.pairs) n += p.open.size();
    per_shard.push_back(n);
  }
  const auto [lo, hi] = std::minmax_element(per_shard.begin(), per_shard.end());
  EXPECT_LE(*hi - *lo, partial.pairs.size());
}

TEST(Shard, SingleShardIsIdentity) {
  for (const ShardBy by : {ShardBy::kPairs, ShardBy::kFrontier}) {
    for (const Checkpoint& cp : {FreshCheckpoint(), PartialCheckpoint()}) {
      PartitionOptions popts;
      popts.shards = 1;
      popts.by = by;
      const auto shards = PartitionCheckpoint(cp, popts);
      ASSERT_EQ(shards.size(), 1u);
      EXPECT_EQ(CheckpointToJson(shards[0].options, shards[0].pairs,
                                 shards[0].cancelled),
                CheckpointToJson(cp.options, cp.pairs, cp.cancelled));
    }
  }
}

TEST(Shard, PairGranularityMergeMatchesUnshardedRun) {
  const Checkpoint fresh = FreshCheckpoint();
  const std::string expected = NormalizedJson(RunShard(fresh));
  for (const int shards : {2, 3, 4}) {
    MergeStats stats;
    const Checkpoint merged =
        ShardResumeMerge(fresh, shards, ShardBy::kPairs, &stats);
    EXPECT_EQ(NormalizedJson(merged), expected) << shards << " shards";
    EXPECT_EQ(stats.shards, static_cast<std::size_t>(shards));
    EXPECT_EQ(stats.duplicate_leaves, 0u);
    EXPECT_EQ(stats.open_dropped, 0u);
  }
}

TEST(Shard, FrontierGranularityMergeMatchesUnshardedResume) {
  const Checkpoint partial = PartialCheckpoint();
  const std::string expected = NormalizedJson(RunShard(partial));
  for (const int shards : {2, 3}) {
    MergeStats stats;
    const Checkpoint merged =
        ShardResumeMerge(partial, shards, ShardBy::kFrontier, &stats);
    EXPECT_EQ(NormalizedJson(merged), expected) << shards << " shards";
    // Frontier mode fragments pairs across shards.
    EXPECT_GT(stats.pair_fragments, partial.pairs.size());
  }
}

TEST(Shard, ShardProvenanceRoundTripsThroughJson) {
  Checkpoint cp = PartialCheckpoint();
  PartitionOptions popts;
  popts.shards = 3;
  popts.by = ShardBy::kFrontier;
  Checkpoint shard = PartitionCheckpoint(cp, popts)[1];
  const Checkpoint reread = campaign::CheckpointFromJson(CheckpointToJson(
      shard.options, shard.pairs, shard.cancelled));
  EXPECT_EQ(reread.options.shard.index, 1);
  EXPECT_EQ(reread.options.shard.count, 3);
  EXPECT_EQ(reread.options.shard.by, "frontier");
  ASSERT_FALSE(reread.pairs.empty());
  for (const PairState& p : reread.pairs) EXPECT_GE(p.origin_index, 0);
  // Unsharded documents carry no provenance at all.
  const std::string plain = CheckpointToJson(cp.options, cp.pairs, false);
  EXPECT_EQ(plain.find("shard"), std::string::npos);
  EXPECT_EQ(plain.find("origin_index"), std::string::npos);
}

TEST(Shard, IncrementalMergeMatchesOneShotMerge) {
  // Merging as results trickle in — merge(merge(s0, s1), s2) — must land on
  // the same document (pair order included) as merging all shards at once:
  // partial merges keep origin provenance precisely for this.
  const Checkpoint fresh = FreshCheckpoint();
  PartitionOptions popts;
  popts.shards = 3;
  popts.by = ShardBy::kPairs;
  std::vector<Checkpoint> finished;
  for (Checkpoint& shard : PartitionCheckpoint(fresh, popts))
    finished.push_back(RunShard(std::move(shard)));

  const Checkpoint one_shot = MergeCheckpoints(
      {finished[0], finished[1], finished[2]}, nullptr);
  std::vector<Checkpoint> first_two = {finished[0], finished[1]};
  Checkpoint staged = MergeCheckpoints(std::move(first_two), nullptr);
  std::vector<Checkpoint> rest;
  rest.push_back(std::move(staged));
  rest.push_back(finished[2]);
  const Checkpoint incremental = MergeCheckpoints(std::move(rest), nullptr);

  EXPECT_EQ(CheckpointToJson(incremental.options, incremental.pairs,
                             incremental.cancelled),
            CheckpointToJson(one_shot.options, one_shot.pairs,
                             one_shot.cancelled));
  // And both match the unsharded run up to provenance/seconds.
  EXPECT_EQ(NormalizedJson(incremental), NormalizedJson(RunShard(fresh)));
}

TEST(Shard, MergeDetectsMissingShards) {
  const Checkpoint fresh = FreshCheckpoint();
  PartitionOptions popts;
  popts.shards = 3;
  popts.by = ShardBy::kPairs;
  std::vector<Checkpoint> finished;
  for (Checkpoint& shard : PartitionCheckpoint(fresh, popts))
    finished.push_back(RunShard(std::move(shard)));

  // Shard 1 lost: both coverage signals fire, and the merged report must
  // not silently pose as the whole campaign.
  MergeStats gap;
  const Checkpoint merged =
      MergeCheckpoints({finished[0], finished[2]}, &gap);
  EXPECT_EQ(gap.missing_shards, (std::vector<int>{1}));
  EXPECT_TRUE(gap.origin_gaps);
  EXPECT_LT(merged.pairs.size(), fresh.pairs.size());

  // The full union is clean on both signals...
  MergeStats full;
  MergeCheckpoints({finished[0], finished[1], finished[2]}, &full);
  EXPECT_TRUE(full.missing_shards.empty());
  EXPECT_FALSE(full.origin_gaps);

  // ...including when staged: merge(merge(s0, s1), s2). The intermediate
  // union honestly reports slot 2 as absent; the final one is complete
  // (origin provenance, not shard slots, carries the coverage there).
  MergeStats staged_stats;
  Checkpoint staged =
      MergeCheckpoints({finished[0], finished[1]}, &staged_stats);
  EXPECT_EQ(staged_stats.missing_shards, (std::vector<int>{2}));
  EXPECT_TRUE(staged_stats.origin_gaps);  // origins 0..4 minus shard 2's
  std::vector<Checkpoint> rest;
  rest.push_back(std::move(staged));
  rest.push_back(finished[2]);
  MergeStats final_stats;
  MergeCheckpoints(std::move(rest), &final_stats);
  EXPECT_TRUE(final_stats.missing_shards.empty());
  EXPECT_FALSE(final_stats.origin_gaps);
}

TEST(Shard, MergeFlagsDivergentShardOptions) {
  const Checkpoint fresh = FreshCheckpoint();
  PartitionOptions popts;
  popts.shards = 2;
  popts.by = ShardBy::kPairs;
  auto shards = PartitionCheckpoint(fresh, popts);
  // A node overriding thread count is fine; overriding the solver is not.
  shards[0].options.verifier.num_threads = 8;
  MergeStats benign;
  MergeCheckpoints({shards[0], shards[1]}, &benign);
  EXPECT_FALSE(benign.options_mismatch);

  shards[1].options.verifier.solver.max_nodes = 99;
  MergeStats flagged;
  MergeCheckpoints({shards[0], shards[1]}, &flagged);
  EXPECT_TRUE(flagged.options_mismatch);
}

TEST(Shard, MergedPartialShardsStayResumable) {
  // Merge shards where only some were resumed: the union must keep the
  // unprocessed work open (done=false, frontier intact), not claim ✓.
  const Checkpoint partial = PartialCheckpoint();
  PartitionOptions popts;
  popts.shards = 2;
  popts.by = ShardBy::kFrontier;
  auto shards = PartitionCheckpoint(partial, popts);
  std::vector<Checkpoint> mixed;
  mixed.push_back(RunShard(std::move(shards[0])));  // node 0 finished
  mixed.push_back(std::move(shards[1]));            // node 1 never ran
  const Checkpoint merged = MergeCheckpoints(std::move(mixed), nullptr);
  std::size_t open_boxes = 0;
  bool any_undone = false;
  for (const PairState& p : merged.pairs) {
    open_boxes += p.open.size();
    if (p.applicable && !p.done) {
      any_undone = true;
      EXPECT_NE(p.verdict, verifier::Verdict::kVerified)
          << p.functional << " x " << p.condition;
    }
  }
  EXPECT_TRUE(any_undone);
  EXPECT_GT(open_boxes, 0u);
  // And completing the merged checkpoint reaches the single-node result.
  EXPECT_EQ(NormalizedJson(RunShard(merged)),
            NormalizedJson(RunShard(partial)));
}

// ---- Cache union ------------------------------------------------------------

std::vector<Interval> UnitBox(double lo, double hi) {
  return {Interval(lo, hi)};
}

cache::CachedVerdict Unsat(std::uint64_t nodes) {
  cache::CachedVerdict v;
  v.kind = cache::CachedKind::kUnsat;
  v.nodes = nodes;
  return v;
}

TEST(ShardCache, MergeUnionsAndDropsConflicts) {
  cache::VerdictCache a, b, c;
  const auto box1 = UnitBox(0.0, 1.0), box2 = UnitBox(1.0, 2.0),
             box3 = UnitBox(2.0, 3.0);
  a.Store(7, box1, Unsat(10));
  a.Store(7, box2, Unsat(20));
  b.Store(7, box1, Unsat(10));  // exact cross-shard duplicate
  b.Store(9, box3, Unsat(30));
  cache::CachedVerdict conflicting = Unsat(20);
  conflicting.kind = cache::CachedKind::kTimeout;  // same key, other verdict
  c.Store(7, box2, conflicting);
  c.Store(7, box2, conflicting);  // Store overwrites; still one entry

  cache::VerdictCache merged;
  const CacheMergeStats stats = MergeCaches({&a, &b, &c}, &merged);
  EXPECT_EQ(stats.duplicates, 1u);
  EXPECT_EQ(stats.conflicts_dropped, 2u);  // a's entry and c's entry
  EXPECT_EQ(stats.added, 2u);              // (7, box1) and (9, box3)
  EXPECT_EQ(merged.size(), 2u);
  cache::CachedVerdict out;
  EXPECT_TRUE(merged.Lookup(7, box1, &out));
  EXPECT_TRUE(merged.Lookup(9, box3, &out));
  EXPECT_FALSE(merged.Lookup(7, box2, &out));  // rejected and dropped

  // A conflicted key stays dropped even when a later input repeats one of
  // the disagreeing verdicts.
  cache::VerdictCache d, merged2;
  d.Store(7, box2, Unsat(20));
  const CacheMergeStats stats2 = MergeCaches({&a, &b, &c, &d}, &merged2);
  EXPECT_EQ(stats2.conflicts_dropped, 3u);
  EXPECT_FALSE(merged2.Lookup(7, box2, &out));
  EXPECT_EQ(merged2.size(), 2u);
}

TEST(ShardCache, MergeCacheFilesSkipsCorruptInputs) {
  const std::string dir = ::testing::TempDir();
  const std::string good = dir + "/xcv_shard_cache_good.json";
  const std::string bad = dir + "/xcv_shard_cache_bad.json";
  cache::VerdictCache a;
  a.Store(7, UnitBox(0.0, 1.0), Unsat(10));
  a.Save(good);
  {
    std::ofstream os(bad, std::ios::trunc);
    os << "this is not a cache {";
  }
  cache::VerdictCache merged;
  const CacheMergeStats stats =
      MergeCacheFiles({good, bad, dir + "/xcv_shard_cache_absent.json"},
                      &merged);
  EXPECT_EQ(stats.files_loaded, 1u);
  EXPECT_EQ(stats.files_failed, 2u);
  EXPECT_EQ(merged.size(), 1u);
  std::remove(good.c_str());
  std::remove(bad.c_str());
}

// ---- Corrupt shard checkpoints ----------------------------------------------

TEST(Shard, CorruptShardFileIsAClearErrorNotACrash) {
  const std::string path = ::testing::TempDir() + "/xcv_corrupt_shard.json";
  {
    std::ofstream os(path, std::ios::trunc);
    os << "{\"format\": \"xcv-campaign-checkpoint\", \"version\": 1, ";  // cut
  }
  EXPECT_THROW(campaign::LoadCheckpointFile(path), InternalError);
  EXPECT_THROW(campaign::LoadCheckpointFile(
                   ::testing::TempDir() + "/xcv_no_such_shard.json"),
               InternalError);
  EXPECT_THROW(MergeCheckpoints({}, nullptr), InternalError);
  std::remove(path.c_str());
}

// ---- Report union helpers ---------------------------------------------------

TEST(ShardReport, DuplicateLeavesMergeByPrecedence) {
  using verifier::RegionStatus;
  using verifier::VerificationReport;
  const Box box({Interval(0.0, 1.0)});
  VerificationReport into;
  into.leaves.push_back({box, RegionStatus::kVerified, {}});
  into.solver_calls = 3;
  VerificationReport from;
  from.leaves.push_back({box, RegionStatus::kCounterexample, {0.5}});
  from.leaves.push_back(
      {Box({Interval(1.0, 2.0)}), RegionStatus::kTimeout, {}});
  // Leaves are keyed by bit pattern: [-0, 1] is not [0, 1].
  from.leaves.push_back(
      {Box({Interval(-0.0, 1.0)}), RegionStatus::kTimeout, {}});
  from.solver_calls = 4;
  const std::size_t dropped =
      verifier::MergeReportInto(into, std::move(from));
  EXPECT_EQ(dropped, 1u);
  ASSERT_EQ(into.leaves.size(), 3u);
  EXPECT_EQ(into.leaves[0].status, RegionStatus::kCounterexample);
  EXPECT_FALSE(std::signbit(into.leaves[0].box[0].lo()));
  EXPECT_EQ(into.leaves[2].status, RegionStatus::kTimeout);
  EXPECT_TRUE(std::signbit(into.leaves[2].box[0].lo()));
  EXPECT_EQ(into.solver_calls, 7u);

  // delta-sat > unsat > timeout.
  EXPECT_GT(verifier::RegionStatusPrecedence(RegionStatus::kCounterexample),
            verifier::RegionStatusPrecedence(RegionStatus::kInconclusive));
  EXPECT_GT(verifier::RegionStatusPrecedence(RegionStatus::kInconclusive),
            verifier::RegionStatusPrecedence(RegionStatus::kVerified));
  EXPECT_GT(verifier::RegionStatusPrecedence(RegionStatus::kVerified),
            verifier::RegionStatusPrecedence(RegionStatus::kTimeout));
}

TEST(ShardReport, OpenBoxesDedupAgainstLeavesAndEachOther) {
  using verifier::VerificationReport;
  const Box decided({Interval(0.0, 1.0)});
  const Box open_a({Interval(1.0, 2.0)});
  const Box open_b({Interval(2.0, 4.0)});
  // Not the decided box: its lower endpoint is -0.0.
  const Box open_neg_zero({Interval(-0.0, 1.0)});
  VerificationReport report;
  report.leaves.push_back({decided, verifier::RegionStatus::kVerified, {}});
  std::vector<Box> open = {open_b, decided, open_neg_zero, open_a, open_b,
                           open_neg_zero};
  const std::size_t dropped = verifier::CanonicalizeOpenBoxes(open, report);
  EXPECT_EQ(dropped, 3u);  // the decided box and two duplicates
  ASSERT_EQ(open.size(), 3u);
  EXPECT_TRUE(std::signbit(open[0][0].lo()));  // canonical order
  EXPECT_EQ(open[0][0].hi(), 1.0);
  EXPECT_EQ(open[1][0], Interval(1.0, 2.0));
  EXPECT_EQ(open[2][0], Interval(2.0, 4.0));
}

}  // namespace
}  // namespace xcv::shard
