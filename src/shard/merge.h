// Reduction step for multi-node campaigns: union partial checkpoints (and
// verdict-cache files) produced by resumed shards back into one campaign.
//
// MergeCheckpoints is the inverse of PartitionCheckpoint: pairs are grouped
// by (functional, condition), their reports unioned (counters and busy
// seconds summed, leaves deduplicated by exact box bit patterns with
// delta-sat > unsat > timeout precedence, witnesses concatenated), open
// frontiers concatenated and re-canonicalized, and the original pair order
// restored from the origin_index provenance the partitioner recorded.
// Witnesses and counters are deliberately NOT deduplicated: bit-identical
// witnesses can arise legitimately (adjacent boxes presampling a shared
// boundary point record it once each, exactly like the single-node run),
// so on *overlapping* inputs — the same work merged twice — witness and
// counter columns double-count while leaves/verdicts stay correct;
// MergeStats::duplicate_leaves > 0 is the overlap signal callers surface. For a
// deterministic (node-capped, no wall-clock budget) configuration the
// merged report is byte-identical to the single-node run's — only the busy
// seconds differ, because they measure real work done on real machines.
//
// Cache union: entries are exact-keyed and order-independent, so the union
// of shard cache files is a plain set union. Two shards that solved the
// same (scope, box) must have produced the same verdict; if they did not,
// the entry is rejected and dropped from the union entirely (and counted),
// mirroring DeltaSolver's revalidate-or-re-solve policy — a merged cache
// never launders a contradiction into a replayable verdict.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cache/verdict_cache.h"
#include "campaign/serialize.h"

namespace xcv::shard {

struct MergeStats {
  std::size_t shards = 0;            ///< checkpoints merged
  std::size_t pair_fragments = 0;    ///< pair entries across all inputs
  std::size_t duplicate_leaves = 0;  ///< leaves dropped by precedence dedup
  std::size_t open_dropped = 0;      ///< open boxes deduped or already decided
  /// True when the shards disagree on verdict-affecting run configuration
  /// (anything beyond thread counts and shard provenance): a node resumed
  /// its shard with overriding flags, so the single-node byte-identity
  /// guarantee no longer holds for this union. The merge still completes —
  /// every recorded verdict is individually sound — but callers should
  /// surface the mismatch.
  bool options_mismatch = false;
  /// Coverage diagnostics: a subset merge is legitimate (incremental
  /// staging), but it must never be mistaken for the whole campaign.
  /// When every input still carries partition provenance of the same
  /// count K, `missing_shards` lists the slots of that partition absent
  /// from the union; independently, `origin_gaps` is true when the merged
  /// origin_index sequence has holes (pairs provably missing no matter
  /// where the inputs came from).
  std::vector<int> missing_shards;
  bool origin_gaps = false;
  /// True when inputs declare provenance from partitions of different
  /// sizes — a re-sharded shard (legitimate), or a `shard-*.json` glob
  /// that swept up leftovers of an earlier partition (hazard). Coverage
  /// cannot be checked either way; actual overlap, if any, still shows up
  /// in duplicate_leaves.
  bool mixed_partitions = false;
};

/// Unions shard checkpoints into one campaign checkpoint. Shards are
/// processed in ShardInfo::index order (ties: input order), the merged
/// options come from the first shard with provenance cleared, and
/// `cancelled` is the OR of the inputs (a merge of incompletely resumed
/// shards is itself a valid, resumable checkpoint). Throws
/// xcv::InternalError when `shards` is empty.
campaign::Checkpoint MergeCheckpoints(std::vector<campaign::Checkpoint> shards,
                                      MergeStats* stats = nullptr);

struct CacheMergeStats {
  std::uint64_t added = 0;             ///< entries in the union
  std::uint64_t duplicates = 0;        ///< exact cross-shard duplicates
  std::uint64_t conflicts_dropped = 0; ///< same key, different verdict
  std::size_t files_loaded = 0;
  std::size_t files_failed = 0;        ///< unreadable/corrupt inputs skipped
};

/// Unions verdict caches into `out` (which must start empty). A key whose
/// verdicts disagree across inputs is dropped from the union and stays
/// dropped even if a later input repeats it.
CacheMergeStats MergeCaches(const std::vector<const cache::VerdictCache*>& in,
                            cache::VerdictCache* out);

/// MergeCaches over cache files. Unreadable or corrupt files are counted in
/// files_failed and skipped — a merge must not die because one node's cache
/// was truncated; the boxes it held simply re-solve.
CacheMergeStats MergeCacheFiles(const std::vector<std::string>& paths,
                                cache::VerdictCache* out);

}  // namespace xcv::shard
