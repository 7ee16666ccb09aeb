// Elastic fault-tolerant driver for multi-node campaigns.
//
// The coordinator turns the manual shard/resume/merge cycle
// (src/shard/partition.h, src/shard/merge.h) into a supervised loop of
// *epochs*. Each epoch:
//
//   1. partitions the current campaign checkpoint across the *usable*
//      nodes (quarantined nodes sit out — graceful degradation down to a
//      single node), provenance rebased so every epoch's partition is
//      dense in its own coordinates and coverage-checkable;
//   2. launches one `xcv resume` attempt per shard through a pluggable
//      NodeTransport (src/shard/transport.h): local fork/exec, or ssh/scp
//      when `ssh_hosts` is set;
//   3. monitors the fleet. A finished attempt is classified
//      (support/retry.h): preemption-style SIGKILLs consume the dedicated
//      `preemptible_tries` budget, everything else charges `max_retries`,
//      and a failed attempt relaunches after deterministic exponential
//      backoff with per-(node, attempt) seeded jitter. A node whose
//      heartbeat goes stale past the lease is killed as a *stall*; silence
//      before the first beat is judged against the launch timeout and
//      charged as a launch/transport error. When a rebalance deadline is
//      set, stragglers are asked to stop (SIGTERM) so their frontier can
//      be re-dealt;
//   4. records every outcome in a persistent node-health ledger
//      (`work-dir/nodes.json`, AtomicWriteFile + checksum): consecutive
//      failures quarantine a node for a cooldown, after which it earns one
//      probe attempt. A shard whose node exhausted its budget is simply
//      re-dealt across the surviving healthy nodes next epoch;
//   5. collects the shard files with the tolerant loader (torn files are
//      salvaged, lost fragments backfilled from the dealt copy), merges,
//      writes the campaign checkpoint back, and loops until every
//      applicable pair is done.
//
// Work a node completed but never persisted is simply re-dealt and
// re-solved — it is counted exactly once in the merged report, which is why
// the final CSV (deterministic columns) is byte-identical to a single-node
// run no matter how many nodes died on the way.
//
// Epochs that make no persisted progress back off exponentially and give
// up after a bounded number of consecutive failures, so a persistently
// faulting fleet terminates with a clear error instead of spinning.
//
// POSIX-only (fork/exec/waitpid); on other platforms RunCoordinator
// returns an error.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "campaign/serialize.h"
#include "shard/partition.h"
#include "support/retry.h"

namespace xcv::shard {

class NodeTransport;

struct CoordinatorOptions {
  /// Campaign checkpoint the coordinator owns: read at the start of every
  /// epoch, written back after every merge. Killing and re-running the
  /// coordinator itself resumes from here.
  std::string checkpoint_path;
  /// Directory for shard checkpoints, heartbeat files, per-epoch node
  /// logs, and the node-health ledger (nodes.json).
  std::string work_dir = ".";
  /// Executable to launch for each node (defaults to the running binary;
  /// for ssh, the path on the remote host).
  std::string xcv_binary;
  /// Fleet width K (>= 1). Ignored when `ssh_hosts` is set (one node per
  /// host).
  int shards = 2;
  /// Non-empty: run nodes remotely over ssh/scp (SshTransport), one per
  /// host, named by the host string. Empty: local children named
  /// "local-0".."local-(K-1)".
  std::vector<std::string> ssh_hosts;
  ShardBy by = ShardBy::kPairs;
  /// Rebalance deadline per epoch, seconds. 0 = no deadline: an epoch ends
  /// when every attempt has finished, gave up, or was stopped. With a
  /// deadline, stragglers are asked to checkpoint and stop (SIGTERM).
  double epoch_seconds = 0.0;
  /// An attempt whose heartbeat is older than this after its first beat is
  /// presumed hung and killed (a *stall*). Also the SIGTERM->SIGKILL grace
  /// at the epoch deadline.
  double lease_seconds = 5.0;
  double poll_seconds = 0.1;
  /// Hard cap on epochs before giving up.
  int max_epochs = 64;
  /// Consecutive epochs with no persisted progress tolerated before giving
  /// up; each one backs off exponentially (0.5s, 1s, 2s, ...).
  int max_stalled_epochs = 4;
  double backoff_initial_seconds = 0.5;
  double backoff_max_seconds = 8.0;

  /// WDL-style per-node retry/quarantine policy (support/retry.h).
  support::retry::RuntimeAttrs attrs;
  /// Seed mixed into the deterministic backoff jitter.
  std::uint64_t retry_seed = 0;
  /// Test hook: run the fleet through this transport instead of
  /// constructing a Local/Ssh one. Not owned.
  NodeTransport* transport = nullptr;

  // ---- Chaos hook (CI smoke) ------------------------------------------------
  /// Arm XCV_FAULTS=`fault_spec` in node `fault_node`'s first attempt of
  /// epoch 0 (all other attempts run with faults cleared). -1 = off. A node
  /// is yanked from the rack by the transport's own preemption fault point
  /// (`transport.preempt.<node>`, transport.h).
  int fault_node = -1;
  std::string fault_spec;

  /// When non-empty, node k runs with --cache=<cache_dir>/cache-node-k.json.
  std::string cache_dir;
  bool quiet = false;
};

struct CoordinatorResult {
  bool converged = false;
  int epochs = 0;
  int launches = 0;
  /// Attempts killed by the coordinator (stale lease, launch timeout, or
  /// epoch deadline).
  int kills = 0;
  /// Shard files that came back damaged and were salvaged or replaced.
  int recoveries = 0;
  /// Pair fragments restored from the coordinator's dealt copy because a
  /// shard lost them.
  std::size_t backfilled_fragments = 0;
  /// Failed attempts that were relaunched (any FailureKind).
  int retries = 0;
  /// Failures classified as preemptions (SIGKILL from outside).
  int preemptions = 0;
  /// Heartbeat-stall kills issued by the coordinator.
  int stalls = 0;
  /// Attempts that never started (Launch failure, exec 127, launch
  /// timeout, fetch failure).
  int launch_failures = 0;
  /// Nodes newly quarantined during this run, in order.
  std::vector<std::string> quarantined;
  /// Wall-clock-free timeline of retry/backoff/quarantine decisions, one
  /// line per event ("epoch=0 node=local-1 attempt=2 kind=preempted
  /// action=retry backoff=0.512"). Deterministic for a fixed fault spec —
  /// the chaos-replay assertion surface.
  std::vector<std::string> events;
  /// Non-empty when the loop gave up (error, stall, or max_epochs).
  std::string error;
};

/// Runs the supervise/partition/launch/merge loop described above.
CoordinatorResult RunCoordinator(const CoordinatorOptions& options);

/// Restores into `loaded` every pair fragment present in `dealt` (the
/// checkpoint the coordinator handed that shard) but missing from what the
/// shard gave back — the fragment restarts from its dealt state, losing
/// only unpersisted work. Returns the number of fragments restored.
/// Exposed for tests; RunCoordinator applies it per shard before merging.
std::size_t BackfillMissingPairs(campaign::Checkpoint& loaded,
                                 const campaign::Checkpoint& dealt);

/// Removes `node-*.epoch-E.log` files in `work_dir` for epochs at or
/// before `current_epoch - keep`, bounding work-dir growth across long
/// campaigns. Returns the number of files removed. Exposed for tests.
std::size_t PruneEpochLogs(const std::string& work_dir, int current_epoch,
                           int keep = 3);

}  // namespace xcv::shard
