#include "shard/coordinator.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <system_error>
#include <thread>
#include <utility>
#include <vector>

#ifndef _WIN32
#include <signal.h>
#include <unistd.h>
#endif

#include "obs/metrics.h"
#include "obs/trace.h"
#include "shard/merge.h"
#include "shard/transport.h"
#include "support/check.h"

namespace xcv::shard {

using campaign::Checkpoint;
using campaign::PairState;
namespace retry = support::retry;

namespace {

// Coordinator observability (src/obs/): fleet-level counters plus trace
// instants so node attempts, backoffs, quarantines, and re-deals land in
// the same timeline as the solver spans when a trace is armed.
obs::Counter& CoordCounter(const char* which) {
  static obs::Counter& retries = obs::Registry::Global().GetCounter(
      "xcv_coordinator_retries_total", "Node attempts scheduled for retry.");
  static obs::Counter& preemptions = obs::Registry::Global().GetCounter(
      "xcv_coordinator_preemptions_total",
      "Node attempts classified as preempted.");
  static obs::Counter& quarantines = obs::Registry::Global().GetCounter(
      "xcv_coordinator_quarantines_total",
      "Nodes newly quarantined by the ledger.");
  static obs::Counter& launches = obs::Registry::Global().GetCounter(
      "xcv_coordinator_launches_total", "Node attempts launched.");
  switch (which[0]) {
    case 'r': return retries;
    case 'p': return preemptions;
    case 'q': return quarantines;
    default: return launches;
  }
}

obs::Histogram& EpochSecondsHistogram() {
  static obs::Histogram& h = obs::Registry::Global().GetHistogram(
      "xcv_coordinator_epoch_seconds",
      "Wall seconds per coordinator epoch (launch to merge).",
      obs::DefaultSecondsBuckets());
  return h;
}

std::string PairKey(const PairState& p) {
  return p.functional + '\x1f' + p.condition;
}

bool AllDone(const Checkpoint& cp) {
  for (const PairState& p : cp.pairs)
    if (p.applicable && !p.done) return false;
  return !cp.pairs.empty();
}

// Persisted-progress score: strictly increases whenever any node's work
// survived to disk (counters are additive across checkpoint/resume, so the
// sum is monotone per fragment). Equal scores across an epoch mean nothing
// was persisted — the stall signal that drives backoff.
std::uint64_t ProgressScore(const Checkpoint& cp) {
  std::uint64_t score = 0;
  for (const PairState& p : cp.pairs) {
    score += p.report.solver_calls + p.report.cache_hits;
    if (p.done) ++score;
  }
  return score;
}

double SecondsSince(std::chrono::steady_clock::time_point t) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t)
      .count();
}

}  // namespace

std::size_t BackfillMissingPairs(Checkpoint& loaded, const Checkpoint& dealt) {
  std::size_t restored = 0;
  for (const PairState& p : dealt.pairs) {
    bool present = false;
    for (const PairState& q : loaded.pairs) {
      if (PairKey(q) == PairKey(p)) {
        present = true;
        break;
      }
    }
    if (!present) {
      loaded.pairs.push_back(p);
      ++restored;
    }
  }
  return restored;
}

std::size_t PruneEpochLogs(const std::string& work_dir, int current_epoch,
                           int keep) {
  std::size_t removed = 0;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(work_dir, ec)) {
    const std::string name = entry.path().filename().string();
    // node-<K>.epoch-<E>.log
    if (name.rfind("node-", 0) != 0) continue;
    const auto epos = name.find(".epoch-");
    if (epos == std::string::npos) continue;
    const auto lpos = name.rfind(".log");
    if (lpos == std::string::npos || lpos != name.size() - 4) continue;
    const std::string digits = name.substr(epos + 7, lpos - (epos + 7));
    if (digits.empty() ||
        digits.find_first_not_of("0123456789") != std::string::npos)
      continue;
    const int e = std::atoi(digits.c_str());
    if (e <= current_epoch - keep) {
      std::error_code rec;
      if (std::filesystem::remove(entry.path(), rec)) ++removed;
    }
  }
  return removed;
}

#ifndef _WIN32

namespace {

/// The running executable, so `xcv coordinate` launches the same build it
/// was invoked as (readlink of /proc/self/exe; "" off Linux).
std::string SelfExePath() {
#ifdef __linux__
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n <= 0) return "";
  buf[n] = '\0';
  return buf;
#else
  return "";
#endif
}

/// One shard's attempt sequence within an epoch.
struct Slot {
  enum class Phase {
    kRunning,   ///< an attempt is (believed) alive
    kBackoff,   ///< last attempt failed; waiting to relaunch
    kDone,      ///< an attempt succeeded
    kGaveUp,    ///< retry budget exhausted; shard re-dealt next epoch
    kStopped,   ///< deadline rebalance stop (not a failure)
  };

  int index = 0;
  std::string node;
  std::string shard_path, hb_path, log_path, cache_path;
  Phase phase = Phase::kRunning;
  retry::RetryBudget budget;
  int attempt = 0;  ///< launches so far (1-based once launched)
  /// The coordinator killed this attempt for a stale lease.
  bool stall_kill = false;
  /// The coordinator killed this attempt because it never heartbeat
  /// within the launch timeout (a transport failure, not a stall).
  bool timeout_kill = false;
  /// SIGTERM'd at the epoch deadline: an intentional rebalance, uncharged.
  bool deadline_stop = false;
  std::chrono::steady_clock::time_point relaunch_at;
};

const char* PhaseName(Slot::Phase p) {
  switch (p) {
    case Slot::Phase::kRunning: return "running";
    case Slot::Phase::kBackoff: return "backoff";
    case Slot::Phase::kDone: return "done";
    case Slot::Phase::kGaveUp: return "gave-up";
    case Slot::Phase::kStopped: return "stopped";
  }
  return "?";
}

}  // namespace

CoordinatorResult RunCoordinator(const CoordinatorOptions& options_in) {
  CoordinatorResult result;
  CoordinatorOptions options = options_in;
  const bool remote = !options.ssh_hosts.empty();
  if (remote) options.shards = static_cast<int>(options.ssh_hosts.size());
  if (options.xcv_binary.empty() && !remote)
    options.xcv_binary = SelfExePath();
  XCV_CHECK_MSG(options.shards >= 1,
                "coordinate: --shards must be at least 1");
  XCV_CHECK_MSG(!options.checkpoint_path.empty(),
                "coordinate: a campaign checkpoint path is required");
  XCV_CHECK_MSG(!options.xcv_binary.empty(),
                "coordinate: cannot resolve the xcv binary to launch nodes "
                "with (pass --xcv-bin=PATH)");
  std::error_code ec;
  std::filesystem::create_directories(options.work_dir, ec);
  XCV_CHECK_MSG(!ec, "cannot create work dir '" << options.work_dir
                                                << "': " << ec.message());

  auto log = [&](const char* fmt, auto... args_pack) {
    if (!options.quiet) {
      std::fprintf(stderr, "[xcv coordinate] ");
      std::fprintf(stderr, fmt, args_pack...);
      std::fprintf(stderr, "\n");
    }
  };

  // The node pool is fixed for the whole run; the *usable* subset is
  // re-derived from the health ledger every epoch.
  std::vector<std::string> pool;
  if (remote) {
    pool = options.ssh_hosts;
  } else {
    for (int k = 0; k < options.shards; ++k)
      pool.push_back("local-" + std::to_string(k));
  }

  retry::NodeLedger ledger;
  if (ledger.Load(options.work_dir + "/nodes.json"))
    log("node ledger loaded: %zu node record(s)", ledger.nodes().size());

  std::unique_ptr<NodeTransport> owned_transport;
  NodeTransport* transport = options.transport;
  if (transport == nullptr) {
    if (remote)
      owned_transport = std::make_unique<SshTransport>();
    else
      owned_transport = std::make_unique<LocalProcessTransport>();
    transport = owned_transport.get();
  }

  // The campaign state the coordinator owns, re-read tolerantly so a crash
  // while *it* was writing the checkpoint recovers too.
  support::LoadOutcome load;
  Checkpoint state =
      campaign::LoadCheckpointFileTolerant(options.checkpoint_path, &load);
  if (load.cold) {
    result.error = "cannot load campaign checkpoint: " + load.detail;
    return result;
  }
  if (!load.clean) {
    ++result.recoveries;
    log("%s", load.detail.c_str());
  }
  std::uint64_t score = ProgressScore(state);
  int stalled = 0;

  auto event = [&](int epoch, const Slot& slot, const std::string& what) {
    result.events.push_back("epoch=" + std::to_string(epoch) +
                            " node=" + slot.node +
                            " attempt=" + std::to_string(slot.attempt) + " " +
                            what);
    // Mirror every structured event into the trace timeline: retries,
    // backoffs, quarantines, and give-ups interleave with solver spans.
    obs::TraceRecorder& trec = obs::TraceRecorder::Global();
    if (trec.armed()) {
      std::string detail = what;
      for (char& c : detail)
        if (c == '"') c = '\'';
      trec.RecordInstant("coordinator-event", "coordinator",
                         "\"node\":\"" + slot.node +
                             "\",\"epoch\":" + std::to_string(epoch) +
                             ",\"attempt\":" + std::to_string(slot.attempt) +
                             ",\"what\":\"" + detail + "\"");
    }
  };

  for (int epoch = 0; epoch < options.max_epochs; ++epoch) {
    if (AllDone(state)) {
      result.converged = true;
      break;
    }
    result.epochs = epoch + 1;
    ledger.TickEpoch();

    // ---- Pick the fleet -----------------------------------------------------
    // Quarantined nodes sit out until their cooldown earns a probe. If
    // everything is quarantined the campaign must still limp forward:
    // degrade to the single least-bad node rather than deadlocking.
    std::vector<std::string> fleet;
    for (const std::string& node : pool)
      if (ledger.Usable(node)) fleet.push_back(node);
    if (fleet.empty()) {
      const std::string* best = &pool.front();
      for (const std::string& node : pool) {
        if (ledger.Get(node).consecutive_failures <
            ledger.Get(*best).consecutive_failures)
          best = &node;
      }
      fleet.push_back(*best);
      result.events.push_back("epoch=" + std::to_string(epoch) +
                              " all nodes quarantined — degrading to " +
                              *best);
      log("epoch %d: every node quarantined — degrading to %s", epoch,
          best->c_str());
    }
    ledger.Save();

    // ---- Deal ---------------------------------------------------------------
    const std::size_t n = fleet.size();
    PartitionOptions popts;
    popts.shards = static_cast<int>(n);
    popts.by = options.by;
    popts.rebase_provenance = true;
    std::vector<Checkpoint> dealt = PartitionCheckpoint(state, popts);

    std::vector<Slot> slots(n);
    for (std::size_t k = 0; k < n; ++k) {
      Slot& s = slots[k];
      s.index = static_cast<int>(k);
      s.node = fleet[k];
      s.shard_path =
          options.work_dir + "/shard-" + std::to_string(k) + ".json";
      s.hb_path = options.work_dir + "/hb-" + std::to_string(k);
      s.log_path = options.work_dir + "/node-" + std::to_string(k) +
                   ".epoch-" + std::to_string(epoch) + ".log";
      if (!options.cache_dir.empty())
        s.cache_path = options.cache_dir + "/cache-node-" + std::to_string(k) +
                       ".json";
      campaign::WriteCheckpointFile(s.shard_path, dealt[k].options,
                                    dealt[k].pairs, dealt[k].cancelled);
    }

    // Failure bookkeeping for one finished (or unlaunchable) attempt:
    // classify, charge the budget, update the ledger, and either schedule
    // a relaunch after deterministic backoff or give the slot up.
    auto handle_failure = [&](Slot& s, retry::FailureKind kind) {
      s.budget.Charge(kind, options.attrs);
      const bool newly_quarantined =
          ledger.RecordFailure(s.node, kind, options.attrs);
      ledger.Save();
      if (kind == retry::FailureKind::kPreempted) {
        ++result.preemptions;
        CoordCounter("preemptions").Inc();
      }
      if (kind == retry::FailureKind::kHeartbeatStall) ++result.stalls;
      if (kind == retry::FailureKind::kLaunchError) ++result.launch_failures;
      if (newly_quarantined) {
        CoordCounter("quarantines").Inc();
        result.quarantined.push_back(s.node);
        event(epoch, s,
              std::string("kind=") + retry::FailureKindName(kind) +
                  " action=quarantine");
        log("node %s quarantined after %d consecutive failure(s)",
            s.node.c_str(), ledger.Get(s.node).consecutive_failures);
      }
      if (s.budget.Exhausted(options.attrs)) {
        s.phase = Slot::Phase::kGaveUp;
        event(epoch, s,
              std::string("kind=") + retry::FailureKindName(kind) +
                  " action=give-up");
        log("node %s: %s — retry budget exhausted, shard will be re-dealt",
            s.node.c_str(), retry::FailureKindName(kind));
        return;
      }
      const int charges = s.budget.preemptions + s.budget.failures;
      const double backoff = retry::BackoffSeconds(
          options.attrs, s.node, charges, options.retry_seed + epoch);
      s.phase = Slot::Phase::kBackoff;
      s.relaunch_at = std::chrono::steady_clock::now() +
                      std::chrono::duration_cast<
                          std::chrono::steady_clock::duration>(
                          std::chrono::duration<double>(backoff));
      char buf[64];
      std::snprintf(buf, sizeof(buf), " action=retry backoff=%.3f", backoff);
      event(epoch, s,
            std::string("kind=") + retry::FailureKindName(kind) + buf);
      log("node %s: %s — retrying in %.3fs", s.node.c_str(),
          retry::FailureKindName(kind), backoff);
      ++result.retries;
      CoordCounter("retries").Inc();
    };

    auto launch = [&](Slot& s) {
      // A heartbeat left over from a previous attempt would read as a
      // stale lease the instant the new one starts.
      std::filesystem::remove(s.hb_path, ec);
      if (s.attempt > 0) {
        // Retry: the dead attempt may have torn the shard file mid-write.
        // Hand the relaunch a loadable checkpoint — salvage what survived
        // and backfill lost fragments from the dealt copy — instead of
        // burning the retry budget on a worker that cannot even load.
        support::LoadOutcome r;
        Checkpoint salvaged =
            campaign::LoadCheckpointFileTolerant(s.shard_path, &r);
        if (r.cold) {
          ++result.recoveries;
          log("node %s: %s — re-dealing its shard for the retry",
              s.node.c_str(), r.detail.c_str());
          campaign::WriteCheckpointFile(
              s.shard_path, dealt[static_cast<std::size_t>(s.index)].options,
              dealt[static_cast<std::size_t>(s.index)].pairs,
              dealt[static_cast<std::size_t>(s.index)].cancelled);
        } else if (!r.clean) {
          ++result.recoveries;
          log("node %s: %s", s.node.c_str(), r.detail.c_str());
          const std::size_t restored = BackfillMissingPairs(
              salvaged, dealt[static_cast<std::size_t>(s.index)]);
          result.backfilled_fragments += restored;
          salvaged.cancelled = false;
          campaign::WriteCheckpointFile(s.shard_path, salvaged.options,
                                        salvaged.pairs, salvaged.cancelled);
        }
      }
      ++s.attempt;
      s.stall_kill = false;
      s.timeout_kill = false;
      LaunchSpec spec;
      spec.slot = s.index;
      spec.node = s.node;
      spec.epoch = epoch;
      spec.attempt = s.attempt;
      spec.shard_path = s.shard_path;
      spec.heartbeat_path = s.hb_path;
      spec.log_path = s.log_path;
      spec.cache_path = s.cache_path;
      spec.xcv_binary = options.xcv_binary;
      // Legacy chaos hook: faults only in the designated node's first
      // attempt of epoch 0 — retries and other nodes run clean.
      if (epoch == 0 && s.attempt == 1 && s.index == options.fault_node &&
          !options.fault_spec.empty())
        spec.fault_env = options.fault_spec;
      ledger.RecordLaunch(s.node);
      ++result.launches;
      CoordCounter("launches").Inc();
      event(epoch, s, "action=launch");
      std::string err;
      if (transport->Launch(spec, &err)) {
        s.phase = Slot::Phase::kRunning;
        return;
      }
      log("node %s: launch failed (%s)", s.node.c_str(), err.c_str());
      handle_failure(s, retry::FailureKind::kLaunchError);
    };

    const auto epoch_start = std::chrono::steady_clock::now();
    const std::uint64_t trace_epoch_t0 =
        obs::TraceRecorder::Global().armed()
            ? obs::TraceRecorder::Global().NowUs()
            : 0;
    for (Slot& s : slots) launch(s);
    log("epoch %d: launched %zu node(s) via %s transport", epoch, n,
        transport->Name());

    // ---- Monitor ------------------------------------------------------------
    bool deadline_hit = false;
    auto deadline_time = epoch_start;
    const double launch_window =
        std::max(options.lease_seconds, options.attrs.launch_timeout_s);
    for (;;) {
      bool any_open = false;
      for (Slot& s : slots) {
        if (s.phase == Slot::Phase::kBackoff) {
          if (deadline_hit) {
            // Past the rebalance deadline: the pending retry's frontier is
            // re-dealt next epoch instead.
            s.phase = Slot::Phase::kStopped;
            continue;
          }
          any_open = true;
          if (std::chrono::steady_clock::now() >= s.relaunch_at) launch(s);
          continue;
        }
        if (s.phase != Slot::Phase::kRunning) continue;
        const NodeStatus st = transport->Poll(s.index);
        if (st.running) {
          any_open = true;
          continue;
        }
        // Attempt finished: bring the shard result back, then classify.
        std::string ferr;
        const bool fetched = transport->Fetch(s.index, &ferr);
        if (!fetched)
          log("node %s: fetch failed (%s) — falling back to the dealt copy",
              s.node.c_str(), ferr.c_str());
        if (s.deadline_stop) {
          s.phase = Slot::Phase::kStopped;
          continue;
        }
        if (fetched && st.exited &&
            (st.exit_code == 0 || st.exit_code == 130)) {
          s.phase = Slot::Phase::kDone;
          ledger.RecordSuccess(s.node);
          ledger.Save();
          continue;
        }
        if (st.exited && st.exit_code != 0)
          log("node %s exited with status %d", s.node.c_str(), st.exit_code);
        else if (st.signaled)
          log("node %s killed by signal %d", s.node.c_str(), st.term_signal);
        const retry::FailureKind kind =
            !fetched && st.exited && st.exit_code == 0
                ? retry::FailureKind::kLaunchError
                : retry::ClassifyFailure(s.timeout_kill, s.stall_kill,
                                         st.signaled, st.term_signal,
                                         st.exit_code);
        handle_failure(s, kind);
        any_open = s.phase == Slot::Phase::kBackoff || any_open;
      }
      if (!any_open) break;

      const double elapsed = SecondsSince(epoch_start);

      // Liveness: after the first beat, silence past the lease is a stall
      // (the node is hung). Before any beat, silence is judged against the
      // launch window — ssh wedged, exec never ran — and charged as a
      // launch error, not a stall.
      for (Slot& s : slots) {
        if (s.phase != Slot::Phase::kRunning || s.stall_kill ||
            s.timeout_kill || s.deadline_stop)
          continue;
        const double age = transport->HeartbeatAge(s.index);
        if (transport->BeatSeen(s.index)) {
          if (age > options.lease_seconds) {
            s.stall_kill = true;
            transport->Kill(s.index, SIGKILL);
            ++result.kills;
            log("node %s heartbeat stale (> %.1fs) — killed", s.node.c_str(),
                options.lease_seconds);
          }
        } else if (age > launch_window) {
          s.timeout_kill = true;
          transport->Kill(s.index, SIGKILL);
          ++result.kills;
          log("node %s never heartbeat within %.1fs — launch timed out",
              s.node.c_str(), launch_window);
        }
      }

      // Rebalance deadline: ask stragglers to checkpoint and stop, then
      // force the issue after a grace period. Pending retries are
      // cancelled — their frontier is re-dealt next epoch anyway.
      if (options.epoch_seconds > 0.0 && elapsed >= options.epoch_seconds) {
        if (!deadline_hit) {
          deadline_hit = true;
          deadline_time = std::chrono::steady_clock::now();
          for (Slot& s : slots) {
            if (s.phase == Slot::Phase::kBackoff) {
              s.phase = Slot::Phase::kStopped;
              continue;
            }
            if (s.phase != Slot::Phase::kRunning) continue;
            s.deadline_stop = true;
            transport->Kill(s.index, SIGTERM);
            log("epoch deadline: SIGTERM node %s (will re-deal its "
                "frontier)",
                s.node.c_str());
          }
        } else if (SecondsSince(deadline_time) > options.lease_seconds) {
          for (Slot& s : slots) {
            if (s.phase != Slot::Phase::kRunning) continue;
            s.deadline_stop = true;
            transport->Kill(s.index, SIGKILL);
            ++result.kills;
            log("node %s ignored SIGTERM — killed", s.node.c_str());
          }
        }
      }

      std::this_thread::sleep_for(
          std::chrono::duration<double>(options.poll_seconds));
    }

    // ---- Collect ------------------------------------------------------------
    std::vector<Checkpoint> collected;
    collected.reserve(n);
    for (std::size_t k = 0; k < n; ++k) {
      const Slot& s = slots[k];
      support::LoadOutcome r;
      Checkpoint shard_cp =
          campaign::LoadCheckpointFileTolerant(s.shard_path, &r);
      if (r.cold) {
        // Nothing usable came back: the fragment restarts from what was
        // dealt — only unpersisted work is lost.
        ++result.recoveries;
        log("node %s (%s): %s — re-dealing its shard from the coordinator's "
            "copy",
            s.node.c_str(), PhaseName(s.phase), r.detail.c_str());
        shard_cp = dealt[k];
      } else {
        if (!r.clean) {
          ++result.recoveries;
          log("node %s: %s", s.node.c_str(), r.detail.c_str());
        }
        // A salvaged (or otherwise incomplete) shard must still cover every
        // fragment it was dealt, or merged verdicts would silently omit
        // regions. Missing fragments restart from their dealt state.
        const std::size_t restored = BackfillMissingPairs(shard_cp, dealt[k]);
        result.backfilled_fragments += restored;
        if (restored > 0)
          log("node %s: restored %zu lost fragment(s) from the dealt shard",
              s.node.c_str(), restored);
      }
      collected.push_back(std::move(shard_cp));
    }

    MergeStats mstats;
    Checkpoint merged = MergeCheckpoints(std::move(collected), &mstats);
    // The merged document is the coordinator's own state, not a cancelled
    // node's: SIGTERM-driven rebalances would otherwise mark it cancelled
    // forever.
    merged.cancelled = false;

    const std::uint64_t new_score = ProgressScore(merged);
    campaign::WriteCheckpointFile(options.checkpoint_path, merged.options,
                                  merged.pairs, merged.cancelled);
    state = std::move(merged);

    PruneEpochLogs(options.work_dir, epoch);

    EpochSecondsHistogram().Observe(SecondsSince(epoch_start));
    if (obs::TraceRecorder::Global().armed()) {
      obs::TraceRecorder& trec = obs::TraceRecorder::Global();
      const std::uint64_t now = trec.NowUs();
      trec.RecordComplete("epoch " + std::to_string(epoch), "coordinator",
                          trace_epoch_t0,
                          now >= trace_epoch_t0 ? now - trace_epoch_t0 : 0,
                          "\"nodes\":" + std::to_string(n));
    }

    std::size_t open_pairs = 0;
    for (const PairState& p : state.pairs)
      if (p.applicable && !p.done) ++open_pairs;
    log("epoch %d merged: %zu pair(s) still open, progress %llu -> %llu",
        epoch, open_pairs, static_cast<unsigned long long>(score),
        static_cast<unsigned long long>(new_score));

    if (new_score <= score) {
      ++stalled;
      if (stalled >= options.max_stalled_epochs) {
        result.error = "no persisted progress across " +
                       std::to_string(stalled) +
                       " consecutive epochs — giving up";
        return result;
      }
      const double backoff =
          std::min(options.backoff_max_seconds,
                   options.backoff_initial_seconds *
                       static_cast<double>(1 << (stalled - 1)));
      log("no progress this epoch — backing off %.1fs (%d/%d)", backoff,
          stalled, options.max_stalled_epochs);
      std::this_thread::sleep_for(std::chrono::duration<double>(backoff));
    } else {
      stalled = 0;
    }
    score = new_score;

    if (AllDone(state)) {
      result.converged = true;
      break;
    }
  }

  if (!result.converged && result.error.empty())
    result.error = "campaign did not converge within " +
                   std::to_string(options.max_epochs) + " epoch(s)";
  return result;
}

#else  // _WIN32

CoordinatorResult RunCoordinator(const CoordinatorOptions&) {
  CoordinatorResult result;
  result.error = "xcv coordinate requires a POSIX host (fork/exec)";
  return result;
}

#endif

}  // namespace xcv::shard
