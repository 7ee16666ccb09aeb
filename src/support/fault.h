// Deterministic fault injection for robustness testing.
//
// A fault *point* is a named site in the code (e.g.
// "checkpoint.save.short-write") that consults the armed schedule every
// time execution passes it. Faults are armed from a spec string — the
// XCV_FAULTS environment variable or the `--faults` CLI flag:
//
//   spec   := entry (',' entry)*
//   entry  := point ['@' when] ['=' arg]
//   when   := N       fire on the N-th visit only (1-based; the default is 1)
//           | N '+'   fire on the N-th visit and on every one after it
//           | '*'     fire on every visit
//   arg    := non-negative integer payload (delay milliseconds, ...)
//
//   XCV_FAULTS="checkpoint.save.short-write@2,campaign.pair-done.delay=250"
//
// The schedule is deterministic: visit counters are per-point and
// process-local, so a given spec fires at exactly the same site visits on
// every run — chaos tests reproduce bit-for-bit. Visits are only counted
// while the layer is armed.
//
// When nothing is armed the per-visit cost is one relaxed atomic load — no
// locks, no allocation, nothing in any solver hot path — so the layer is
// free in production builds.
//
// Standard fault points (see the sites for exact semantics):
//   checkpoint.save.short-write    torn checkpoint: truncated bytes survive
//                                  the rename, then the process dies
//   checkpoint.save.crash-before-rename   die after fsync, before rename
//                                  (the previous file must stay intact)
//   checkpoint.load.eio            reading a checkpoint fails as if by EIO
//   cache.save.short-write / cache.save.crash-before-rename / cache.load.eio
//                                  same, for the persistent verdict cache
//   campaign.pair-done.delay       straggler: sleep ARG ms after a pair
//   campaign.pair-done.crash       die right after a pair completes
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace xcv::support::fault {

/// Exit code used by injected crashes (distinct from real failures).
inline constexpr int kFaultExitCode = 70;

/// Payload attached to a firing fault (the `=ARG` part of the spec).
struct FireInfo {
  std::int64_t arg = 0;
};

/// One registered fault point, for discovery (`xcv info`).
struct PointInfo {
  const char* name;  ///< the point name used in a spec
  const char* arg;   ///< payload meaning ("" when the point takes none)
  const char* help;  ///< one-line description of what firing does
};

/// Every standard fault point, in stable display order. The
/// `transport.*` points are additionally consulted with a `.<node-name>`
/// suffix (e.g. `transport.preempt.local-0@1`) for per-node targeting.
const std::vector<PointInfo>& RegisteredPoints();

namespace detail {
extern std::atomic<bool> g_armed;
bool HitSlow(const char* point, FireInfo* info);
}  // namespace detail

/// True when any fault spec is armed. One relaxed load.
inline bool Armed() {
  return detail::g_armed.load(std::memory_order_relaxed);
}

/// Arms (appends) the entries of `spec` on top of whatever is already
/// armed. Throws xcv::InternalError on malformed specs.
void ArmFromSpec(const std::string& spec);

/// Throws xcv::InternalError when `spec` is malformed, exactly as
/// ArmFromSpec would, and arms nothing: the schedule is left as it was.
void CheckSpec(const std::string& spec);

/// ArmFromSpec(getenv("XCV_FAULTS")) when the variable is set and non-empty.
void ArmFromEnv();

/// Clears every armed entry and every visit counter (tests).
void Disarm();

/// Number of visits `point` has received while armed (tests/telemetry).
std::uint64_t VisitCount(const std::string& point);

/// Core check: records a visit to `point` and returns true when an armed
/// entry says this visit fires (filling `info` with its payload). Returns
/// false immediately — without counting — when nothing is armed.
inline bool Hit(const char* point, FireInfo* info = nullptr) {
  if (!Armed()) return false;
  return detail::HitSlow(point, info);
}

/// Immediately terminates the process with kFaultExitCode, bypassing every
/// destructor and atexit hook — the honest simulation of a crash.
[[noreturn]] void CrashNow();

/// CrashNow() when `point` fires; otherwise a no-op.
void MaybeCrash(const char* point);

/// Sleeps the firing entry's payload (milliseconds) when `point` fires.
void MaybeDelay(const char* point);

/// True when `point` fires and the caller should fail the read as if the
/// device returned EIO.
bool MaybeEio(const char* point);

/// True when `point` fires and the caller should tear the write: persist
/// only a prefix of the payload, make it visible, then CrashNow().
bool MaybeShortWrite(const char* point);

}  // namespace xcv::support::fault
