#include "support/fault.h"

#include <chrono>
#include <cstdlib>
#include <mutex>
#include <optional>
#include <thread>
#include <unordered_map>
#include <vector>

#include "support/check.h"
#include "support/json.h"

namespace xcv::support::fault {

namespace detail {
std::atomic<bool> g_armed{false};
}  // namespace detail

namespace {

// One armed spec entry. `from` and `to` bound the firing visit numbers
// (1-based, inclusive): `@N` is [N, N], `@N+` is [N, inf), `@*` is [1, inf).
struct Entry {
  std::string point;
  std::uint64_t from = 1;
  std::uint64_t to = 1;
  std::int64_t arg = 0;
};

struct State {
  std::mutex mu;
  std::vector<Entry> entries;
  std::unordered_map<std::string, std::uint64_t> visits;
};

State& GetState() {
  static State* state = new State();  // leaked: usable during shutdown
  return *state;
}

// `number`, the `what` of fault spec entry `text`, read with the flags'
// decimal grammar (json::DecimalToDouble) as an integer in [lo, 2^53].
std::int64_t SpecInteger(const std::string& text, const std::string& number,
                         std::int64_t lo, const char* what) {
  const std::optional<double> v = json::DecimalToDouble(number);
  XCV_CHECK_MSG(v.has_value(), "fault spec '" << text << "': bad " << what
                                               << " '" << number << "'");
  return json::CheckedInteger(*v, lo, json::kMaxExactInteger,
                              "fault spec '" + text + "': " + what);
}

Entry ParseEntry(const std::string& text) {
  Entry e;
  std::string body = text;
  // Split off the `=ARG` payload first (the arg may not contain '@').
  if (const auto eq = body.find('='); eq != std::string::npos) {
    e.arg = SpecInteger(text, body.substr(eq + 1), 0, "payload");
    body = body.substr(0, eq);
  }
  if (const auto at = body.find('@'); at != std::string::npos) {
    std::string when = body.substr(at + 1);
    body = body.substr(0, at);
    if (when == "*") {
      e.from = 1;
      e.to = UINT64_MAX;
    } else {
      bool open_ended = false;
      if (!when.empty() && when.back() == '+') {
        open_ended = true;
        when.pop_back();
      }
      e.from = static_cast<std::uint64_t>(
          SpecInteger(text, when, 1, "occurrence (want N, N+, or *)"));
      e.to = open_ended ? UINT64_MAX : e.from;
    }
  }
  XCV_CHECK_MSG(!body.empty(), "fault spec '" << text << "': empty point name");
  e.point = body;
  return e;
}

std::vector<Entry> ParseSpec(const std::string& spec) {
  std::vector<Entry> parsed;
  std::string token;
  for (std::size_t i = 0; i <= spec.size(); ++i) {
    if (i == spec.size() || spec[i] == ',') {
      if (!token.empty()) parsed.push_back(ParseEntry(token));
      token.clear();
    } else {
      token += spec[i];
    }
  }
  return parsed;
}

}  // namespace

void CheckSpec(const std::string& spec) { ParseSpec(spec); }

void ArmFromSpec(const std::string& spec) {
  std::vector<Entry> parsed = ParseSpec(spec);
  if (parsed.empty()) return;
  State& state = GetState();
  std::lock_guard<std::mutex> lock(state.mu);
  for (Entry& e : parsed) state.entries.push_back(std::move(e));
  detail::g_armed.store(true, std::memory_order_relaxed);
}

void ArmFromEnv() {
  const char* env = std::getenv("XCV_FAULTS");
  if (env != nullptr && env[0] != '\0') ArmFromSpec(env);
}

void Disarm() {
  State& state = GetState();
  std::lock_guard<std::mutex> lock(state.mu);
  state.entries.clear();
  state.visits.clear();
  detail::g_armed.store(false, std::memory_order_relaxed);
}

std::uint64_t VisitCount(const std::string& point) {
  State& state = GetState();
  std::lock_guard<std::mutex> lock(state.mu);
  const auto it = state.visits.find(point);
  return it == state.visits.end() ? 0 : it->second;
}

namespace detail {

bool HitSlow(const char* point, FireInfo* info) {
  State& state = GetState();
  std::lock_guard<std::mutex> lock(state.mu);
  const std::uint64_t visit = ++state.visits[point];
  for (const Entry& e : state.entries) {
    if (e.point == point && e.from <= visit && visit <= e.to) {
      if (info != nullptr) info->arg = e.arg;
      return true;
    }
  }
  return false;
}

}  // namespace detail

const std::vector<PointInfo>& RegisteredPoints() {
  static const std::vector<PointInfo>* points = new std::vector<PointInfo>{
      {"checkpoint.save.short-write", "",
       "tear the checkpoint write: a truncated file survives the rename, "
       "then crash"},
      {"checkpoint.save.crash-before-rename", "",
       "crash after fsync but before the atomic rename"},
      {"checkpoint.load.eio", "", "reading a checkpoint fails as if by EIO"},
      {"cache.save.short-write", "", "torn write of the verdict cache"},
      {"cache.save.crash-before-rename", "",
       "crash before the cache rename lands"},
      {"cache.load.eio", "", "reading the verdict cache fails as if by EIO"},
      {"nodes.save.short-write", "", "torn write of the node-health ledger"},
      {"nodes.save.crash-before-rename", "",
       "crash before the node-ledger rename lands"},
      {"nodes.load.eio", "", "reading the node-health ledger fails"},
      {"service.journal.save.short-write", "",
       "torn write of the xcvd queue journal"},
      {"service.journal.save.crash-before-rename", "",
       "crash before the queue-journal rename lands"},
      {"service.journal.load.eio", "",
       "reading the xcvd queue journal fails as if by EIO"},
      {"campaign.pair-done.delay", "milliseconds",
       "straggler: sleep ARG ms after a pair completes"},
      {"campaign.pair-done.crash", "", "crash right after a pair completes"},
      {"transport.launch.fail", "", "the node attempt never starts"},
      {"transport.preempt", "milliseconds",
       "SIGKILL the attempt ARG ms after launch (spot reclaim)"},
      {"transport.stall", "",
       "the attempt's heartbeat goes silent (stale lease, not a crash)"},
      {"transport.fetch.eio", "",
       "fetching the shard result back from the node fails"},
  };
  return *points;
}

void CrashNow() { std::_Exit(kFaultExitCode); }

void MaybeCrash(const char* point) {
  if (Hit(point)) CrashNow();
}

void MaybeDelay(const char* point) {
  FireInfo info;
  if (Hit(point, &info) && info.arg > 0)
    std::this_thread::sleep_for(std::chrono::milliseconds(info.arg));
}

bool MaybeEio(const char* point) { return Hit(point); }

bool MaybeShortWrite(const char* point) { return Hit(point); }

}  // namespace xcv::support::fault
