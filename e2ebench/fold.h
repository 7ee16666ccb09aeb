// Trace fold: turns the Chrome trace_event JSON that obs::TraceRecorder
// renders into a per-layer table whose lines sum to the traced wall time.
//
// Every complete ("X") event is a span on one thread. Per thread, each
// instant belongs to the innermost open span (its self time). Across
// threads, each instant of the root span is shared equally among the
// threads whose innermost span is doing work; spans named in `waiting`
// (a thread blocked on others: the campaign's `job` span while the pool
// runs its boxes, a client inside an HTTP call) get an instant only when no
// working span is open anywhere, and an instant no span covers is
// "unattributed". So the lines partition the root's wall time exactly, even
// when several threads run at once.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace xcvbench {

struct FoldResult {
  /// Duration of the root span: the traced wall time.
  double wall_s = 0.0;
  /// Layer -> wall-share seconds; includes "unattributed". Sums to wall_s.
  std::map<std::string, double> layers;
  /// Span kind -> summed duration (busy seconds across all threads) and
  /// count. Kinds are span names, with solves that replayed a cached
  /// verdict split out as "solve.cached".
  std::map<std::string, double> busy_s;
  std::map<std::string, std::uint64_t> count;
  std::uint64_t events = 0;
};

/// Folds `trace_json` over the extent of the span named `root` (which must
/// occur exactly once). Throws xcv::InternalError when the root is missing.
FoldResult FoldTrace(const std::string& trace_json, const std::string& root,
                     const std::set<std::string>& waiting);

/// True when the layer lines sum to the traced wall time (to rounding).
bool FoldBalanced(const FoldResult& fold);

}  // namespace xcvbench
