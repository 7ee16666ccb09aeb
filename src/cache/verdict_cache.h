// Persistent verdict cache: memoizes DeltaSolver's per-box results across
// campaigns, so repeated runs (CI smoke matrices, parameter sweeps, EC×DFA
// matrices) skip solver work they have already paid for.
//
// Key = (scope, box):
//   * scope is a 64-bit fingerprint the solver derives from the canonical
//     optimized tapes of the formula's atoms, the formula skeleton, every
//     verdict-affecting solver option (delta, node budget, contraction
//     rounds, …— NOT wave_width, which is a pure batching knob), and a
//     caller-supplied salt (the campaign folds the condition id in);
//   * box is the queried domain's endpoints as exact bit patterns — lookups
//     match only boxes that are bit-for-bit the ones solved before, which is
//     what makes replay sound: deterministic splitting regenerates the exact
//     same boxes.
// Value = the solver's verdict (UNSAT / delta-sat model+box / node-budget
// timeout) plus node-count provenance. Verified (UNSAT) and counterexample
// leaves never change for a fixed scope; wall-clock-caused timeouts are
// never recorded (they are not reproducible).
//
// The cache may only skip work, never change verdicts: a hit replays the
// exact CheckResult the cold run produced, and the solver revalidates a
// call's hits in one interval sweep before trusting them (defense against
// scope-hash collisions and stale files; see DeltaSolver::CheckMany).
//
// Thread-safe: one mutex around one std::map ordered by (scope, box bit
// patterns), which is also the file's entry order. On disk it is a
// support/document.h document, so a corrupt, truncated or missing file
// degrades to a salvaged or empty (cold) cache and never throws out of
// Load. A change generation lets owners skip rewriting a file that already
// holds every entry (SaveIfChanged).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "interval/interval.h"
#include "solver/box.h"
#include "support/document.h"

namespace xcv::cache {

/// Cached solver outcome kinds. kTimeout entries are only ever recorded
/// when the deterministic node budget (part of the scope hash) was the
/// stopper, so replaying them is as sound as replaying UNSAT.
enum class CachedKind { kUnsat, kDeltaSat, kTimeout };

std::string CachedKindToken(CachedKind kind);
CachedKind CachedKindFromToken(const std::string& token);

/// One cached verdict (the parts of a CheckResult that replay).
struct CachedVerdict {
  CachedKind kind = CachedKind::kUnsat;
  std::vector<double> model;      // delta-sat witness point (may be empty)
  std::vector<Interval> model_box;  // terminal box of a delta-sat result
  std::uint64_t nodes = 0;        // provenance: branch-and-prune nodes spent
};

class VerdictCache {
 public:
  /// An entry's key as stored: (scope, box endpoints).
  using Key = std::pair<std::uint64_t, std::vector<Interval>>;
  /// A key as looked up, without copying the box.
  using KeyView = std::pair<std::uint64_t, std::span<const Interval>>;
  /// Scope first, then solver::BoxBitsLess: the canonical file order.
  /// Transparent, so Keys are found by KeyView.
  struct KeyLess {
    using is_transparent = void;
    bool operator()(KeyView a, KeyView b) const {
      if (a.first != b.first) return a.first < b.first;
      return solver::BoxBitsLess{}(a.second, b.second);
    }
  };

  VerdictCache() = default;
  /// Retires this cache's entries from the process-wide
  /// xcv_cache_store_entries gauge (src/obs/metrics.h).
  ~VerdictCache();

  VerdictCache(const VerdictCache&) = delete;
  VerdictCache& operator=(const VerdictCache&) = delete;

  /// Exact lookup: scope must match bit-for-bit and `box` must equal the
  /// recorded box endpoint-for-endpoint. Fills `out` and returns true on a
  /// hit. Thread-safe.
  bool Lookup(std::uint64_t scope, std::span<const Interval> box,
              CachedVerdict* out) const;

  /// Inserts or overwrites the entry for (scope, box). Thread-safe.
  void Store(std::uint64_t scope, std::span<const Interval> box,
             CachedVerdict verdict);

  /// Removes the entry for (scope, box) if present. Returns true when an
  /// entry was removed. Thread-safe. Used by the shard cache union
  /// (src/shard/merge.cpp) to reject-and-drop conflicting entries.
  bool Erase(std::uint64_t scope, std::span<const Interval> box);

  /// Calls `fn` once per entry, in key order (KeyLess), the order ToJson
  /// serializes — so unions and statistics built from the visit are
  /// deterministic. The mutex is held for the whole walk; `fn` must not call
  /// back into this cache.
  void ForEach(const std::function<void(std::uint64_t scope,
                                        std::span<const Interval> box,
                                        const CachedVerdict& verdict)>& fn)
      const;

  std::size_t size() const;

  /// Serializes every entry as one JSON document, entries in key order, so
  /// equal caches produce byte-identical files.
  std::string ToJson() const;

  /// Replaces the contents with the entries parsed from `json_text`; a key
  /// the text repeats keeps its first entry. Returns false (leaving the
  /// cache empty) on malformed input.
  bool FromJson(const std::string& json_text);

  /// Loads `path` under the support/document.h policy, keeping the first
  /// entry of a repeated key as FromJson does. Returns true when the cache
  /// came back warm (a clean load, or a salvage that recovered at least one
  /// entry). Fills `*outcome` when non-null.
  bool Load(const std::string& path, support::LoadOutcome* outcome = nullptr);

  /// Writes the cache to `path` durably and atomically (temp file + fsync
  /// + rename + directory fsync), with a whole-document checksum. Saves of
  /// one cache are serialized (they share the "<path>.tmp" name); lookups
  /// and stores never wait on the file I/O. Honours the "cache.save.*"
  /// fault points. Throws xcv::InternalError on I/O failure.
  void Save(const std::string& path) const;

  /// Save, skipped when nothing changed since the cache last matched a
  /// file: a clean Load or a successful Save. A fresh cache, a cold or
  /// salvaged Load, and every Store, Erase or FromJson count as changes.
  /// The check runs under the save lock, so a concurrent Save that already
  /// covers every change makes this a no-op. Returns true when it wrote.
  bool SaveIfChanged(const std::string& path) const;

 private:
  using Entries = std::map<Key, CachedVerdict, KeyLess>;

  /// Document parsers that stage entries (never a half-loaded cache).
  static support::DocumentParsers Parsers(Entries& staged);
  /// Replaces every entry with `staged` (one change); `persisted` records
  /// that a file holds exactly these entries.
  void Install(Entries staged, bool persisted);
  std::string ToJsonLocked() const;
  void WriteFile(const std::string& path) const;  // save_mu_ held

  mutable std::mutex mu_;
  Entries entries_;
  // Change generation (guarded by mu_): every change to the entries bumps
  // generation_; saved_generation_ is the generation the last clean Load or
  // successful Save put on disk. They differ while no file holds the
  // current entries.
  std::uint64_t generation_ = 1;
  mutable std::uint64_t saved_generation_ = 0;
  // Serializes saves (taken before mu_, held across the file I/O).
  mutable std::mutex save_mu_;
};

}  // namespace xcv::cache
