#include "cache/verdict_cache.h"

#include <algorithm>
#include <bit>
#include <charconv>
#include <optional>
#include <utility>

#include "expr/optimize.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "solver/box.h"
#include "support/check.h"
#include "support/json.h"

namespace xcv::cache {

using expr::FnvMix;

std::string CachedKindToken(CachedKind kind) {
  switch (kind) {
    case CachedKind::kUnsat: return "unsat";
    case CachedKind::kDeltaSat: return "delta_sat";
    case CachedKind::kTimeout: return "timeout";
  }
  return "unsat";
}

CachedKind CachedKindFromToken(const std::string& token) {
  if (token == "unsat") return CachedKind::kUnsat;
  if (token == "delta_sat") return CachedKind::kDeltaSat;
  if (token == "timeout") return CachedKind::kTimeout;
  XCV_CHECK_MSG(false, "unknown cached verdict kind '" << token << "'");
  return CachedKind::kUnsat;
}

namespace {

// Process-wide resident-entry gauge, delta-updated at every count_
// mutation across every VerdictCache instance (a campaign's file-backed
// cache and the daemon's shared cache both report into it).
obs::Gauge& CacheEntriesGauge() {
  static obs::Gauge& g = obs::Registry::Global().GetGauge(
      "xcv_cache_store_entries",
      "Verdict-cache entries resident in this process (all caches).");
  return g;
}

// Endpoint identity is bit-pattern identity: -0.0 and 0.0 are different
// keys, exactly as the solver's splitting arithmetic produces them. The
// comparisons live in solver/box.h (shared with the shard merge).
using solver::BoxBitsLess;
using solver::SameBoxBits;

constexpr support::DocumentKind kCacheDocument{"xcv-verdict-cache", 1,
                                               "entries", "cache"};

}  // namespace

std::uint64_t VerdictCache::MapKey(std::uint64_t scope,
                                   std::span<const Interval> box) {
  std::uint64_t h = expr::kFnvOffset;
  h = FnvMix(h, scope);
  h = FnvMix(h, box.size());
  for (const Interval& iv : box) {
    h = FnvMix(h, std::bit_cast<std::uint64_t>(iv.lo()));
    h = FnvMix(h, std::bit_cast<std::uint64_t>(iv.hi()));
  }
  return h;
}

VerdictCache::~VerdictCache() {
  CacheEntriesGauge().Add(-static_cast<double>(count_));
}

bool VerdictCache::Lookup(std::uint64_t scope, std::span<const Interval> box,
                          CachedVerdict* out) const {
  const std::uint64_t key = MapKey(scope, box);
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = entries_.find(key);
  if (it != entries_.end()) {
    for (const Entry& e : it->second) {
      if (e.scope == scope && SameBoxBits(e.box, box)) {
        *out = e.verdict;
        return true;
      }
    }
  }
  return false;
}

void VerdictCache::Store(std::uint64_t scope, std::span<const Interval> box,
                         CachedVerdict verdict) {
  const std::uint64_t key = MapKey(scope, box);
  std::lock_guard<std::mutex> lock(mu_);
  ++generation_;
  std::vector<Entry>& bucket = entries_[key];
  for (Entry& e : bucket) {
    if (e.scope == scope && SameBoxBits(e.box, box)) {
      e.verdict = std::move(verdict);  // refresh (e.g. after a rejected hit)
      return;
    }
  }
  Entry entry;
  entry.scope = scope;
  entry.box.assign(box.begin(), box.end());
  entry.verdict = std::move(verdict);
  bucket.push_back(std::move(entry));
  ++count_;
  CacheEntriesGauge().Add(1.0);
}

bool VerdictCache::Erase(std::uint64_t scope, std::span<const Interval> box) {
  const std::uint64_t key = MapKey(scope, box);
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = entries_.find(key);
  if (it == entries_.end()) return false;
  std::vector<Entry>& bucket = it->second;
  for (std::size_t i = 0; i < bucket.size(); ++i) {
    if (bucket[i].scope == scope && SameBoxBits(bucket[i].box, box)) {
      bucket.erase(bucket.begin() + static_cast<std::ptrdiff_t>(i));
      if (bucket.empty()) entries_.erase(it);
      --count_;
      ++generation_;
      CacheEntriesGauge().Add(-1.0);
      return true;
    }
  }
  return false;
}

void VerdictCache::ForEach(
    const std::function<void(std::uint64_t, std::span<const Interval>,
                             const CachedVerdict&)>& fn) const {
  std::lock_guard<std::mutex> lock(mu_);
  ForEachLocked(fn);
}

void VerdictCache::ForEachLocked(
    const std::function<void(std::uint64_t, std::span<const Interval>,
                             const CachedVerdict&)>& fn) const {
  std::vector<const Entry*> sorted;
  sorted.reserve(count_);
  for (const auto& [key, bucket] : entries_)
    for (const Entry& e : bucket) sorted.push_back(&e);
  std::sort(sorted.begin(), sorted.end(), [](const Entry* a, const Entry* b) {
    if (a->scope != b->scope) return a->scope < b->scope;
    return BoxBitsLess(a->box, b->box);
  });
  for (const Entry* e : sorted) fn(e->scope, e->box, e->verdict);
}

std::size_t VerdictCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return count_;
}

std::string VerdictCache::ToJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ToJsonLocked();
}

std::string VerdictCache::ToJsonLocked() const {
  // Canonical entry order (the ForEach order) → byte-identical files for
  // equal caches (CI uploads the cache as an artifact; stable bytes make
  // diffs meaningful).
  std::string out = "{\n";
  out += "  \"format\": \"xcv-verdict-cache\",\n";
  out += "  \"version\": 1,\n";
  out += "  \"schema_version\": 1,\n";
  out += "  \"entries\": [";
  char buf[20];  // the longest uint64_t, 20 digits
  std::size_t i = 0;
  ForEachLocked([&](std::uint64_t scope, std::span<const Interval> box,
                    const CachedVerdict& verdict) {
    if (i++) out += ',';
    out += "\n    {\"scope\": \"";
    json::AppendHex64(out, scope);
    out += "\", \"box\": ";
    solver::AppendBoxJson(out, box);
    out += ", \"kind\": \"";
    out += CachedKindToken(verdict.kind);
    out += "\", \"nodes\": ";
    out.append(buf, std::to_chars(buf, buf + sizeof(buf), verdict.nodes).ptr);
    if (!verdict.model.empty()) {
      out += ", \"model\": ";
      solver::AppendPointJson(out, verdict.model);
    }
    if (!verdict.model_box.empty()) {
      out += ", \"model_box\": ";
      solver::AppendBoxJson(out, verdict.model_box);
    }
    out += '}';
  });
  if (i > 0) out += "\n  ";
  out += "]\n}\n";
  return out;
}

bool VerdictCache::FromJson(const std::string& json_text) {
  Buckets staged;
  std::size_t count = 0;
  try {
    support::ParseDocument(json_text, kCacheDocument, Parsers(staged, count));
  } catch (const InternalError&) {
    Install({}, 0, /*persisted=*/false);
    return false;
  }
  Install(std::move(staged), count, /*persisted=*/false);
  return true;
}

support::DocumentParsers VerdictCache::Parsers(Buckets& staged,
                                               std::size_t& count) {
  // Each entry is read straight off the cursor, field by field. Unknown
  // keys are skipped and a repeated key keeps its first value, as
  // JsonValue::Find reads a parsed entry.
  static constexpr const char* kFields[] = {"scope", "box",   "kind",
                                            "nodes", "model", "model_box"};
  enum Field { kScope, kBox, kKind, kNodes, kModel, kModelBox, kNone };
  return {nullptr, [&staged, &count, key = std::string(),
                    text = std::string()](json::Cursor& cursor) mutable {
            Entry e;
            bool seen[kNone] = {};
            cursor.BeginObject();
            while (cursor.NextKey(&key)) {
              int field = 0;
              while (field < kNone && key != kFields[field]) ++field;
              if (field == kNone || seen[field]) {
                cursor.Skip();
                continue;
              }
              seen[field] = true;
              switch (field) {
                case kScope: {
                  cursor.String(&text);
                  const std::optional<std::uint64_t> scope = json::Hex64(text);
                  XCV_CHECK_MSG(scope.has_value(),
                                "bad cache scope '" << text << "'");
                  e.scope = *scope;
                  break;
                }
                case kBox: e.box = solver::BoxFromJson(cursor); break;
                case kKind:
                  cursor.String(&text);
                  e.verdict.kind = CachedKindFromToken(text);
                  break;
                case kNodes:
                  e.verdict.nodes = static_cast<std::uint64_t>(
                      json::CheckedInteger(cursor.Number(), 0,
                                           json::kMaxExactInteger, "nodes"));
                  break;
                case kModel:
                  e.verdict.model = solver::PointFromJson(cursor);
                  break;
                case kModelBox:
                  e.verdict.model_box = solver::BoxFromJson(cursor);
                  break;
              }
            }
            for (int field : {kScope, kBox, kKind, kNodes})
              XCV_CHECK_MSG(seen[field], "JSON document missing key '"
                                             << kFields[field] << "'");
            staged[MapKey(e.scope, e.box)].push_back(std::move(e));
            ++count;
          }};
}

void VerdictCache::Install(Buckets staged, std::size_t count, bool persisted) {
  std::lock_guard<std::mutex> lock(mu_);
  CacheEntriesGauge().Add(static_cast<double>(count) -
                          static_cast<double>(count_));
  entries_ = std::move(staged);
  count_ = count;
  ++generation_;
  if (persisted) saved_generation_ = generation_;
}

bool VerdictCache::Load(const std::string& path,
                        support::LoadOutcome* outcome) {
  obs::Span span("cache-load");
  Buckets staged;
  std::size_t count = 0;
  const support::LoadOutcome load =
      support::RecoverDocument(path, kCacheDocument, Parsers(staged, count));
  // Every outcome but a clean load leaves the cache changed relative to the
  // file (cold, or a salvaged prefix), so the next SaveIfChanged rewrites
  // it.
  Install(std::move(staged), count, /*persisted=*/load.clean);
  // Deterministic args only, as cache-save's.
  span.Arg("entries", static_cast<std::uint64_t>(count));
  span.Arg("bytes", static_cast<std::uint64_t>(load.bytes));
  span.Arg("outcome", std::uint64_t{load.clean ? 0u : load.salvaged ? 1u : 2u});
  if (outcome != nullptr) *outcome = load;
  return load.clean || count > 0;
}

void VerdictCache::Save(const std::string& path) const {
  std::lock_guard<std::mutex> save_lock(save_mu_);
  WriteFile(path);
}

bool VerdictCache::SaveIfChanged(const std::string& path) const {
  std::lock_guard<std::mutex> save_lock(save_mu_);
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (generation_ == saved_generation_) return false;
  }
  WriteFile(path);
  return true;
}

void VerdictCache::WriteFile(const std::string& path) const {
  obs::Span span("cache-save");
  // The snapshot and the generation it holds are read in one mu_ section,
  // so a Store racing this save keeps the cache changed. The checksum is
  // added at the file level (SaveDocument), not in ToJson, so the in-memory
  // document stays byte-identical to what the merge and round-trip tests
  // compare.
  std::string json;
  std::uint64_t generation = 0;
  std::size_t entries = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    json = ToJsonLocked();
    generation = generation_;
    entries = count_;
  }
  // Deterministic args only: fixed-clock traces stay byte-identical.
  span.Arg("entries", static_cast<std::uint64_t>(entries));
  span.Arg("bytes", static_cast<std::uint64_t>(support::SaveDocument(
                        path, kCacheDocument, std::move(json))));
  std::lock_guard<std::mutex> lock(mu_);
  saved_generation_ = generation;
}

}  // namespace xcv::cache
