#include "cache/verdict_cache.h"

#include <charconv>
#include <optional>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "support/check.h"
#include "support/json.h"

namespace xcv::cache {

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

// Process-wide resident-entry gauge, delta-updated at every change to the
// number of entries of every VerdictCache instance (a campaign's file-backed
// cache and the daemon's shared cache both report into it).
obs::Gauge& CacheEntriesGauge() {
  static obs::Gauge& g = obs::Registry::Global().GetGauge(
      "xcv_cache_store_entries",
      "Verdict-cache entries resident in this process (all caches).");
  return g;
}

constexpr support::DocumentKind kCacheDocument{"xcv-verdict-cache", 1,
                                               "entries", "cache"};

}  // namespace

VerdictCache::~VerdictCache() {
  CacheEntriesGauge().Add(-static_cast<double>(entries_.size()));
}

bool VerdictCache::Lookup(std::uint64_t scope, std::span<const Interval> box,
                          CachedVerdict* out) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = entries_.find(KeyView{scope, box});
  if (it == entries_.end()) return false;
  *out = it->second;
  return true;
}

void VerdictCache::Store(std::uint64_t scope, std::span<const Interval> box,
                         CachedVerdict verdict) {
  Key key{scope, {box.begin(), box.end()}};
  std::lock_guard<std::mutex> lock(mu_);
  ++generation_;
  // An existing entry is refreshed (e.g. after a rejected hit).
  if (entries_.insert_or_assign(std::move(key), std::move(verdict)).second)
    CacheEntriesGauge().Add(1.0);
}

bool VerdictCache::Erase(std::uint64_t scope, std::span<const Interval> box) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = entries_.find(KeyView{scope, box});
  if (it == entries_.end()) return false;
  entries_.erase(it);
  ++generation_;
  CacheEntriesGauge().Add(-1.0);
  return true;
}

void VerdictCache::ForEach(
    const std::function<void(std::uint64_t, std::span<const Interval>,
                             const CachedVerdict&)>& fn) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [key, verdict] : entries_)
    fn(key.first, key.second, verdict);
}

std::size_t VerdictCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

std::string VerdictCache::ToJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ToJsonLocked();
}

std::string VerdictCache::ToJsonLocked() const {
  // Key order → byte-identical files for equal caches (CI uploads the cache
  // as an artifact; stable bytes make diffs meaningful).
  std::string out = "{\n";
  out += "  \"format\": \"xcv-verdict-cache\",\n";
  out += "  \"version\": 1,\n";
  out += "  \"schema_version\": 1,\n";
  out += "  \"entries\": [";
  char buf[20];  // the longest uint64_t, 20 digits
  std::size_t i = 0;
  for (const auto& [key, verdict] : entries_) {
    if (i++) out += ',';
    out += "\n    {\"scope\": \"";
    json::AppendHex64(out, key.first);
    out += "\", \"box\": ";
    solver::AppendBoxJson(out, key.second);
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
  }
  if (i > 0) out += "\n  ";
  out += "]\n}\n";
  return out;
}

bool VerdictCache::FromJson(const std::string& json_text) {
  Entries staged;
  try {
    support::ParseDocument(json_text, kCacheDocument, Parsers(staged));
  } catch (const InternalError&) {
    Install({}, /*persisted=*/false);
    return false;
  }
  Install(std::move(staged), /*persisted=*/false);
  return true;
}

support::DocumentParsers VerdictCache::Parsers(Entries& staged) {
  // Each entry is read straight off the cursor, field by field. Unknown
  // fields are skipped and a repeated field keeps its first value, as
  // JsonValue::Find reads a parsed entry; a repeated (scope, box) keeps its
  // first entry. Files are written in key order, so each entry is inserted
  // at the end hint.
  static constexpr const char* kFields[] = {"scope", "box",   "kind",
                                            "nodes", "model", "model_box"};
  enum Field { kScope, kBox, kKind, kNodes, kModel, kModelBox, kNone };
  return {nullptr, [&staged, key = std::string(),
                    text = std::string()](json::Cursor& cursor) mutable {
            Key entry_key;
            CachedVerdict verdict;
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
                  entry_key.first = *scope;
                  break;
                }
                case kBox:
                  entry_key.second = solver::BoxFromJson(cursor);
                  break;
                case kKind:
                  cursor.String(&text);
                  verdict.kind = CachedKindFromToken(text);
                  break;
                case kNodes:
                  verdict.nodes = static_cast<std::uint64_t>(
                      json::CheckedInteger(cursor.Number(), 0,
                                           json::kMaxExactInteger, "nodes"));
                  break;
                case kModel:
                  verdict.model = solver::PointFromJson(cursor);
                  break;
                case kModelBox:
                  verdict.model_box = solver::BoxFromJson(cursor);
                  break;
              }
            }
            for (int field : {kScope, kBox, kKind, kNodes})
              XCV_CHECK_MSG(seen[field], "JSON document missing key '"
                                             << kFields[field] << "'");
            staged.emplace_hint(staged.end(), std::move(entry_key),
                                std::move(verdict));
          }};
}

void VerdictCache::Install(Entries staged, bool persisted) {
  std::lock_guard<std::mutex> lock(mu_);
  CacheEntriesGauge().Add(static_cast<double>(staged.size()) -
                          static_cast<double>(entries_.size()));
  entries_ = std::move(staged);
  ++generation_;
  if (persisted) saved_generation_ = generation_;
}

bool VerdictCache::Load(const std::string& path,
                        support::LoadOutcome* outcome) {
  obs::Span span("cache-load");
  Entries staged;
  const support::LoadOutcome load =
      support::RecoverDocument(path, kCacheDocument, Parsers(staged));
  const std::size_t count = staged.size();
  // Every outcome but a clean load leaves the cache changed relative to the
  // file (cold, or a salvaged prefix), so the next SaveIfChanged rewrites
  // it.
  Install(std::move(staged), /*persisted=*/load.clean);
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
    entries = entries_.size();
  }
  // Deterministic args only: fixed-clock traces stay byte-identical.
  span.Arg("entries", static_cast<std::uint64_t>(entries));
  span.Arg("bytes", static_cast<std::uint64_t>(support::SaveDocument(
                        path, kCacheDocument, std::move(json))));
  std::lock_guard<std::mutex> lock(mu_);
  saved_generation_ = generation;
}

}  // namespace xcv::cache
