#include "campaign/serialize.h"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>
#include <utility>

#include "support/check.h"
#include "support/io.h"
#include "support/json.h"

namespace xcv::campaign {

using json::JsonValue;
using verifier::FrontierStrategy;
using verifier::Region;
using verifier::RegionStatus;
using verifier::VerificationReport;
using verifier::Verdict;

// ---- Tokens -----------------------------------------------------------------

// The %.17g/non-finite conventions live in support/json (shared with the
// verdict cache); these aliases keep the historical serialize.h API.
std::string JsonDouble(double v) { return json::JsonDouble(v); }
std::string JsonEscape(const std::string& s) { return json::JsonEscape(s); }

std::string VerdictToken(Verdict verdict) {
  switch (verdict) {
    case Verdict::kVerified: return "verified";
    case Verdict::kVerifiedPartial: return "verified_partial";
    case Verdict::kUnknown: return "unknown";
    case Verdict::kCounterexample: return "counterexample";
    case Verdict::kNotApplicable: return "not_applicable";
  }
  return "unknown";
}

Verdict VerdictFromToken(const std::string& token) {
  if (token == "verified") return Verdict::kVerified;
  if (token == "verified_partial") return Verdict::kVerifiedPartial;
  if (token == "unknown") return Verdict::kUnknown;
  if (token == "counterexample") return Verdict::kCounterexample;
  if (token == "not_applicable") return Verdict::kNotApplicable;
  XCV_CHECK_MSG(false, "unknown verdict token '" << token << "'");
  return Verdict::kUnknown;
}

std::string FrontierToken(FrontierStrategy strategy) {
  switch (strategy) {
    case FrontierStrategy::kWidestFirst: return "widest";
    case FrontierStrategy::kSuspectFirst: return "suspect";
    case FrontierStrategy::kFifo: return "fifo";
  }
  return "widest";
}

FrontierStrategy FrontierFromToken(const std::string& token) {
  if (token == "widest") return FrontierStrategy::kWidestFirst;
  if (token == "suspect") return FrontierStrategy::kSuspectFirst;
  if (token == "fifo") return FrontierStrategy::kFifo;
  XCV_CHECK_MSG(false, "unknown frontier token '" << token << "'");
  return FrontierStrategy::kWidestFirst;
}

namespace {

std::string StatusToken(RegionStatus status) {
  return RegionStatusName(status);  // "verified" etc.
}

RegionStatus StatusFromToken(const std::string& token) {
  if (token == "verified") return RegionStatus::kVerified;
  if (token == "counterexample") return RegionStatus::kCounterexample;
  if (token == "inconclusive") return RegionStatus::kInconclusive;
  if (token == "timeout") return RegionStatus::kTimeout;
  XCV_CHECK_MSG(false, "unknown region status '" << token << "'");
  return RegionStatus::kTimeout;
}

// ---- Writer -----------------------------------------------------------------

void AppendPoint(std::string& out, const std::vector<double>& p) {
  out += '[';
  for (std::size_t i = 0; i < p.size(); ++i) {
    if (i) out += ',';
    out += JsonDouble(p[i]);
  }
  out += ']';
}

void AppendBox(std::string& out, const solver::Box& box) {
  out += '[';
  for (std::size_t i = 0; i < box.size(); ++i) {
    if (i) out += ',';
    out += '[';
    out += JsonDouble(box[i].lo());
    out += ',';
    out += JsonDouble(box[i].hi());
    out += ']';
  }
  out += ']';
}

void AppendReport(std::string& out, const VerificationReport& report,
                  const std::string& indent) {
  out += "{\n";
  out += indent + "  \"solver_calls\": " + std::to_string(report.solver_calls);
  out += ",\n" + indent +
         "  \"solver_timeouts\": " + std::to_string(report.solver_timeouts);
  out += ",\n" + indent +
         "  \"cache_hits\": " + std::to_string(report.cache_hits);
  out += ",\n" + indent +
         "  \"cache_misses\": " + std::to_string(report.cache_misses);
  out += ",\n" + indent +
         "  \"cache_rejected\": " + std::to_string(report.cache_rejected);
  out += ",\n" + indent + "  \"seconds\": " + JsonDouble(report.seconds);
  out += ",\n" + indent + "  \"leaves\": [";
  for (std::size_t i = 0; i < report.leaves.size(); ++i) {
    const Region& r = report.leaves[i];
    if (i) out += ',';
    out += "\n" + indent + "    {\"box\": ";
    AppendBox(out, r.box);
    out += ", \"status\": \"" + StatusToken(r.status) + "\"";
    if (!r.witness.empty()) {
      out += ", \"witness\": ";
      AppendPoint(out, r.witness);
    }
    out += '}';
  }
  if (!report.leaves.empty()) out += "\n" + indent + "  ";
  out += "],\n" + indent + "  \"witnesses\": [";
  for (std::size_t i = 0; i < report.witnesses.size(); ++i) {
    if (i) out += ',';
    out += "\n" + indent + "    ";
    AppendPoint(out, report.witnesses[i]);
  }
  if (!report.witnesses.empty()) out += "\n" + indent + "  ";
  out += "]\n" + indent + "}";
}

// ---- Reader -----------------------------------------------------------------

solver::Box BoxFromJson(const JsonValue& v) {
  std::vector<Interval> dims;
  dims.reserve(v.array.size());
  for (const JsonValue& d : v.array) {
    XCV_CHECK_MSG(d.array.size() == 2, "box dimension needs [lo, hi]");
    dims.emplace_back(d.array[0].AsDouble(), d.array[1].AsDouble());
  }
  return solver::Box(std::move(dims));
}

std::vector<double> PointFromJson(const JsonValue& v) {
  std::vector<double> p;
  p.reserve(v.array.size());
  for (const JsonValue& c : v.array) p.push_back(c.AsDouble());
  return p;
}

// Integer fields of a checkpoint document, checked before they are
// narrowed (the document may be hostile or corrupt).
constexpr std::int64_t kIntMax = std::numeric_limits<int>::max();

std::uint64_t CheckpointCount(const JsonValue& x, const char* name) {
  return static_cast<std::uint64_t>(json::CheckedInteger(
      x.AsDouble(), 0, json::kMaxExactInteger,
      std::string("checkpoint: ") + name));
}

int CheckpointInt(const JsonValue& x, std::int64_t lo, std::int64_t hi,
                  const char* name) {
  return static_cast<int>(json::CheckedInteger(
      x.AsDouble(), lo, hi, std::string("checkpoint: ") + name));
}

VerificationReport ReportFromJson(const JsonValue& v) {
  VerificationReport report;
  report.solver_calls = CheckpointCount(v.At("solver_calls"), "solver_calls");
  report.solver_timeouts =
      CheckpointCount(v.At("solver_timeouts"), "solver_timeouts");
  // Cache counters postdate checkpoint version 1; absent in older files.
  if (const JsonValue* c = v.Find("cache_hits"))
    report.cache_hits = CheckpointCount(*c, "cache_hits");
  if (const JsonValue* c = v.Find("cache_misses"))
    report.cache_misses = CheckpointCount(*c, "cache_misses");
  if (const JsonValue* c = v.Find("cache_rejected"))
    report.cache_rejected = CheckpointCount(*c, "cache_rejected");
  report.seconds = v.At("seconds").AsDouble();
  for (const JsonValue& leaf : v.At("leaves").array) {
    Region r;
    r.box = BoxFromJson(leaf.At("box"));
    r.status = StatusFromToken(leaf.At("status").AsString());
    if (const JsonValue* w = leaf.Find("witness")) r.witness = PointFromJson(*w);
    report.leaves.push_back(std::move(r));
  }
  for (const JsonValue& w : v.At("witnesses").array)
    report.witnesses.push_back(PointFromJson(w));
  return report;
}

PairState PairStateFromJson(const JsonValue& pv) {
  PairState p;
  p.functional = pv.At("functional").AsString();
  p.condition = pv.At("condition").AsString();
  p.applicable = pv.At("applicable").AsBool();
  p.done = pv.At("done").AsBool();
  p.verdict = VerdictFromToken(pv.At("verdict").AsString());
  if (const JsonValue* oi = pv.Find("origin_index"))
    p.origin_index = CheckpointInt(*oi, 0, kIntMax, "origin_index");
  p.seconds = pv.At("seconds").AsDouble();
  p.report = ReportFromJson(pv.At("report"));
  for (const JsonValue& b : pv.At("open").array)
    p.open.push_back(BoxFromJson(b));
  return p;
}

}  // namespace

// ---- Checkpoint documents ---------------------------------------------------

std::string CheckpointToJson(const CampaignOptions& options,
                             const std::vector<PairState>& pairs,
                             bool cancelled) {
  const verifier::VerifierOptions& v = options.verifier;
  std::string out = "{\n";
  out += "  \"format\": \"xcv-campaign-checkpoint\",\n";
  out += "  \"version\": 1,\n";
  out += "  \"schema_version\": 1,\n";
  out += std::string("  \"cancelled\": ") + (cancelled ? "true" : "false") +
         ",\n";
  out += "  \"options\": {\n";
  out += "    \"num_threads\": " + std::to_string(options.num_threads) + ",\n";
  out += std::string("    \"tune_lda_delta\": ") +
         (options.tune_lda_delta ? "true" : "false") + ",\n";
  out += "    \"split_threshold\": " + JsonDouble(v.split_threshold) + ",\n";
  out += "    \"total_time_budget_seconds\": " +
         JsonDouble(v.total_time_budget_seconds) + ",\n";
  out += std::string("    \"split_all_dims\": ") +
         (v.split_all_dims ? "true" : "false") + ",\n";
  out += "    \"witness_tolerance\": " + JsonDouble(v.witness_tolerance) +
         ",\n";
  out += "    \"frontier\": \"" + FrontierToken(v.frontier) + "\",\n";
  // Shard provenance postdates checkpoint version 1; unsharded campaigns
  // (count == 1) omit the block entirely so their documents stay
  // byte-identical to pre-shard writers.
  if (options.shard.count > 1) {
    out += "    \"shard\": {\"index\": " +
           std::to_string(options.shard.index) +
           ", \"count\": " + std::to_string(options.shard.count) +
           ", \"by\": \"" + options.shard.by + "\"},\n";
  }
  out += "    \"solver\": {\n";
  out += "      \"delta\": " + JsonDouble(v.solver.delta) + ",\n";
  out += "      \"max_nodes\": " + std::to_string(v.solver.max_nodes) + ",\n";
  out += "      \"time_budget_seconds\": " +
         JsonDouble(v.solver.time_budget_seconds) + ",\n";
  out += "      \"contraction_rounds\": " +
         std::to_string(v.solver.contraction_rounds) + ",\n";
  out += "      \"max_invalid_models\": " +
         std::to_string(v.solver.max_invalid_models) + ",\n";
  out += "      \"presample_points\": " +
         std::to_string(v.solver.presample_points) + ",\n";
  out += "      \"wave_width\": " + std::to_string(v.solver.wave_width) +
         "\n";
  out += "    }\n";
  out += "  },\n";
  out += "  \"pairs\": [";
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    const PairState& p = pairs[i];
    if (i) out += ',';
    out += "\n    {\n";
    out += "      \"functional\": " + JsonEscape(p.functional) + ",\n";
    out += "      \"condition\": " + JsonEscape(p.condition) + ",\n";
    out += std::string("      \"applicable\": ") +
           (p.applicable ? "true" : "false") + ",\n";
    out += std::string("      \"done\": ") + (p.done ? "true" : "false") +
           ",\n";
    out += "      \"verdict\": \"" + VerdictToken(p.verdict) + "\",\n";
    if (p.origin_index >= 0)
      out += "      \"origin_index\": " + std::to_string(p.origin_index) +
             ",\n";
    out += "      \"seconds\": " + JsonDouble(p.seconds) + ",\n";
    out += "      \"report\": ";
    AppendReport(out, p.report, "      ");
    out += ",\n      \"open\": [";
    for (std::size_t b = 0; b < p.open.size(); ++b) {
      if (b) out += ',';
      out += "\n        ";
      AppendBox(out, p.open[b]);
    }
    if (!p.open.empty()) out += "\n      ";
    out += "]\n    }";
  }
  if (!pairs.empty()) out += "\n  ";
  out += "]\n}\n";
  return out;
}

Checkpoint CheckpointFromJson(const std::string& json_text) {
  const JsonValue root = json::ParseJson(json_text);
  XCV_CHECK_MSG(root.At("format").AsString() == "xcv-campaign-checkpoint",
                "not an xcv campaign checkpoint");
  json::RequireSupportedSchema(root, "xcv-campaign-checkpoint", 1);

  Checkpoint cp;
  cp.cancelled = root.At("cancelled").AsBool();

  const JsonValue& o = root.At("options");
  cp.options.num_threads =
      CheckpointInt(o.At("num_threads"), 1, kIntMax, "num_threads");
  cp.options.tune_lda_delta = o.At("tune_lda_delta").AsBool();
  verifier::VerifierOptions& v = cp.options.verifier;
  v.split_threshold = o.At("split_threshold").AsDouble();
  v.total_time_budget_seconds = o.At("total_time_budget_seconds").AsDouble();
  v.split_all_dims = o.At("split_all_dims").AsBool();
  v.witness_tolerance = o.At("witness_tolerance").AsDouble();
  v.frontier = FrontierFromToken(o.At("frontier").AsString());
  v.num_threads = std::max(1, cp.options.num_threads);
  // Shard provenance is optional (absent = unsharded checkpoint).
  if (const JsonValue* sh = o.Find("shard")) {
    cp.options.shard.index =
        CheckpointInt(sh->At("index"), 0, kIntMax, "shard index");
    cp.options.shard.count =
        CheckpointInt(sh->At("count"), 1, kIntMax, "shard count");
    cp.options.shard.by = sh->At("by").AsString();
  }
  const JsonValue& s = o.At("solver");
  v.solver.delta = s.At("delta").AsDouble();
  v.solver.max_nodes = CheckpointCount(s.At("max_nodes"), "max_nodes");
  XCV_CHECK_MSG(v.solver.max_nodes >= 1,
                "checkpoint: max_nodes must be at least 1");
  v.solver.time_budget_seconds = s.At("time_budget_seconds").AsDouble();
  v.solver.contraction_rounds = CheckpointInt(
      s.At("contraction_rounds"), 0, kIntMax, "contraction_rounds");
  v.solver.max_invalid_models = CheckpointInt(
      s.At("max_invalid_models"), 0, kIntMax, "max_invalid_models");
  v.solver.presample_points = CheckpointInt(s.At("presample_points"), 0,
                                            kIntMax, "presample_points");
  // Added after checkpoint version 1 shipped; absent in older checkpoints
  // (and irrelevant to results — the wave width never changes verdicts).
  if (const JsonValue* w = s.Find("wave_width"))
    v.solver.wave_width =
        CheckpointInt(*w, 1, solver::kMaxWaveWidth, "wave_width");

  for (const JsonValue& pv : root.At("pairs").array)
    cp.pairs.push_back(PairStateFromJson(pv));
  return cp;
}

void WriteCheckpointFile(const std::string& path,
                         const CampaignOptions& options,
                         const std::vector<PairState>& pairs,
                         bool cancelled) {
  // The checksum is added at the file level, not in CheckpointToJson, so
  // the in-memory document stays byte-identical to what the merge and
  // round-trip tests compare.
  support::AtomicWriteFile(
      path, support::AddDocumentChecksum(CheckpointToJson(options, pairs,
                                                          cancelled)),
      "checkpoint.save");
}

Checkpoint LoadCheckpointFile(const std::string& path) {
  std::string text;
  XCV_CHECK_MSG(support::ReadFileToString(path, &text, "checkpoint.load"),
                "cannot read checkpoint '" << path << "'");
  XCV_CHECK_MSG(
      support::VerifyDocumentChecksum(text) !=
          support::ChecksumStatus::kMismatch,
      "checkpoint '" << path << "' failed its checksum (corrupt file)");
  return CheckpointFromJson(text);
}

CheckpointLoadResult LoadCheckpointFileTolerant(const std::string& path) {
  CheckpointLoadResult result;
  std::string text;
  if (!support::ReadFileToString(path, &text, "checkpoint.load")) {
    result.cold = true;
    result.detail = "cannot read '" + path + "'";
    return result;
  }
  const support::ChecksumStatus checksum =
      support::VerifyDocumentChecksum(text);

  // First try the strict path: a document that parses whole and whose
  // checksum agrees (or is absent — legacy writer) is clean.
  bool parses = true;
  try {
    result.checkpoint = CheckpointFromJson(text);
  } catch (const InternalError&) {
    parses = false;
    result.checkpoint = Checkpoint{};
  }
  if (parses) {
    if (checksum != support::ChecksumStatus::kMismatch) {
      result.clean = true;
      result.pairs_recovered = result.checkpoint.pairs.size();
      return result;
    }
    // Parses but hashes wrong: bytes changed in place. A torn tail cannot
    // produce this (it fails to parse), so no individual pair can be
    // trusted either — cold start, keep the evidence.
    result.cold = true;
    result.checkpoint = Checkpoint{};
    result.quarantine_path = support::QuarantineFile(path, text);
    result.detail = "checksum mismatch in '" + path +
                    "' (content corruption); starting cold";
    return result;
  }

  // Torn document: recover the options header plus the longest prefix of
  // complete pair objects. The writer emits "pairs" last, so a truncated
  // file keeps an intact header; each pair object is carved out with the
  // balanced-bracket scanner and must parse on its own to count.
  constexpr const char kPairsMarker[] = "\"pairs\": [";
  const std::size_t marker = text.find(kPairsMarker);
  if (marker == std::string::npos) {
    result.cold = true;
    result.quarantine_path = support::QuarantineFile(path, text);
    result.detail = "checkpoint '" + path +
                    "' is damaged before its pairs array; starting cold";
    return result;
  }
  const std::size_t pairs_open = marker + sizeof(kPairsMarker) - 2;
  try {
    const std::string header =
        text.substr(0, pairs_open + 1) + "]\n}\n";
    result.checkpoint = CheckpointFromJson(header);
  } catch (const InternalError&) {
    result.cold = true;
    result.checkpoint = Checkpoint{};
    result.quarantine_path = support::QuarantineFile(path, text);
    result.detail = "checkpoint '" + path +
                    "' has a damaged options header; starting cold";
    return result;
  }

  std::size_t pos = pairs_open + 1;
  for (;;) {
    while (pos < text.size() &&
           (text[pos] == ',' || text[pos] == '\n' || text[pos] == ' ' ||
            text[pos] == '\t' || text[pos] == '\r'))
      ++pos;
    if (pos >= text.size() || text[pos] != '{') break;
    const std::size_t end = json::SkipBalanced(text, pos);
    if (end == std::string::npos) break;  // the torn tail
    try {
      const JsonValue pv = json::ParseJson(text.substr(pos, end - pos));
      result.checkpoint.pairs.push_back(PairStateFromJson(pv));
    } catch (const InternalError&) {
      break;  // complete braces but damaged content: stop at the prefix
    }
    pos = end;
  }
  result.salvaged = true;
  result.pairs_recovered = result.checkpoint.pairs.size();
  result.quarantine_path = support::QuarantineFile(path, text);
  result.detail = "salvaged " + std::to_string(result.pairs_recovered) +
                  " intact pair(s) from torn checkpoint '" + path + "'";
  return result;
}

}  // namespace xcv::campaign
