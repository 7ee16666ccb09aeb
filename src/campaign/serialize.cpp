#include "campaign/serialize.h"

#include <cstdint>
#include <limits>
#include <string>
#include <utility>

#include "solver/box.h"
#include "support/check.h"
#include "support/json.h"

namespace xcv::campaign {

using json::JsonDouble;
using json::JsonEscape;
using json::JsonValue;
using verifier::FrontierStrategy;
using verifier::Region;
using verifier::RegionStatus;
using verifier::VerificationReport;
using verifier::Verdict;

// ---- Tokens -----------------------------------------------------------------

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

constexpr support::DocumentKind kCheckpointDocument{
    "xcv-campaign-checkpoint", 1, "pairs", "checkpoint"};

// ---- Writer -----------------------------------------------------------------

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
    solver::AppendBoxJson(out, r.box.dims());
    out += ", \"status\": \"" + StatusToken(r.status) + "\"";
    if (!r.witness.empty()) {
      out += ", \"witness\": ";
      solver::AppendPointJson(out, r.witness);
    }
    out += '}';
  }
  if (!report.leaves.empty()) out += "\n" + indent + "  ";
  out += "],\n" + indent + "  \"witnesses\": [";
  for (std::size_t i = 0; i < report.witnesses.size(); ++i) {
    if (i) out += ',';
    out += "\n" + indent + "    ";
    solver::AppendPointJson(out, report.witnesses[i]);
  }
  if (!report.witnesses.empty()) out += "\n" + indent + "  ";
  out += "]\n" + indent + "}";
}

// ---- Reader -----------------------------------------------------------------

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
    r.box = solver::Box(solver::BoxFromJson(leaf.At("box")));
    r.status = StatusFromToken(leaf.At("status").AsString());
    if (const JsonValue* w = leaf.Find("witness"))
      r.witness = solver::PointFromJson(*w);
    report.leaves.push_back(std::move(r));
  }
  for (const JsonValue& w : v.At("witnesses").array)
    report.witnesses.push_back(solver::PointFromJson(w));
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
    p.open.push_back(solver::Box(solver::BoxFromJson(b)));
  return p;
}

void HeaderFromJson(const JsonValue& root, Checkpoint& cp) {
  cp.cancelled = root.At("cancelled").AsBool();
  const JsonValue& o = root.At("options");
  verifier::VerifierOptions& v = cp.options.verifier;
  v.num_threads = CheckpointInt(o.At("num_threads"), 1, verifier::kMaxThreads,
                                "num_threads");
  cp.options.tune_lda_delta = o.At("tune_lda_delta").AsBool();
  v.split_threshold = o.At("split_threshold").AsDouble();
  v.total_time_budget_seconds = o.At("total_time_budget_seconds").AsDouble();
  v.split_all_dims = o.At("split_all_dims").AsBool();
  v.witness_tolerance = o.At("witness_tolerance").AsDouble();
  v.frontier = FrontierFromToken(o.At("frontier").AsString());
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
}

// The checkpoint's parsers for support/document.h, filling `cp`.
support::DocumentParsers CheckpointParsers(Checkpoint& cp) {
  return {[&cp](const JsonValue& root) { HeaderFromJson(root, cp); },
          [&cp](json::Cursor& pair) {
            cp.pairs.push_back(PairStateFromJson(pair.Value()));
          }};
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
  out += "    \"num_threads\": " + std::to_string(v.num_threads) + ",\n";
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
      solver::AppendBoxJson(out, p.open[b].dims());
    }
    if (!p.open.empty()) out += "\n      ";
    out += "]\n    }";
  }
  if (!pairs.empty()) out += "\n  ";
  out += "]\n}\n";
  return out;
}

Checkpoint CheckpointFromJson(const std::string& json_text) {
  Checkpoint cp;
  support::ParseDocument(json_text, kCheckpointDocument, CheckpointParsers(cp));
  return cp;
}

void WriteCheckpointFile(const std::string& path,
                         const CampaignOptions& options,
                         const std::vector<PairState>& pairs,
                         bool cancelled) {
  // The checksum is added at the file level, not in CheckpointToJson, so
  // the in-memory document stays byte-identical to what the merge and
  // round-trip tests compare.
  support::SaveDocument(path, kCheckpointDocument,
                        CheckpointToJson(options, pairs, cancelled));
}

Checkpoint LoadCheckpointFile(const std::string& path) {
  Checkpoint cp;
  support::ReadDocument(path, kCheckpointDocument, CheckpointParsers(cp));
  return cp;
}

Checkpoint LoadCheckpointFileTolerant(const std::string& path,
                                      support::LoadOutcome* outcome) {
  Checkpoint cp;
  *outcome = support::RecoverDocument(path, kCheckpointDocument,
                                     CheckpointParsers(cp));
  if (outcome->cold) return {};
  return cp;
}

}  // namespace xcv::campaign
