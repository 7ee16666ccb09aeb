#include "api/job_spec.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <optional>

#include "campaign/serialize.h"
#include "support/check.h"
#include "support/strings.h"

namespace xcv::api {

using campaign::CampaignOptions;
using conditions::ConditionInfo;
using functionals::Functional;
using json::JsonValue;

// ---- Output mode ------------------------------------------------------------

std::string OutputModeToken(OutputMode mode) {
  switch (mode) {
    case OutputMode::kTable: return "table";
    case OutputMode::kJson: return "json";
    case OutputMode::kCsv: return "csv";
  }
  return "table";
}

OutputMode OutputModeFromToken(const std::string& token) {
  if (token == "table") return OutputMode::kTable;
  if (token == "json") return OutputMode::kJson;
  if (token == "csv") return OutputMode::kCsv;
  XCV_CHECK_MSG(false, "unknown output mode '" << token
                                               << "' (table | json | csv)");
  return OutputMode::kTable;
}

bool IsMachineOutput(OutputMode mode) { return mode != OutputMode::kTable; }

OutputPolicy ResolveOutput(OutputMode mode, bool quiet,
                           bool heartbeat_stream) {
  OutputPolicy policy;
  policy.mode = mode;
  policy.stream_markers = heartbeat_stream;
  // Progress is stderr chatter for humans. A quiet run suppresses it; so
  // does a streamed machine run — a job a daemon spawned to parse must
  // behave identically whether or not someone forgot --quiet.
  policy.progress = !quiet && !(heartbeat_stream && IsMachineOutput(mode));
  return policy;
}

// ---- Defaults and validation ------------------------------------------------

JobSpec DefaultJobSpec() {
  JobSpec spec;
  CampaignOptions& o = spec.options;
  o.verifier.split_threshold = 0.3125;
  o.verifier.solver.max_nodes = 30'000;
  o.verifier.solver.delta = 1e-3;
  o.verifier.solver.time_budget_seconds = 0.5;
  o.verifier.solver.max_invalid_models = 512;
  o.verifier.total_time_budget_seconds = 10.0;
  return spec;
}

void ValidateJobSpec(const JobSpec& spec) {
  // Selector strings must resolve to a non-empty matrix (throws naming the
  // offending token).
  ParseFunctionalList(spec.functionals);
  ParseConditionList(spec.conditions);
  campaign::ValidateOptions(spec.options, "job spec");
}

// ---- Flags ------------------------------------------------------------------

double ParseFlagDouble(const std::string& key, const std::string& value) {
  const std::optional<double> v = json::DecimalToDouble(value);
  XCV_CHECK_MSG(v.has_value() && *v >= 0.0,
                "--" << key << " needs a non-negative number, got '" << value
                     << "'");
  return *v;
}

std::int64_t ParseFlagInteger(const std::string& key, const std::string& value,
                              std::int64_t lo, std::int64_t hi) {
  return json::CheckedInteger(ParseFlagDouble(key, value), lo, hi,
                              "--" + key);
}

double FlagDouble(const std::map<std::string, std::string>& flags,
                  const std::string& key, double fallback) {
  const auto it = flags.find(key);
  return it == flags.end() ? fallback : ParseFlagDouble(key, it->second);
}

std::int64_t FlagInteger(const std::map<std::string, std::string>& flags,
                         const std::string& key, std::int64_t fallback,
                         std::int64_t lo, std::int64_t hi) {
  return json::CheckedInteger(
      FlagDouble(flags, key, static_cast<double>(fallback)), lo, hi,
      "--" + key);
}

namespace {

// The keys ApplyFlags itself consumes. Kept adjacent to the consuming code
// below — a new `flags.find` there must be mirrored here or the strictness
// check will reject the new flag.
constexpr const char* kSpecFlagKeys[] = {
    "functionals",  "conditions",  "threads",        "budget-seconds",
    "split-threshold", "solver-nodes", "delta",      "wave-width",
    "frontier",     "checkpoint",  "cache",          "cache-readonly",
    "format"};

std::size_t EditDistance(const std::string& a, const std::string& b) {
  std::vector<std::size_t> prev(b.size() + 1), cur(b.size() + 1);
  for (std::size_t j = 0; j <= b.size(); ++j) prev[j] = j;
  for (std::size_t i = 1; i <= a.size(); ++i) {
    cur[0] = i;
    for (std::size_t j = 1; j <= b.size(); ++j) {
      const std::size_t sub = prev[j - 1] + (a[i - 1] != b[j - 1] ? 1 : 0);
      cur[j] = std::min({prev[j] + 1, cur[j - 1] + 1, sub});
    }
    std::swap(prev, cur);
  }
  return prev[b.size()];
}

/// Length of the longest '-'-separated token the two keys share. Flag
/// names are noun phrases ("solver-nodes", "budget-seconds"); a shared
/// whole token is stronger evidence of intent than raw character edits.
std::size_t SharedTokenLen(const std::string& a, const std::string& b) {
  const auto tokens = [](const std::string& s) {
    std::vector<std::string> out;
    std::size_t start = 0;
    for (std::size_t i = 0; i <= s.size(); ++i) {
      if (i == s.size() || s[i] == '-') {
        if (i > start) out.push_back(s.substr(start, i - start));
        start = i + 1;
      }
    }
    return out;
  };
  std::size_t best = 0;
  for (const std::string& ta : tokens(a))
    for (const std::string& tb : tokens(b))
      if (ta == tb) best = std::max(best, ta.size());
  return best;
}

}  // namespace

// The suggestion is scored by edit distance with a bonus for a shared whole
// token, so `--max-nodes` suggests `--solver-nodes` (shared "nodes") rather
// than an edit-closer flag.
void RejectUnknownFlags(const std::map<std::string, std::string>& flags,
                        const std::vector<std::string>& known) {
  for (const auto& [key, value] : flags) {
    if (std::find(known.begin(), known.end(), key) != known.end()) continue;
    std::string best;
    long best_score = 0;
    bool have_best = false;
    for (const std::string& k : known) {
      const long score = static_cast<long>(EditDistance(key, k)) -
                         2 * static_cast<long>(SharedTokenLen(key, k));
      if (!have_best || score < best_score) {
        have_best = true;
        best_score = score;
        best = k;
      }
    }
    std::string hint;
    const bool close =
        have_best &&
        (SharedTokenLen(key, best) > 0 ||
         EditDistance(key, best) <=
             std::max<std::size_t>(best.size(), key.size()) / 2);
    if (close) hint = " (did you mean --" + best + "?)";
    XCV_CHECK_MSG(false, "unknown flag --" << key << hint
                             << "; see `xcv help` for the flag list");
  }
}

void ApplyFlags(const std::map<std::string, std::string>& flags,
                JobSpec& spec, const std::vector<std::string>& extra_allowed) {
  std::vector<std::string> known(std::begin(kSpecFlagKeys),
                                 std::end(kSpecFlagKeys));
  known.insert(known.end(), extra_allowed.begin(), extra_allowed.end());
  RejectUnknownFlags(flags, known);
  CampaignOptions& o = spec.options;
  if (const auto it = flags.find("functionals"); it != flags.end())
    spec.functionals = it->second;
  if (const auto it = flags.find("conditions"); it != flags.end())
    spec.conditions = it->second;
  o.verifier.num_threads = static_cast<int>(FlagInteger(
      flags, "threads", o.verifier.num_threads, 1, verifier::kMaxThreads));
  const double budget = FlagDouble(flags, "budget-seconds",
                                   o.verifier.total_time_budget_seconds);
  // 0 means unlimited on the command line.
  o.verifier.total_time_budget_seconds =
      budget > 0.0 ? budget : std::numeric_limits<double>::infinity();
  o.verifier.split_threshold =
      FlagDouble(flags, "split-threshold", o.verifier.split_threshold);
  o.verifier.solver.max_nodes = static_cast<std::uint64_t>(FlagInteger(
      flags, "solver-nodes",
      static_cast<std::int64_t>(o.verifier.solver.max_nodes), 1,
      json::kMaxExactInteger));
  o.verifier.solver.delta = FlagDouble(flags, "delta",
                                       o.verifier.solver.delta);
  o.verifier.solver.wave_width = static_cast<int>(
      FlagInteger(flags, "wave-width", o.verifier.solver.wave_width, 1,
                  solver::kMaxWaveWidth));
  if (const auto it = flags.find("frontier"); it != flags.end())
    o.verifier.frontier = campaign::FrontierFromToken(ToLower(it->second));
  if (const auto it = flags.find("checkpoint"); it != flags.end())
    o.checkpoint_path = it->second;
  if (const auto it = flags.find("cache"); it != flags.end()) {
    o.cache_path = it->second;
  } else if (const char* env = std::getenv("XCV_CACHE");
             env != nullptr && env[0] != '\0') {
    o.cache_path = env;
  }
  if (flags.count("cache-readonly") > 0) {
    XCV_CHECK_MSG(!o.cache_path.empty(),
                  "--cache-readonly needs --cache=PATH (or XCV_CACHE)");
    o.cache_readonly = true;
  }

  if (const auto it = flags.find("format"); it != flags.end())
    spec.output = OutputModeFromToken(ToLower(it->second));
}

// ---- JSON -------------------------------------------------------------------

void AppendJobSpecJson(std::string& out, const JobSpec& spec,
                       const std::string& indent) {
  const CampaignOptions& o = spec.options;
  const verifier::VerifierOptions& v = o.verifier;
  const std::string in2 = indent + "  ";
  out += "{\n";
  out += in2 + "\"format\": \"xcv-job-spec\",\n";
  out += in2 + "\"version\": 1,\n";
  out += in2 + "\"schema_version\": " +
         std::to_string(kJobSpecSchemaVersion) + ",\n";
  out += in2 + "\"functionals\": " + json::JsonEscape(spec.functionals) +
         ",\n";
  out += in2 + "\"conditions\": " + json::JsonEscape(spec.conditions) + ",\n";
  out += in2 + "\"output\": \"" + OutputModeToken(spec.output) + "\",\n";
  out += in2 + "\"tenant\": " + json::JsonEscape(spec.tenant) + ",\n";
  out += in2 + "\"threads\": " + std::to_string(v.num_threads) + ",\n";
  out += in2 + std::string("\"tune_lda_delta\": ") +
         (o.tune_lda_delta ? "true" : "false") + ",\n";
  out += in2 + "\"verifier\": {\n";
  out += in2 + "  \"split_threshold\": " + json::JsonDouble(v.split_threshold) +
         ",\n";
  // 0 = unlimited, the CLI's --budget-seconds convention.
  const double budget =
      std::isinf(v.total_time_budget_seconds) ? 0.0
                                              : v.total_time_budget_seconds;
  out += in2 + "  \"budget_seconds\": " + json::JsonDouble(budget) + ",\n";
  out += in2 + std::string("  \"split_all_dims\": ") +
         (v.split_all_dims ? "true" : "false") + ",\n";
  out += in2 + "  \"witness_tolerance\": " +
         json::JsonDouble(v.witness_tolerance) + ",\n";
  out += in2 + "  \"frontier\": \"" + campaign::FrontierToken(v.frontier) +
         "\"\n";
  out += in2 + "},\n";
  out += in2 + "\"solver\": ";
  campaign::AppendSolverJson(out, v.solver, in2);
  out += "\n" + indent + "}";
}

std::string WriteJobSpecJson(const JobSpec& spec) {
  std::string out;
  AppendJobSpecJson(out, spec, "");
  out += "\n";
  return out;
}

JobSpec JobSpecFromJson(const JsonValue& root) {
  if (const JsonValue* fmt = root.Find("format"))
    XCV_CHECK_MSG(fmt->AsString() == "xcv-job-spec",
                  "not an xcv job spec (format is '" << fmt->AsString()
                                                     << "')");
  json::RequireSupportedSchema(root, "xcv-job-spec", kJobSpecSchemaVersion);

  JobSpec spec = DefaultJobSpec();
  CampaignOptions& o = spec.options;
  verifier::VerifierOptions& v = o.verifier;
  if (const JsonValue* f = root.Find("functionals"))
    spec.functionals = f->AsString();
  if (const JsonValue* c = root.Find("conditions"))
    spec.conditions = c->AsString();
  if (const JsonValue* m = root.Find("output"))
    spec.output = OutputModeFromToken(m->AsString());
  if (const JsonValue* t = root.Find("tenant")) spec.tenant = t->AsString();
  if (const JsonValue* t = root.Find("threads"))
    v.num_threads = static_cast<int>(json::CheckedInteger(
        t->AsDouble(), 1, verifier::kMaxThreads, "job spec: threads"));
  if (const JsonValue* t = root.Find("tune_lda_delta"))
    o.tune_lda_delta = t->AsBool();

  if (const JsonValue* vo = root.Find("verifier")) {
    if (const JsonValue* x = vo->Find("split_threshold"))
      v.split_threshold = x->AsDouble();
    if (const JsonValue* x = vo->Find("budget_seconds")) {
      const double budget = x->AsDouble();
      XCV_CHECK_MSG(budget >= 0.0,
                    "job spec: budget_seconds must be non-negative");
      v.total_time_budget_seconds =
          budget > 0.0 ? budget : std::numeric_limits<double>::infinity();
    }
    if (const JsonValue* x = vo->Find("split_all_dims"))
      v.split_all_dims = x->AsBool();
    if (const JsonValue* x = vo->Find("witness_tolerance"))
      v.witness_tolerance = x->AsDouble();
    if (const JsonValue* x = vo->Find("frontier"))
      v.frontier = campaign::FrontierFromToken(x->AsString());
  }
  if (const JsonValue* so = root.Find("solver"))
    campaign::SolverFromJson(*so, /*required=*/false, "job spec", v.solver);
  ValidateJobSpec(spec);
  return spec;
}

JobSpec ParseJobSpecJson(const std::string& json_text) {
  return JobSpecFromJson(json::ParseJson(json_text));
}

// ---- Selector resolution ----------------------------------------------------

std::vector<const ConditionInfo*> ParseConditionList(const std::string& spec) {
  const auto& all = conditions::AllConditions();
  std::vector<bool> selected(all.size(), false);
  // Numeric EC index of a validated condition id ("EC4" -> 4).
  auto number_of = [&](const std::string& id) -> int {
    const ConditionInfo* info = conditions::FindCondition(id);
    XCV_CHECK_MSG(info != nullptr, "unknown condition '" << id << "'");
    return std::atoi(info->short_id.c_str() + 2);
  };
  auto index_of = [&](const std::string& id) -> std::size_t {
    const int n = number_of(id);
    for (std::size_t i = 0; i < all.size(); ++i)
      if (std::atoi(all[i].short_id.c_str() + 2) == n) return i;
    return 0;  // unreachable: FindCondition returns entries of `all`
  };
  for (const std::string& token : SplitCommas(spec)) {
    if (ToLower(token) == "all") {
      selected.assign(all.size(), true);
      continue;
    }
    std::string::size_type dots = token.find("..");
    std::size_t sep_len = 2;
    if (dots == std::string::npos) {
      dots = token.find('-');
      sep_len = 1;
    }
    if (dots != std::string::npos) {
      // Ranges are numeric: EC1..EC7 selects every EC in [1, 7] no matter
      // where it sits in Table I's row order.
      const int lo = number_of(token.substr(0, dots));
      const int hi = number_of(token.substr(dots + sep_len));
      XCV_CHECK_MSG(lo <= hi, "empty condition range '" << token << "'");
      for (std::size_t i = 0; i < all.size(); ++i) {
        const int n = std::atoi(all[i].short_id.c_str() + 2);
        if (lo <= n && n <= hi) selected[i] = true;
      }
    } else {
      selected[index_of(token)] = true;
    }
  }
  std::vector<const ConditionInfo*> out;
  for (std::size_t i = 0; i < all.size(); ++i)
    if (selected[i]) out.push_back(&all[i]);
  XCV_CHECK_MSG(!out.empty(), "condition spec '" << spec
                                                 << "' selects nothing");
  return out;
}

std::vector<const Functional*> ParseFunctionalList(const std::string& spec) {
  std::vector<const Functional*> universe;
  for (const Functional& f : functionals::PaperFunctionals())
    universe.push_back(&f);
  for (const Functional& f : functionals::ExtensionFunctionals())
    universe.push_back(&f);

  std::vector<bool> selected(universe.size(), false);
  for (const std::string& raw : SplitCommas(spec)) {
    const std::string token = ToLower(raw);
    if (token == "all") {
      // "all" = the five paper DFAs; extensions are opt-in by name.
      for (const Functional& f : functionals::PaperFunctionals())
        for (std::size_t i = 0; i < universe.size(); ++i)
          if (universe[i] == &f) selected[i] = true;
      continue;
    }
    std::optional<functionals::Family> family;
    if (token == "lda") family = functionals::Family::kLda;
    if (token == "gga") family = functionals::Family::kGga;
    if (token == "mgga" || token == "meta-gga" || token == "metagga")
      family = functionals::Family::kMetaGga;
    if (family.has_value()) {
      bool any = false;
      for (std::size_t i = 0; i < universe.size(); ++i) {
        if (universe[i]->family == *family) {
          selected[i] = true;
          any = true;
        }
      }
      XCV_CHECK_MSG(any, "no functional of family '" << raw << "'");
      continue;
    }
    const Functional* f = functionals::FindFunctional(raw);
    XCV_CHECK_MSG(f != nullptr, "unknown functional '" << raw << "'");
    for (std::size_t i = 0; i < universe.size(); ++i)
      if (universe[i] == f) selected[i] = true;
  }
  std::vector<const Functional*> out;
  for (std::size_t i = 0; i < universe.size(); ++i)
    if (selected[i]) out.push_back(universe[i]);
  XCV_CHECK_MSG(!out.empty(), "functional spec '" << spec
                                                  << "' selects nothing");
  return out;
}

// ---- Campaign construction --------------------------------------------------

void PopulateCampaign(const JobSpec& spec, campaign::Campaign& campaign) {
  const auto funcs = ParseFunctionalList(spec.functionals);
  const auto conds = ParseConditionList(spec.conditions);
  for (const ConditionInfo* cond : conds)
    for (const Functional* f : funcs) campaign.Add(*f, *cond);
}

std::vector<campaign::PairState> InitialPairs(const JobSpec& spec) {
  const auto funcs = ParseFunctionalList(spec.functionals);
  const auto conds = ParseConditionList(spec.conditions);
  std::vector<campaign::PairState> pairs;
  pairs.reserve(funcs.size() * conds.size());
  for (const ConditionInfo* cond : conds)
    for (const Functional* f : funcs)
      pairs.push_back(campaign::InitialPairState(*f, *cond));
  return pairs;
}

}  // namespace xcv::api
