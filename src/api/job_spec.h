// The programmatic campaign API: one audited path from a job description to
// a runnable campaign::Campaign.
//
// A JobSpec is the one description of a verification run: the
// functional/condition selectors, every solver and verifier knob, the output
// mode and the tenant. The `xcv` CLI compiles its flags down to a JobSpec,
// the `xcvd` daemon parses one out of a `POST /v1/campaigns` body, and tests
// construct them directly; all three then go through the same validation
// (ValidateJobSpec) and the same campaign construction (PopulateCampaign /
// InitialPairs), so there is exactly one place where a job description can
// be wrong.
//
// JSON: WriteJobSpecJson/ParseJobSpecJson round-trip every field exactly
// (%.17g doubles, support/json.h conventions); documents carry
// `"schema_version"` with the shared compatibility rule (json.h).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "campaign/campaign.h"
#include "conditions/conditions.h"
#include "functionals/functional.h"
#include "support/json.h"

namespace xcv::api {

/// Schema major of the job-spec document this build writes and the newest
/// it reads (json::RequireSupportedSchema).
inline constexpr int kJobSpecSchemaVersion = 1;

// ---- Output mode ------------------------------------------------------------

/// What stdout carries when a run's result is rendered. kJson and kCsv are
/// *machine* modes: stdout is a stream another program parses, so nothing
/// else (progress chatter, heartbeat markers) may be interleaved into it.
enum class OutputMode { kTable, kJson, kCsv };

std::string OutputModeToken(OutputMode mode);
/// Throws xcv::InternalError on an unknown token (there is no silent
/// fallback — a typo'd --format must not quietly render a table).
OutputMode OutputModeFromToken(const std::string& token);

/// True for json/csv — stdout is machine-read.
bool IsMachineOutput(OutputMode mode);

/// The one place output-mode interactions are decided (formerly ad-hoc
/// --quiet / --heartbeat-stream checks spread over the CLI):
///   * progress: per-pair lines on stderr — off under --quiet, and forced
///     off when a machine mode shares the process with a heartbeat stream
///     (a daemon- or coordinator-spawned job must never risk interleaving
///     human chatter near its machine-read output);
///   * stream_markers: XCV-HEARTBEAT lines on stdout — callers must stop
///     the marker stream *before* rendering any machine-mode report.
struct OutputPolicy {
  OutputMode mode = OutputMode::kTable;
  bool progress = true;
  bool stream_markers = false;
};

OutputPolicy ResolveOutput(OutputMode mode, bool quiet, bool heartbeat_stream);

// ---- Job spec ---------------------------------------------------------------

/// Everything needed to run (or re-run, or ship to another machine) one
/// verification campaign. The selectors stay in their spec-string form so a
/// job is self-describing and diffable; they are resolved against the
/// registries at validation/build time.
struct JobSpec {
  /// Functional selector: names, family selectors, or "all" (the five
  /// paper DFAs) — ParseFunctionalList grammar.
  std::string functionals = "all";
  /// Condition selector: ids, ranges ("EC1..EC4"), or "all".
  std::string conditions = "all";
  /// Campaign options (threads, verifier + solver knobs; the CLI's checkpoint
  /// and cache wiring is not serialized). Defaults match DefaultJobSpec().
  campaign::CampaignOptions options;
  /// Rendered-output mode for CLI runs and the daemon's report endpoint.
  OutputMode output = OutputMode::kTable;
  /// Fairness bucket for multi-user serving ("" = default tenant). The
  /// daemon schedules round-robin across tenants with queued jobs.
  std::string tenant;
};

/// The paper-default job, the one place its values are written: delta 1e-3,
/// t = 0.3125, 30,000 nodes, 0.5 s and 512 invalid models per solver call,
/// 10 s per pair. The CLI, xcvd, the benches and the examples start here.
JobSpec DefaultJobSpec();

/// The single validation path: selector strings resolve to a non-empty
/// matrix, and the options pass campaign::ValidateOptions (the check a
/// checkpoint load makes too). Throws xcv::InternalError with a message
/// naming the offending field. Every entrance (CLI flags, HTTP body, tests)
/// must pass through here before a campaign is built.
void ValidateJobSpec(const JobSpec& spec);

/// Applies `--key=value` style flags over `spec` (the CLI's option
/// assembly, reusable by anything that speaks that dialect). Recognized
/// keys: functionals, conditions, threads, budget-seconds (0 = unlimited),
/// split-threshold, solver-nodes, delta, wave-width, frontier, checkpoint,
/// cache (XCV_CACHE env supplies the default), cache-readonly, format.
/// Unrecognized keys are a usage error (RejectUnknownFlags). `extra_allowed`
/// lists additional keys the calling command consumes itself (e.g.
/// resume's `heartbeat`) — they pass the strictness check untouched.
/// Throws xcv::InternalError on malformed values.
void ApplyFlags(const std::map<std::string, std::string>& flags,
                JobSpec& spec,
                const std::vector<std::string>& extra_allowed = {});

/// The usage-error gate: throws xcv::InternalError for the first key of
/// `flags` not in `known`, naming the flag and suggesting the nearest known
/// one (so `--max-nodes` points at `--solver-nodes`).
void RejectUnknownFlags(const std::map<std::string, std::string>& flags,
                        const std::vector<std::string>& known);

/// The checked flag parser: `--key`'s value as a non-negative number, or an
/// integer in [lo, hi] checked before it is narrowed; a named error else.
/// FlagDouble/FlagInteger read `flags[key]`, or `fallback` when absent.
double ParseFlagDouble(const std::string& key, const std::string& value);
std::int64_t ParseFlagInteger(const std::string& key, const std::string& value,
                              std::int64_t lo, std::int64_t hi);
double FlagDouble(const std::map<std::string, std::string>& flags,
                  const std::string& key, double fallback);
std::int64_t FlagInteger(const std::map<std::string, std::string>& flags,
                         const std::string& key, std::int64_t fallback,
                         std::int64_t lo, std::int64_t hi);

/// Serializes the spec as a standalone JSON document ("xcv-job-spec",
/// schema_version, every field but the options' checkpoint/cache wiring).
std::string WriteJobSpecJson(const JobSpec& spec);

/// Appends the spec as a JSON *object* at `indent` (for embedding in other
/// documents, e.g. the daemon's queue journal).
void AppendJobSpecJson(std::string& out, const JobSpec& spec,
                       const std::string& indent);

/// Parses a document (or bare object) produced by WriteJobSpecJson — or a
/// hand-written subset: absent fields keep their DefaultJobSpec() values,
/// unknown fields are ignored. Validates before returning. Throws
/// xcv::InternalError on malformed JSON, an unsupported schema_version, or
/// a spec that fails ValidateJobSpec.
JobSpec ParseJobSpecJson(const std::string& json_text);
JobSpec JobSpecFromJson(const json::JsonValue& root);

// ---- Selector resolution (moved from the CLI) -------------------------------

/// Parses a comma-separated condition spec: short ids ("EC3"), ranges
/// ("EC1..EC4" or "EC2-EC5"), or "all". Throws xcv::InternalError on
/// unknown ids; result is deduplicated, in paper (Table I row) order.
std::vector<const conditions::ConditionInfo*> ParseConditionList(
    const std::string& spec);

/// Parses a comma-separated functional spec: registry names ("pbe",
/// "VWN_RPA"), family selectors ("lda", "gga", "mgga"), or "all" (the five
/// paper DFAs). Throws xcv::InternalError on unknown names; result is
/// deduplicated, paper column order first, extensions after.
std::vector<const functionals::Functional*> ParseFunctionalList(
    const std::string& spec);

// ---- Campaign construction --------------------------------------------------

/// Enqueues the spec's matrix on `campaign`, condition-major (Table I row
/// order) — the exact order `xcv verify` has always used, so reports stay
/// byte-identical no matter which surface submitted the job.
void PopulateCampaign(const JobSpec& spec, campaign::Campaign& campaign);

/// The same matrix as unrun PairStates (the shard/coordinate fresh path).
std::vector<campaign::PairState> InitialPairs(const JobSpec& spec);

}  // namespace xcv::api
