// The three workloads. Each runs whole rounds of a fixed unit of work for
// RunConfig::seconds, checks every output, and fills an Outcome with the
// end-to-end metrics; with RunConfig::trace it then runs a traced phase and
// adds the per-layer metrics and the fold table.
#pragma once

#include <map>
#include <string>

#include "api/job_spec.h"
#include "harness.h"

namespace xcvbench {

/// `lda,pbe x EC1..EC4`, 2000 nodes, 1 thread, budget-free, no cache: the
/// reference job. One round = one job.
Outcome RunVerifyCold(const RunConfig& cfg);

/// Fresh 2-thread campaigns replaying a verdict-cache file through
/// cache_path (load, replay, save), as `xcv verify --cache` does. One
/// round = one warm job.
Outcome RunVerifyWarm(const RunConfig& cfg);

/// An in-process xcvd under three closed-loop tenant clients running a
/// seeded job mix. One round = the whole mix.
Outcome RunServeMix(const RunConfig& cfg);

/// verify_cold's set-up, once: spec + campaign construction, timed. Run by
/// `xcvbench --cold-setup` in a fresh process, which prints the seconds.
double TimeColdSetup();

/// The CLI's option assembly: paper defaults, then `--key=value` flags,
/// then validation (api::ApplyFlags / ValidateJobSpec).
xcv::api::JobSpec SpecFromFlags(const std::map<std::string, std::string>& flags);

/// Campaign construction without any cache plus PopulateCampaign, median
/// over `reps` repetitions: the campaign layer's share of set-up.
double CampaignBuildSeconds(const xcv::api::JobSpec& spec, int reps);

}  // namespace xcvbench
