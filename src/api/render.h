// Report renderers shared by the `xcv` CLI and the `xcvd` daemon.
//
// Rendering used to live inline in the CLI's printf calls; the daemon's
// `GET /v1/campaigns/:id/report` must serve the *same bytes* `xcv verify`
// prints (the acceptance check byte-diffs them), so the formatting moved
// here and both surfaces call these. Every function returns the complete
// rendered document; callers decide where it goes (stdout, HTTP body).
#pragma once

#include <string>
#include <vector>

#include "api/job_spec.h"
#include "campaign/campaign.h"

namespace xcv::api {

/// The report in `mode`: the checkpoint JSON document, CsvReport or
/// TableReport — every `xcv` command's output and xcvd's report route.
std::string RenderReport(OutputMode mode,
                         const campaign::CampaignOptions& options,
                         const std::vector<campaign::PairState>& pairs,
                         bool cancelled);

/// The CSV report, header included. Columns 1–11 (through witnesses) are
/// deterministic for a budget-free run configuration — byte-identical
/// across thread counts, wave widths, and cache states; columns 12–13
/// (solver_calls, solver_timeouts) additionally match whenever the cache
/// is cold or absent; the cache/timing columns after them are run-local.
std::string CsvReport(const std::vector<campaign::PairState>& pairs);

/// The human table: the paper's Table I verdict grid plus the per-pair
/// detail block.
std::string TableReport(const std::vector<campaign::PairState>& pairs);

/// The `xcv info` document: SIMD tier table, XCV_SIMD override state, and
/// the registered fault-point listing.
std::string InfoReport();

/// The process metrics registry in Prometheus text exposition format —
/// the exact bytes xcvd serves from `GET /v1/metrics`; `xcv info
/// --metrics` appends it to the info document. Empty registry renders an
/// empty string.
std::string MetricsReport();

}  // namespace xcv::api
