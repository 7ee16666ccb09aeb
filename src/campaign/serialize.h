// JSON (de)serialization of campaign state: checkpoint/resume for whole
// verification matrices, and the `xcv --format=json` output document.
//
// The format is plain JSON in the support/json.h conventions (%.17g doubles,
// quoted non-finite values); the reader lives in support/json.cpp and the
// file load/salvage/quarantine policy in support/document.h.
#pragma once

#include <string>
#include <vector>

#include "campaign/campaign.h"
#include "support/document.h"
#include "support/json.h"

namespace xcv::campaign {

struct Checkpoint {
  CampaignOptions options;
  std::vector<PairState> pairs;
  bool cancelled = false;
};

/// Serializes a full campaign state (options + per-pair reports and open
/// frontiers) as a pretty-printed JSON document.
std::string CheckpointToJson(const CampaignOptions& options,
                             const std::vector<PairState>& pairs,
                             bool cancelled);

/// Parses a document produced by CheckpointToJson. Throws
/// xcv::InternalError on malformed input.
Checkpoint CheckpointFromJson(const std::string& json);

/// Writes durably and atomically: temp file + fsync + rename + directory
/// fsync (support/io.h), with a whole-document checksum inserted after the
/// version field. A crash at any instant leaves either the complete old
/// checkpoint or the complete new one. Honours the "checkpoint.save.*"
/// fault points. Throws xcv::InternalError on I/O error.
void WriteCheckpointFile(const std::string& path,
                         const CampaignOptions& options,
                         const std::vector<PairState>& pairs,
                         bool cancelled);

/// Reads and parses a checkpoint file. Throws xcv::InternalError if the
/// file is unreadable, malformed, or fails its checksum (documents without
/// a checksum — legacy writers — are accepted).
Checkpoint LoadCheckpointFile(const std::string& path);

/// Tolerant load under the support/document.h policy; never throws on
/// damaged input. A cold outcome returns an empty checkpoint.
Checkpoint LoadCheckpointFileTolerant(const std::string& path,
                                      support::LoadOutcome* outcome);

// ---- Run options shared with job specs (api/job_spec.h) --------------------

/// Appends the "solver" object: `{`, one line per field at `indent` plus two
/// spaces, then the closing brace at `indent`.
void AppendSolverJson(std::string& out, const solver::SolverOptions& solver,
                      const std::string& indent);

/// Reads a "solver" object over `solver`. When `required`, every key but
/// wave_width must be present (checkpoints); otherwise an absent key keeps
/// its value (job specs). Errors name `document` and the field.
void SolverFromJson(const json::JsonValue& object, bool required,
                    const std::string& document,
                    solver::SolverOptions& solver);

/// The one check of a run's options, for job specs and checkpoint headers
/// alike. Throws naming `document` ("job spec", "checkpoint") and the field.
void ValidateOptions(const CampaignOptions& options,
                     const std::string& document);

// ---- Tokens (shared with the report renderers and xcvd) --------------------

std::string VerdictToken(verifier::Verdict verdict);
verifier::Verdict VerdictFromToken(const std::string& token);
std::string FrontierToken(verifier::FrontierStrategy strategy);
verifier::FrontierStrategy FrontierFromToken(const std::string& token);

}  // namespace xcv::campaign
