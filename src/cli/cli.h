// The `xcv` command-line front-end for the campaign engine.
//
//   xcv verify --functionals=scan,pbe --conditions=EC1..EC7 --threads=4 \
//              --checkpoint=run.json --format=table|json|csv
//   xcv resume --checkpoint=run.json
//   xcv shard --checkpoint=run.json --shards=3 --by=pairs|frontier
//   xcv merge shard-*.json [--cache=cache-0.json,cache-1.json,...] \
//             [-o merged.json]
//   xcv cache-stats cache.json
//   xcv list
//
// `verify` runs any subset of the paper's verification matrix on the shared
// scheduler, streams per-pair progress to stderr, writes checkpoints after
// every completed pair, and renders the verdict matrix through the report
// layer. Ctrl-C cancels cooperatively: the open frontier is checkpointed so
// `xcv resume` continues where the run stopped. `shard`/`merge` (src/shard/)
// turn one checkpoint into K independently resumable node checkpoints and
// union the results (and verdict caches) back into one report.
#pragma once

namespace xcv::cli {

/// Entry point (argv semantics). Returns the process exit code: 0 success,
/// 2 usage/config error, 130 cancelled by signal.
int Main(int argc, const char* const* argv);

}  // namespace xcv::cli
