#!/usr/bin/env bash
# Sharding smoke flow: a campaign split over three "nodes" (run one after
# another here) and merged must reproduce the single-node report.
#
#   tests/smoke/shard_smoke.sh XCV WORKDIR
#
# XCV is the xcv binary; WORKDIR is emptied and receives the shard files,
# caches and CSVs. ctest runs it under the `smoke` label. It checks that
#   - pair granularity: a fresh campaign sharded 3 ways before any solving,
#     each shard resumed with its own cache, merges to the single-node
#     report (columns 1-13);
#   - the merged cache replays the matrix with the single-node verdicts,
#     at least one cross-shard hit and at most half the solver calls;
#   - frontier granularity: the open frontier of a run stopped by an
#     injected crash, dealt 3 ways and completed, merges to the single-node
#     completion of the same checkpoint (columns 1-13).
# Node budgets (no wall-clock budget) keep every run deterministic.
set -euo pipefail
source "$(dirname "$0")/lib.sh"

xcv=$(realpath "$1")
work=$2
rm -rf "$work"
mkdir -p "$work"
cd "$work"

job=(--functionals=lda,pbe --conditions=EC1,EC2,EC4 --budget-seconds=0
     --solver-nodes=1500 --split-threshold=1.25)

echo "== pair granularity: 3 shards, one cache each, merged"
"$xcv" verify "${job[@]}" --format=csv --quiet > single.csv
"$xcv" shard "${job[@]}" --shards=3 --by=pairs --out-dir=.
for k in 0 1 2; do
  "$xcv" resume --checkpoint=shard-$k.json --cache=cache-$k.json \
    --format=csv --quiet > /dev/null
done
"$xcv" merge shard-*.json --cache=cache-0.json,cache-1.json,cache-2.json \
  --cache-out=merged-cache.json -o merged.json --format=csv > merged.csv
"$xcv" cache-stats merged-cache.json
same_columns 13 single.csv merged.csv

echo "== cross-shard cache replay"
"$xcv" verify "${job[@]}" --cache=merged-cache.json --cache-readonly \
  --format=csv --quiet > warm.csv
same_columns 11 single.csv warm.csv
single_calls=$(column_sum single.csv solver_calls)
warm_calls=$(column_sum warm.csv solver_calls)
hits=$(column_sum warm.csv cache_hits)
echo "single-node solver calls: $single_calls," \
     "warm from the merged cache: $warm_calls, hits: $hits"
check "single_calls > 0" "reference run made no solver calls"
check "hits >= 1" "no cross-shard cache hits after the merge"
check "warm_calls * 2 <= single_calls" \
      "merged cache skipped fewer than half the solver calls"

# The crash fault stops the run after its 8th finished pair (exit 70) with
# the last checkpoint on disk: the same open frontier on every run.
echo "== frontier granularity: a crashed run's frontier dealt 3 ways"
expect_exit 70 "$xcv" verify --functionals=lda,pbe --conditions=EC1..EC7 \
  --budget-seconds=0 --solver-nodes=1500 --split-threshold=0.45 \
  --checkpoint=partial.json --faults=campaign.pair-done.crash@8 \
  --format=csv --quiet > /dev/null
python3 - <<'EOF'
import json
pairs = json.load(open('partial.json'))['pairs']
done = sum(p['done'] for p in pairs)
boxes = sum(len(p['open']) for p in pairs)
print(f'partial checkpoint: {done}/{len(pairs)} pairs done, {boxes} open boxes')
assert done < len(pairs) and boxes > 0, 'the crash left no open frontier'
EOF
cp partial.json single-ref.json
"$xcv" resume --checkpoint=single-ref.json --format=csv --quiet \
  > single-frontier.csv
mkdir fshard
"$xcv" shard --checkpoint=partial.json --shards=3 --by=frontier \
  --out-dir=fshard
for k in 0 1 2; do
  "$xcv" resume --checkpoint=fshard/shard-$k.json --format=csv --quiet \
    > /dev/null
done
"$xcv" merge fshard/shard-*.json -o merged-frontier.json --format=csv \
  > merged-frontier.csv
same_columns 13 single-frontier.csv merged-frontier.csv
echo "shard smoke: ok"
