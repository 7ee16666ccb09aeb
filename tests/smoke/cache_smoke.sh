#!/usr/bin/env bash
# Verdict-cache smoke flow: one deterministic (budget-free, node-capped)
# matrix run cold, warm and partially warm against one cache file.
#
#   tests/smoke/cache_smoke.sh XCV WORKDIR
#
# XCV is the xcv binary; WORKDIR is emptied and receives the caches and
# the CSVs. ctest runs it under the `smoke` label. It checks that
#   - the cold cache's bytes do not depend on the thread count;
#   - the warm run reproduces the cold verdict columns, skips at least half
#     the solver calls, and leaves the file untouched (same inode and mtime)
#     because it stores nothing;
#   - a replay at half the split threshold matches a cache-less run there,
#     with every box it solved a hit or a miss and no clean entry rejected.
set -euo pipefail
source "$(dirname "$0")/lib.sh"

xcv=$(realpath "$1")
work=$2
rm -rf "$work"
mkdir -p "$work"
cd "$work"

matrix=(verify --functionals=lda,pbe --conditions=EC1,EC2,EC4
        --budget-seconds=0 --solver-nodes=1500 --format=csv --quiet)

echo "== cold run (populates xcv-cache.json) at 2 threads and at 1"
"$xcv" "${matrix[@]}" --threads=2 --split-threshold=1.25 \
  --cache=xcv-cache.json > cold.csv
"$xcv" "${matrix[@]}" --threads=1 --split-threshold=1.25 \
  --cache=xcv-cache-1t.json > /dev/null
cmp xcv-cache.json xcv-cache-1t.json

echo "== warm run (replays xcv-cache.json)"
before=$(stat -c '%i %y' xcv-cache.json)
"$xcv" "${matrix[@]}" --threads=2 --split-threshold=1.25 \
  --cache=xcv-cache.json > warm.csv
after=$(stat -c '%i %y' xcv-cache.json)
if [ "$before" != "$after" ]; then
  echo "a warm run that stored nothing rewrote the cache:" \
       "inode/mtime '$before' -> '$after'" >&2
  exit 1
fi
same_columns 11 cold.csv warm.csv
cold_calls=$(column_sum cold.csv solver_calls)
warm_calls=$(column_sum warm.csv solver_calls)
hits=$(column_sum warm.csv cache_hits)
misses=$(column_sum warm.csv cache_misses)
rejected=$(column_sum warm.csv cache_rejected)
echo "cold solver calls: $cold_calls, warm: $warm_calls" \
     "($hits hits, $misses misses, $rejected rejected)"
check "cold_calls > 0" "cold run made no solver calls"
check "hits > 0" "warm run had no cache hits"
check "hits * 2 >= hits + misses" "warm hit rate below the 50% floor"
check "warm_calls * 2 <= cold_calls" \
      "warm run skipped fewer than half the solver calls"

# A replay at half the split threshold: the cache holds the coarse tree,
# so the solver decides batches of hits and misses together. The report
# must match a cache-less run at the same threshold, and the hits plus
# misses must account for every box it solved.
echo "== partially warm run (replays xcv-cache.json at half the threshold)"
"$xcv" "${matrix[@]}" --threads=2 --split-threshold=0.625 > fine-bare.csv
"$xcv" "${matrix[@]}" --threads=2 --split-threshold=0.625 \
  --cache=xcv-cache.json --cache-readonly > partial.csv
same_columns 11 fine-bare.csv partial.csv
bare_calls=$(column_sum fine-bare.csv solver_calls)
hits=$(column_sum partial.csv cache_hits)
misses=$(column_sum partial.csv cache_misses)
rejected=$(column_sum partial.csv cache_rejected)
echo "partially warm: $hits hits, $misses misses, $rejected rejected;" \
     "cache-less solver calls: $bare_calls"
check "rejected == 0" "a clean cache entry was rejected"
check "hits > 0" "the partially warm run had no cache hits"
check "misses > 0" "the partially warm run had no cache misses"
check "hits + misses == bare_calls" \
      "hits + misses differ from the cache-less solver calls"
echo "cache smoke: ok"
