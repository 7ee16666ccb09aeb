#!/usr/bin/env bash
# Verdict-cache smoke flow: one deterministic (budget-free, node-capped)
# matrix run cold, warm and partially warm against one cache file.
#
#   tests/smoke/cache_smoke.sh XCV WORKDIR
#
# XCV is the xcv binary; WORKDIR is emptied and receives the cache, the
# CSVs and the verdict extracts. ctest runs it under the `smoke` label.
# It checks that
#   - the cold cache's bytes do not depend on the thread count;
#   - the warm run reproduces the cold verdict columns, skips at least half
#     the solver calls, and leaves the file untouched (same inode and mtime)
#     because it stores nothing;
#   - a replay at half the split threshold matches a cache-less run there,
#     with every box it solved a hit or a miss and no clean entry rejected.
set -euo pipefail

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

# Columns 1-11 (functional..witnesses) are the deterministic verdict
# content; the cache/timing columns after them are run-local by design.
cut -d, -f1-11 cold.csv > cold-verdicts.csv
cut -d, -f1-11 warm.csv > warm-verdicts.csv
diff cold-verdicts.csv warm-verdicts.csv
python3 - <<'EOF'
import csv
cold = list(csv.DictReader(open('cold.csv')))
warm = list(csv.DictReader(open('warm.csv')))
cold_calls = sum(int(r['solver_calls']) for r in cold)
warm_calls = sum(int(r['solver_calls']) for r in warm)
hits = sum(int(r['cache_hits']) for r in warm)
misses = sum(int(r['cache_misses']) for r in warm)
rejected = sum(int(r['cache_rejected']) for r in warm)
rate = hits / max(1, hits + misses)
print(f'cold solver calls: {cold_calls}, warm: {warm_calls}')
print(f'warm hit rate: {rate:.2%} ({hits} hits, {misses} misses, '
      f'{rejected} rejected)')
assert cold_calls > 0, 'cold run made no solver calls'
assert hits > 0, 'warm run had no cache hits'
assert rate >= 0.5, f'warm hit rate {rate:.2%} below the 50% floor'
assert warm_calls * 2 <= cold_calls, \
    'warm run skipped fewer than half the solver calls'
EOF

# A replay at half the split threshold: the cache holds the coarse tree,
# so the solver decides batches of hits and misses together. The report
# must match a cache-less run at the same threshold, and the hits plus
# misses must account for every box it solved.
echo "== partially warm run (replays xcv-cache.json at half the threshold)"
"$xcv" "${matrix[@]}" --threads=2 --split-threshold=0.625 > fine-bare.csv
"$xcv" "${matrix[@]}" --threads=2 --split-threshold=0.625 \
  --cache=xcv-cache.json --cache-readonly > partial.csv
cut -d, -f1-11 fine-bare.csv > fine-bare-verdicts.csv
cut -d, -f1-11 partial.csv > partial-verdicts.csv
diff fine-bare-verdicts.csv partial-verdicts.csv
python3 - <<'EOF'
import csv
bare = list(csv.DictReader(open('fine-bare.csv')))
part = list(csv.DictReader(open('partial.csv')))
bare_calls = sum(int(r['solver_calls']) for r in bare)
hits = sum(int(r['cache_hits']) for r in part)
misses = sum(int(r['cache_misses']) for r in part)
rejected = sum(int(r['cache_rejected']) for r in part)
print(f'partially warm: {hits} hits, {misses} misses, '
      f'{rejected} rejected; cache-less solver calls: {bare_calls}')
assert rejected == 0, 'a clean cache entry was rejected'
assert hits > 0, 'the partially warm run had no cache hits'
assert misses > 0, 'the partially warm run had no cache misses'
assert hits + misses == bare_calls, \
    'hits + misses differ from the cache-less solver calls'
EOF
echo "cache smoke: ok"
