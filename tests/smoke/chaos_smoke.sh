#!/usr/bin/env bash
# Elastic-campaign smoke flow: `xcv coordinate` under injected faults must
# converge to the single-node report.
#
#   tests/smoke/chaos_smoke.sh XCV WORKDIR
#
# XCV is the xcv binary; WORKDIR is emptied and receives the coordinators'
# work dirs, logs and CSVs. ctest runs it under the `smoke` label. Against
# one uninterrupted single-node run it checks that
#   - chaos: 3 nodes, node 1 SIGKILLed 300 ms after launch and node 2 dying
#     on a torn checkpoint write, converge to its columns 1-13, and the log
#     shows the preemption and the salvaged torn shard;
#   - preemption: nodes 0 and 1 SIGKILLed and node 2 failing every launch
#     converge to its columns 1-13, the log shows both preemptions and the
#     quarantine, and the node-health ledger records it;
#   - re-deal: the frontier of a run stopped by an injected crash, finished
#     by the coordinator with epochs short enough that their deadline
#     SIGTERMs stragglers, matches the single-node completion of the same
#     checkpoint (columns 1-13).
set -euo pipefail
source "$(dirname "$0")/lib.sh"

xcv=$(realpath "$1")
work=$2
rm -rf "$work"
mkdir -p "$work"
cd "$work"

job=(--functionals=VWN_RPA,PBE --conditions=EC1..EC3 --budget-seconds=0
     --solver-nodes=2000)
"$xcv" verify "${job[@]}" --format=csv --quiet > single.csv

echo "== chaos: node 1 preempted, node 2's checkpoint torn"
"$xcv" coordinate "${job[@]}" --shards=3 --work-dir=chaos-wd \
  --faults=transport.preempt.local-1@1=300 \
  --fault-node=2:checkpoint.save.short-write@2 \
  --format=csv > chaos.csv 2> chaos.log
cat chaos.log
same_columns 13 single.csv chaos.csv
expect_log chaos.log 'node local-1: preempted'
expect_log chaos.log 'node local-2: salvaged'

echo "== preemption: nodes 0 and 1 preempted, node 2 quarantined"
"$xcv" coordinate "${job[@]}" --shards=3 --work-dir=preempt-wd \
  --max-retries=1 --preemptible=3 --quarantine-after=2 \
  --faults=transport.preempt.local-0@1=300,transport.preempt.local-1@1=500,transport.launch.fail.local-2@* \
  --format=csv > preempt.csv 2> preempt.log
cat preempt.log
same_columns 13 single.csv preempt.csv
expect_log preempt.log 'node local-0: preempted'
expect_log preempt.log 'node local-1: preempted'
expect_log preempt.log 'quarantined: local-2'
python3 - <<'EOF'
import json
nodes = {n['node']: n for n in json.load(open('preempt-wd/nodes.json'))['nodes']}
assert nodes['local-2']['quarantined'] is True, \
    'the node-health ledger does not record the quarantine'
EOF

# The crash fault stops the run after its first finished pair (exit 70).
# The coordinator then gets 0.25 s epochs, well short of the work left, so
# stragglers are SIGTERMed and their frontier is re-dealt.
echo "== re-deal: a crashed run's frontier finished in short epochs"
expect_exit 70 "$xcv" verify "${job[@]}" --split-threshold=0.45 \
  --checkpoint=partial.json --faults=campaign.pair-done.crash@1 \
  --format=csv --quiet > /dev/null
cp partial.json single-ref.json
"$xcv" resume --checkpoint=single-ref.json --format=csv --quiet \
  > single-frontier.csv
"$xcv" coordinate --checkpoint=partial.json --shards=3 --by=frontier \
  --rebalance-epoch=0.25 --work-dir=frontier-wd \
  --format=csv > frontier.csv 2> frontier.log
cat frontier.log
same_columns 13 single-frontier.csv frontier.csv
expect_log frontier.log 'epoch deadline: SIGTERM'
echo "chaos smoke: ok"
