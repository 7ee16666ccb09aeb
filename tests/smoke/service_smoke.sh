#!/usr/bin/env bash
# Daemon smoke flow: xcvd must serve the reports `xcv verify` prints, keep
# its metrics equal to those reports, and survive a restart mid-job.
#
#   tests/smoke/service_smoke.sh XCV XCVD WORKDIR
#
# XCV and XCVD are the xcv and xcvd binaries; WORKDIR is emptied and
# receives the daemons' state dirs and logs, the scrapes and the CSVs.
# ctest runs it under the `smoke` label; it talks HTTP through python3's
# urllib. It checks that
#   - a job POSTed to xcvd reports the CLI's columns 1-13;
#   - the /v1/metrics solver-call, cache-hit and cache-miss deltas over that
#     job equal the report's column sums;
#   - the job's trace is well-formed JSON with a job span, and /v1/healthz
#     counts solver calls and HTTP requests;
#   - resubmitting the job replays the daemon's verdict cache: the CLI's
#     verdict columns with at most half the solver calls;
#   - a job paused mid-run, its daemon SIGTERMed and restarted on the same
#     state dir, comes back paused and resumes to the CLI's verdict columns.
set -euo pipefail
source "$(dirname "$0")/lib.sh"

xcv=$(realpath "$1")
xcvd=$(realpath "$2")
work=$3
rm -rf "$work"
mkdir -p "$work"
cd "$work"

pid=
port=
trap '[ -z "$pid" ] || kill "$pid" 2> /dev/null || true' EXIT

# start_daemon STATE_DIR LOG: starts xcvd on an ephemeral port; sets $pid
# and $port.
start_daemon() {
  "$xcvd" --port 0 --state-dir "$1" > "$2" 2>&1 &
  pid=$!
  for _ in $(seq 1 100); do
    grep -q 'listening on' "$2" && break
    sleep 0.1
  done
  port=$(sed -n 's/.*127\.0\.0\.1:\([0-9]*\).*/\1/p' "$2")
  if [ -z "$port" ]; then
    echo "FAILED: xcvd did not start" >&2
    cat "$2" >&2
    exit 1
  fi
}

# stop_daemon: SIGTERM (the journal, checkpoints and cache land on disk).
stop_daemon() {
  kill -TERM "$pid"
  wait "$pid" || true
  pid=
}

# http METHOD PATH [BODY_FILE]: the body of the daemon's answer; a non-2xx
# status fails the flow.
http() {
  python3 -c 'import sys, urllib.request
port, method, path = sys.argv[1:4]
body = open(sys.argv[4], "rb").read() if len(sys.argv) > 4 else b""
request = urllib.request.Request(f"http://127.0.0.1:{port}{path}",
                                 data=body if method == "POST" else None,
                                 method=method)
sys.stdout.buffer.write(urllib.request.urlopen(request, timeout=60).read())' \
    "$port" "$@"
}

# field NAME: member NAME of the JSON object on stdin.
field() {
  python3 -c 'import json, sys; print(json.load(sys.stdin)[sys.argv[1]])' "$1"
}

# submit SPEC_FILE: POSTs a job; prints its id.
submit() {
  http POST /v1/campaigns "$1" | field id
}

# wait_for ID FIELD VALUE: polls job ID until FIELD reads VALUE, or for
# pairs_done at least VALUE. A job that settles without it (done, failed,
# paused or cancelled), or five minutes of polling, fail the flow.
wait_for() {
  local job got status deadline=$((SECONDS + 300))
  while :; do
    job=$(http GET "/v1/campaigns/$1")
    got=$(field "$2" <<< "$job")
    [ "$got" = "$3" ] && return 0
    [ "$2" = pairs_done ] && (( got >= $3 )) && return 0
    status=$(field status <<< "$job")
    case $status in done | failed | paused | cancelled) break ;; esac
    (( SECONDS < deadline )) || break
    sleep 0.2
  done
  echo "FAILED: job $1 has $2 '$got' (status $status), expected '$3'" >&2
  exit 1
}

# report ID: the job's CSV report.
report() {
  http GET "/v1/campaigns/$1/report?format=csv"
}

# One small job for the daemon-versus-CLI checks, and one long enough to
# pause while its PBE pairs run (about 3 s in Release) for the restart.
# Both cap calls at few enough nodes that no call reaches the solver's
# per-call wall clock (0.5 s) in Release; under ASan and UBSan the slowest
# call took 0.15 s with the flow run alone on 4 vCPUs.
cat > small.json <<'EOF'
{"format": "xcv-job-spec",
 "functionals": "lda,pbe", "conditions": "EC1,EC2,EC4", "output": "csv",
 "verifier": {"budget_seconds": 0, "split_threshold": 1.25},
 "solver": {"max_nodes": 1500}}
EOF
cat > long.json <<'EOF'
{"format": "xcv-job-spec",
 "functionals": "lda,pbe", "conditions": "EC1..EC4", "output": "csv",
 "verifier": {"budget_seconds": 0, "split_threshold": 0.1},
 "solver": {"max_nodes": 300}}
EOF
"$xcv" verify --functionals=lda,pbe --conditions=EC1,EC2,EC4 \
  --budget-seconds=0 --split-threshold=1.25 --solver-nodes=1500 \
  --format=csv --quiet > small-cli.csv
"$xcv" verify --functionals=lda,pbe --conditions=EC1..EC4 \
  --budget-seconds=0 --split-threshold=0.1 --solver-nodes=300 \
  --format=csv --quiet > long-cli.csv

echo "== daemon report == CLI report; metrics deltas == report sums"
start_daemon state xcvd.log
http GET /v1/metrics > before.prom
id=$(submit small.json)
wait_for "$id" status done
report "$id" > daemon.csv
http GET /v1/metrics > after.prom
same_columns 13 small-cli.csv daemon.csv
expect_log before.prom '^# TYPE xcv_http_requests_total counter'
python3 - <<'EOF'
import csv

def delta(prefix):
    def total(path):
        return sum(float(line.rsplit(' ', 1)[1]) for line in open(path)
                   if line.startswith(prefix))
    return total('after.prom') - total('before.prom')

report = list(csv.DictReader(open('daemon.csv')))
calls, hits, misses = (sum(int(r[c]) for r in report)
                       for c in ('solver_calls', 'cache_hits', 'cache_misses'))
m_calls = delta('xcv_solver_calls_total')
m_hits = delta('xcv_cache_lookups_total{outcome="hit"}')
m_misses = delta('xcv_cache_lookups_total{outcome="miss"}')
print(f'report: {calls} calls, {hits} hits, {misses} misses')
print(f'metrics deltas: {m_calls} calls, {m_hits} hits, {m_misses} misses')
assert calls > 0, 'job made no solver calls'
assert m_calls == calls, 'solver-call counter != report sum'
assert m_hits == hits, 'cache-hit counter != report sum'
assert m_misses == misses, 'cache-miss counter != report sum'
EOF

echo "== trace endpoint and healthz"
http GET "/v1/campaigns/$id/trace" > daemon.trace.json
python3 -m json.tool daemon.trace.json > /dev/null
expect_log daemon.trace.json '"name":"job"'
http GET /v1/healthz > healthz.json
cat healthz.json
python3 - <<'EOF'
import json
m = json.load(open('healthz.json'))['metrics']
assert m['solver_calls'] > 0, 'healthz reports no solver calls'
assert m['http_requests'] > 0, 'healthz reports no http requests'
EOF

echo "== warm resubmission replays the daemon's cache"
id=$(submit small.json)
wait_for "$id" status done
report "$id" > warm.csv
same_columns 11 small-cli.csv warm.csv
cold_calls=$(column_sum daemon.csv solver_calls)
warm_calls=$(column_sum warm.csv solver_calls)
echo "cold solver calls: $cold_calls, warm: $warm_calls"
check "cold_calls > 0" "cold job made no solver calls"
check "warm_calls * 2 <= cold_calls" \
      "warm resubmission skipped fewer than half the solver calls"

# A fresh state dir keeps the cache out of the way, so the job has real
# work to pause inside: after its first finished pair (a checkpoint
# exists), while the PBE pairs still run.
echo "== pause mid-job, SIGTERM, restart on the same state dir, resume"
stop_daemon
start_daemon state2 xcvd2.log
id=$(submit long.json)
wait_for "$id" pairs_done 1
http POST "/v1/campaigns/$id/pause" > /dev/null
wait_for "$id" status paused
stop_daemon
start_daemon state2 xcvd3.log
status=$(http GET "/v1/campaigns/$id" | field status)
if [ "$status" != paused ]; then
  echo "FAILED: after the restart job $id is '$status', not paused" >&2
  exit 1
fi
http POST "/v1/campaigns/$id/resume" > /dev/null
wait_for "$id" status done
report "$id" > resumed.csv
same_columns 11 long-cli.csv resumed.csv
http POST /v1/shutdown > /dev/null
wait "$pid" || true
pid=
echo "service smoke: ok"
