#!/usr/bin/env bash
# Determinism smoke flow: how a campaign is run must not change its report.
#
#   tests/smoke/determinism_smoke.sh XCV WORKDIR
#
# XCV is the xcv binary; WORKDIR is emptied and receives the CSVs and
# traces. ctest runs it under the `smoke` label. For lda,pbe x EC1,EC2 and
# for the whole catalogue, every run below matches the one-thread run at
# the default wave width and the native SIMD tier on columns 1-13:
#   - wave widths 1 and 64 at 1, 2 and 4 threads (one thread runs lockstep
#     batches, two and four the pool's tickets);
#   - the scalar SIMD tier (XCV_SIMD=scalar) and the native one at 1 and 4
#     threads.
# The catalogue's tapes add pow, pown, cbrt and ite; no catalogue tape has
# min or max, which the oracle audits of interval_batch_test and
# interval_backward_batch_test cover. Then, for lda,pbe, a traced run
# matches the untraced one, and under the fixed trace clock two traced runs
# write byte-identical, well-formed traces.
set -euo pipefail
source "$(dirname "$0")/lib.sh"

xcv=$(realpath "$1")
work=$2
rm -rf "$work"
mkdir -p "$work"
cd "$work"

"$xcv" info

# invariant NAME ARGS...: runs the campaign ARGS one-thread into NAME.csv,
# then every other way listed above, each matching it on columns 1-13.
invariant() {
  local name=$1 t w
  shift
  echo "== $name: wave widths, threads and SIMD tiers"
  "$xcv" verify "$@" --threads=1 --format=csv --quiet > $name.csv
  for t in 1 2 4; do
    for w in 1 64; do
      "$xcv" verify "$@" --threads=$t --wave-width=$w --format=csv --quiet \
        > $name-w$w-t$t.csv
      same_columns 13 $name.csv $name-w$w-t$t.csv
    done
  done
  for t in 1 4; do
    XCV_SIMD=scalar "$xcv" verify "$@" --threads=$t --format=csv --quiet \
      > $name-scalar-t$t.csv
    same_columns 13 $name.csv $name-scalar-t$t.csv
  done
  "$xcv" verify "$@" --threads=4 --format=csv --quiet > $name-native-t4.csv
  same_columns 13 $name.csv $name-native-t4.csv
}

lda_pbe=(--functionals=lda,pbe --conditions=EC1,EC2 --budget-seconds=0
         --solver-nodes=1500 --split-threshold=1.25)
invariant lda_pbe "${lda_pbe[@]}"
invariant catalogue --functionals=PBE,LYP,AM05,SCAN,VWN_RPA,PBEsol,rSCAN \
  --conditions=EC1..EC7 --budget-seconds=0 --solver-nodes=400 \
  --split-threshold=2.5

echo "== traced == untraced, fixed-clock traces identical"
for run in a b; do
  XCV_TRACE_CLOCK=fixed "$xcv" verify "${lda_pbe[@]}" --threads=1 \
    --trace=run-$run.trace.json --format=csv --quiet > traced-$run.csv
  same_columns 13 lda_pbe.csv traced-$run.csv
done
python3 -m json.tool run-a.trace.json > /dev/null
cmp run-a.trace.json run-b.trace.json
expect_log run-a.trace.json '"name":"solve"'
echo "determinism smoke: ok"
