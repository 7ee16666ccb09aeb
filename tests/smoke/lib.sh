# Helpers shared by the smoke flows; each flow sources this file.
#
# CSV columns 1-11 (functional..witnesses) are a report's verdict content,
# 12-13 its solver call and timeout counts. The cache and timing columns
# after them are run-local by design, so a flow compares a prefix.

# same_columns N A B: CSV files A and B agree on columns 1..N (diff shows
# where they do not).
same_columns() {
  diff <(cut -d, -f1-"$1" "$2") <(cut -d, -f1-"$1" "$3")
}

# column_sum CSV NAME: the sum of the integer column NAME over every row.
column_sum() {
  python3 -c 'import csv, sys
print(sum(int(r[sys.argv[2]]) for r in csv.DictReader(open(sys.argv[1]))))' \
    "$1" "$2"
}

# check CONDITION MESSAGE: fails the flow with MESSAGE unless the bash
# arithmetic CONDITION holds.
check() {
  if ! (( $1 )); then
    echo "FAILED: $2 ($1)" >&2
    exit 1
  fi
}

# expect_exit CODE COMMAND...: runs COMMAND, which must exit with CODE.
expect_exit() {
  local want=$1 rc=0
  shift
  "$@" || rc=$?
  if [ "$rc" -ne "$want" ]; then
    echo "FAILED: '$*' exited $rc, expected $want" >&2
    exit 1
  fi
}

# expect_log FILE PATTERN: FILE has a line matching the grep PATTERN.
expect_log() {
  if ! grep -q -- "$2" "$1"; then
    echo "FAILED: no line matching '$2' in $1" >&2
    exit 1
  fi
}
