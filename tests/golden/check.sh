#!/usr/bin/env bash
# Golden-output check: runs fs2 on the deterministic simulated workloads CI
# smokes (three example campaigns, the sine and power-target single runs,
# a fixed-seed NSGA-II tuning run, a seeded local fuzz sweep and an
# open-loop loopback fleet) and compares stdout, --record-trace,
# --control-log, --optimization-log and --fuzz-report byte for byte
# against the files in this directory, together with the --help text.
#
#   tests/golden/check.sh FS2_BINARY REPO_ROOT            # compare (ctest)
#   tests/golden/check.sh FS2_BINARY REPO_ROOT --update   # rewrite the files
#
# A file the run does not write (e.g. NAME.ctl.csv of a run without
# --control-log) must stay unwritten; its golden file is simply absent.
set -euo pipefail
fs2="$(cd "$(dirname "$1")" && pwd)/$(basename "$1")"
root="$(cd "$2" && pwd)"
update="${3:-}"
golden="$root/tests/golden"
examples="$root/examples"
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT
cd "$work"
failed=0

# check FILE... — compare (or with --update, store) each output file.
check() {
  local file
  for file in "$@"; do
    if [ -n "$update" ]; then
      rm -f "$golden/$file"
      if [ -f "$file" ]; then cp "$file" "$golden/$file"; fi
    elif [ -f "$file" ] && [ -f "$golden/$file" ]; then
      if ! cmp -s "$file" "$golden/$file"; then
        echo "golden: $file differs" >&2
        diff "$golden/$file" "$file" | head -20 >&2 || true
        failed=1
      fi
    elif [ -f "$file" ] || [ -f "$golden/$file" ]; then
      echo "golden: $file is written by only one of the golden set and this run" >&2
      failed=1
    fi
  done
}

# run NAME ARGS... — fs2 with stdout in NAME.out and --record-trace
# pointed at NAME.trace.csv. The closed-loop runs pass --control-log
# NAME.ctl.csv themselves; the others must write no NAME.ctl.csv.
run() {
  local name="$1"
  shift
  "$fs2" "$@" --record-trace "$name.trace.csv" --log-level error > "$name.out"
  check "$name.out" "$name.trace.csv" "$name.ctl.csv"
}

# The help text, so that a change to a flag's help line shows.
"$fs2" --help > help.out
check help.out

run power_oscillation --simulate=zen2 --freq 1500 \
    --campaign "$examples/power_oscillation.campaign"
run setpoint_steps --simulate=zen2 --freq 1500 \
    --campaign "$examples/setpoint_steps.campaign" --require-convergence \
    --control-log setpoint_steps.ctl.csv
run fuzz_discovery --simulate=zen2 --freq 2000 \
    --campaign "$examples/fuzz_discovery.campaign"
run sine --simulate=zen2 --freq 1500 -t 30 \
    --load-profile=sine:low=10,high=90,period=5 \
    --measurement --start-delta=2000 --stop-delta=1000
run target_power --simulate=zen2 --freq 1500 -t 30 --target power=300W \
    --measurement --require-convergence --control-log target_power.ctl.csv

# Self-tuning (Sec. IV-E) on the simulator: the log holds every
# candidate's objectives, so any change to the measurement window shows.
"$fs2" --simulate=zen2 --freq 2000 --optimize=NSGA2 --individuals 20 --generations 10 \
    --seed 1 --optimization-log optimize.csv --log-level error > optimize.out
check optimize.out optimize.csv

# Local fuzz sweep, one simulated candidate at a time: the report holds
# every candidate's response signature, so any change to how a candidate
# phase is built or measured shows.
"$fs2" --fuzz --simulate=haswell --freq 1800 --fuzz-seed 7 --fuzz-population 64 \
    --fuzz-generations 4 --fuzz-duration 4 --sim-sample-hz 200 \
    --start-delta 300 --stop-delta 200 --fuzz-report fuzz_local.report.csv \
    --log-level error > fuzz_local.out
check fuzz_local.out fuzz_local.report.csv

# Loopback fleet: only the per-node rows of the merged CSV are
# deterministic. The coordinator's port, clock offsets, begin spreads and
# the cluster-aggregate rows carry wall-clock timing.
"$fs2" --loopback zen2@1500,haswell@2000 \
    --campaign "$examples/power_oscillation.campaign" --log-level error \
    | awk -F, '/^metric,unit,/ { csv = 1 } csv && $NF != "cluster"' > loopback_nodes.csv
check loopback_nodes.csv

if [ -n "$update" ]; then
  echo "golden: files rewritten in $golden"
elif [ "$failed" -ne 0 ]; then
  echo "golden: FAILED (use --update only for a deliberate output change)" >&2
  exit 1
else
  echo "golden: all outputs match"
fi
