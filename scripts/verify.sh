#!/usr/bin/env bash
# Tier-1 verification: configure, build, run the test suite, then smoke-run
# the scheduler subsystem end to end on the simulated Zen 2 target.
# Mirrors .github/workflows/ci.yml so local runs and CI agree.
set -euo pipefail
cd "$(dirname "$0")/.."

cmake -B build -S .
cmake --build build -j "$(nproc)"
(cd build && ctest --output-on-failure -j "$(nproc)")

# Scheduler smoke: a dynamic profile and a three-phase campaign, both in
# virtual time (no host stress, safe on shared CI runners).
./build/fs2 --simulate=zen2 --freq 1500 -t 30 \
    --load-profile=sine:low=10,high=90,period=5 \
    --measurement --start-delta=2000 --stop-delta=1000

campaign="$(mktemp)"
trap 'rm -f "$campaign"' EXIT
cat > "$campaign" <<'EOF'
phase name=warmup duration=10 profile=constant:30
phase name=swing  duration=20 profile=sine:low=10,high=90,period=5
phase name=peak   duration=10 profile=square:low=0,high=100,period=2
EOF
./build/fs2 --simulate=zen2 --freq 1500 --campaign "$campaign"

# Closed-loop smoke: the setpoint-stepping campaign must converge on every
# phase, and the recorded duty-cycle trace must replay open-loop.
trace="$(mktemp)"
trap 'rm -f "$campaign" "$trace"' EXIT
./build/fs2 --simulate=zen2 --freq 1500 \
    --campaign examples/setpoint_steps.campaign \
    --require-convergence --record-trace "$trace"
./build/fs2 --simulate=zen2 --freq 1500 -t 30 --load-profile "trace:file=$trace"

# Cluster smoke: a coordinator plus two heterogeneous in-process sim agents
# over loopback TCP, holding a 500 W global budget — must converge on every
# phase, in lockstep, with the merged per-node + cluster-aggregate CSV.
# --trace-out exercises the fleet tracer end to end: agents ship spans, the
# coordinator rebases them through clock sync and writes trace_event JSON.
fleet_trace="$(mktemp)"
trap 'rm -f "$campaign" "$trace" "$fleet_trace"' EXIT
./build/fs2 --loopback zen2@1500,haswell@2000 \
    --campaign examples/cluster_acceptance.campaign \
    --target cluster-power=500W --require-convergence --log-level warn \
    --trace-out "$fleet_trace"
# The exported timeline must be valid JSON with one process per node plus
# the coordinator, and clock-rebased per-node phase spans.
FLEET_TRACE="$fleet_trace" python3 - <<'PYEOF'
import json, os
with open(os.environ["FLEET_TRACE"]) as f:
    doc = json.load(f)
events = doc["traceEvents"]
names = {e["args"]["name"] for e in events if e.get("ph") == "M"}
assert {"coordinator", "n0-zen2", "n1-haswell"} <= names, names
spans = [e for e in events if e.get("ph") == "X"]
assert any(e["name"].startswith("phase:") for e in spans), "no phase spans"
assert all(e["ts"] >= 0 and e["dur"] >= 0 for e in spans), "negative ts/dur"
print(f"fleet trace OK: {len(spans)} spans across {len(names)} processes")
PYEOF

# Agent smoke: the same budget campaign across separate processes — a
# coordinator plus two real `fs2 --agent` nodes, the production agent path.
# The agents dial before the coordinator listens (they retry the connect).
agent_port=7411
./build/fs2 --agent "127.0.0.1:$agent_port" --simulate=zen2 --freq 1500 --log-level warn &
zen2_agent=$!
./build/fs2 --agent "127.0.0.1:$agent_port" --simulate=haswell --freq 2000 --log-level warn &
haswell_agent=$!
timeout 60 ./build/fs2 --coordinator --listen "$agent_port" --nodes 2 \
    --campaign examples/cluster_acceptance.campaign \
    --target cluster-power=500W --require-convergence --log-level warn > /dev/null
wait "$zen2_agent" || { echo "verify: zen2 agent failed" >&2; exit 1; }
wait "$haswell_agent" || { echo "verify: haswell agent failed" >&2; exit 1; }

# Live metrics plane: the same loopback fleet with the exposition endpoint
# pinned (--listen under --loopback), scraped over real HTTP mid-run. The
# epoch delay keeps the run alive long enough for the scrape; the checker
# validates the payload's exposition grammar, fleet rollups, per-node
# labels, and histogram summaries. --flight-out arms the crash recorder
# (empty after a clean run — it only dumps on alerts or abnormal exit).
metrics_port=7391
flight_dump="flight_dump.txt"
scrape="$(mktemp)"
trap 'rm -f "$campaign" "$trace" "$fleet_trace" "$scrape"' EXIT
timeout 60 ./build/fs2 --loopback zen2@1500,haswell@2000 \
    --campaign examples/cluster_acceptance.campaign \
    --target cluster-power=500W --require-convergence --log-level warn \
    --listen "$metrics_port" --metrics-interval 0.25 \
    --cluster-start-delay 4 --flight-out "$flight_dump" > /dev/null &
metrics_pid=$!
scraped=0
for _ in $(seq 1 100); do
  if curl -s --max-time 2 "http://127.0.0.1:$metrics_port/metrics" > "$scrape" \
      && grep -q 'fs2_node_up{node="n0-zen2"} 1' "$scrape"; then
    scraped=1
    break
  fi
  sleep 0.1
done
[ "$scraped" -eq 1 ] || { echo "verify: no mid-run /metrics scrape landed" >&2; exit 1; }
python3 scripts/check_metrics_exposition.py 2 < "$scrape"
curl -s --max-time 2 "http://127.0.0.1:$metrics_port/healthz" | grep -qx "ok" \
    || { echo "verify: /healthz did not answer ok" >&2; exit 1; }
wait "$metrics_pid"

# Fleet scale: 512 in-process agents on one event loop, global budget held
# on every phase, in lockstep — the whole run must stay inside CI's time
# budget (it takes a few seconds; the 60 s timeout is pure safety margin).
timeout 60 ./build/fs2 --loopback zen2@1500x256,haswell@2000x256 \
    --campaign examples/cluster_scale.campaign \
    --target cluster-power=96000W --require-convergence \
    --cluster-start-delay 2 --log-level warn > /dev/null

# Chaos smoke: the same fleet machinery under deterministic fault
# injection — 1% frame drop, 2 ms delay jitter, and one node crashed at
# the phase-1 barrier. The replacement must reconnect with backoff,
# rejoin mid-campaign, and contribute to the final phase; the run is
# still REQUIRED to converge on every phase. The seeded schedule makes a
# failure replayable bit-for-bit; the flight dump is kept on failure.
chaos_log="$(mktemp)"
trap 'rm -f "$campaign" "$trace" "$fleet_trace" "$scrape" "$chaos_log"' EXIT
if ! timeout 120 ./build/fs2 --loopback zen2@1500x64 \
    --campaign examples/cluster_chaos.campaign \
    --target cluster-power=16000W --require-convergence \
    --chaos "seed=7,drop=1%,delay=2ms,kill=node5@phase1" \
    --flight-out chaos_flight_dump.txt --log-level warn > "$chaos_log"; then
  echo "verify: chaos smoke failed — log follows (flight dump in chaos_flight_dump.txt)" >&2
  cat "$chaos_log" >&2
  exit 1
fi
grep -q "REJOINED at phase" "$chaos_log" \
    || { echo "verify: chaos smoke converged but no rejoin happened" >&2; exit 1; }
grep -q "'cool': start spread.*across 64 nodes" "$chaos_log" \
    || { echo "verify: rejoined node missing from the final phase" >&2; exit 1; }

# Fuzz smoke: a deterministic seeded discovery sweep over a small loopback
# fleet must produce a non-empty ranked corpus (non-zero exit otherwise)
# and a report whose spec column round-trips through the campaign grammar.
fuzz_report="$(mktemp)"
trap 'rm -f "$campaign" "$trace" "$fleet_trace" "$fuzz_report"' EXIT
./build/fs2 --fuzz --loopback zen2@2000x4 \
    --fuzz-population 8 --fuzz-generations 1 --fuzz-seed 7 \
    --fuzz-duration 3 --cluster-start-delay 0.1 \
    --fuzz-report "$fuzz_report" --log-level warn | grep -q "ranked corpus"
head -1 "$fuzz_report" | grep -q "spec" || { echo "fuzz report missing header" >&2; exit 1; }
[ "$(wc -l < "$fuzz_report")" -gt 1 ] || { echo "fuzz report has no rows" >&2; exit 1; }
# The discovered-pattern replay campaign must parse and run end to end.
./build/fs2 --simulate=zen2 --freq 2000 \
    --campaign examples/fuzz_discovery.campaign > /dev/null

# Perf trajectory: regenerate BENCH_cluster.json against the committed
# pre-PR baseline and gate on the coordinator-ingest speedup.
./scripts/bench_report.sh

echo "verify: OK"
