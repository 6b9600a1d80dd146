#!/usr/bin/env python3
"""fs2 benchmark: build fs2bench from this checkout, run one seeded
workload, check its outputs and print its metrics.

    python3 perfbench/run.py --workload tune-sim --seed 1 --seconds 10 --trace 0

Run it from the root of a checkout. The build goes to $CARGO_TARGET_DIR,
or to .bench_build when that is unset. Human-readable lines come first;
the last line of standard output is one JSON object:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end list, with
--trace 1 its per_layer list. perfbench/README.md describes the workloads.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import stats  # noqa: E402

WORKLOADS = ("tune-sim", "stress-host", "fleet-stream", "fleet-budget")
#: Units of each workload's own throughput figure (reported as work_per_s).
WORK_UNITS = {
    "tune.candidates_per_s": "1/s",
    "stress.ginstr_per_s": "Ginstr/s",
    "fleet.samples_per_s": "1/s",
    "fleet.node_s_per_s": "s/s",
}
#: Throughput figures whose units are fixed-length windows, not fixed work.
TIMED_UNITS = {"stress.ginstr_per_s"}
#: Per-run figures printed by name above the result line.
NAMED_SCALARS = {
    "tune.optimum_w": "W",
    "tune.default_w": "W",
    "stress.duty_error": "fraction",
    "fleet.node_s_per_s": "s/s",
    "tuning.unique_ratio": "ratio",
    "trace.dropped_spans": "count",
}
#: The whole run must end within 180 s; leave room for the build check.
RUN_TIMEOUT_S = 170


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build(build_dir):
    """Configure (once) and build fs2bench; returns the binary's path."""
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "perfbench-build.log")
    with open(log_path, "a") as log:
        steps = []
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", build_dir, "--target", "fs2bench",
                      "-j", str(len(os.sched_getaffinity(0)))])
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                raise RuntimeError("build failed: %s (log: %s)" % (" ".join(step), log_path))
    return os.path.join(build_dir, "fs2bench")


def work_per_s(raw):
    """The run's throughput over its units (per-unit rates in raw["work"])."""
    return stats.throughput(raw["work"], equal_time=raw["work_name"] in TIMED_UNITS)


def end_to_end_values(raw):
    return {
        "setup_s": stats.median(raw["setup_s"]),
        "peak_rss_mb": raw["peak_rss_mb"],
        "work_per_s": work_per_s(raw),
    }


def per_layer_values(raw):
    values = {}
    for name, samples in raw["layers"].items():
        summary = stats.summarize(samples)
        values[name] = summary["median"]
        values[name + ".tail"] = summary["tail"]
        values[name + ".n"] = summary["n"]
    for name, samples in raw["scalars"].items():
        values[name] = stats.median(samples) if samples else 0.0
    for layer, ms in raw.get("self_ms", {}).items():
        values[layer + ".self_ms"] = ms
    values["residual_ms"] = raw.get("residual_ms", 0.0)
    values["wall_ms"] = raw.get("wall_ms", 0.0)
    values["trace.work_per_s"] = work_per_s(raw)
    return values


def compose_result(raw, trace, benchmark):
    """The result object: every metric of the mode's BENCHMARK.json list,
    0 where the workload does not pass through that layer."""
    values = per_layer_values(raw) if trace else end_to_end_values(raw)
    listed = benchmark["per_layer" if trace else "end_to_end"]
    metrics = {m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
               for m in listed}
    checks_ok = all(passed == total for passed, total in raw["checks"].values())
    return {
        "correct": raw["failed"] == 0 and checks_ok and raw["attempted"] >= 1,
        "attempted": int(raw["attempted"]),
        "failed": int(raw["failed"]),
        "metrics": metrics,
    }


def report_lines(raw, trace):
    """Human-readable summary: checks, failed share, the workload's named
    figures and, traced, the per-layer samples and self-time table."""
    lines = ["workload %s" % raw["workload"]]
    for name, (passed, total) in sorted(raw["checks"].items()):
        lines.append("check %-28s %d/%d" % (name, passed, total))
    for error in raw["errors"]:
        lines.append("error %s" % error)
    lines.append("failed_share = %.6g (%d of %d)" % (
        raw["failed"] / max(raw["attempted"], 1), raw["failed"], raw["attempted"]))
    lines.append("%s = %.6g %s (over %d units)" % (
        raw["work_name"], work_per_s(raw), WORK_UNITS[raw["work_name"]], len(raw["work"])))
    lines.append("setup_s = %.6g s (median of %d)" % (stats.median(raw["setup_s"]),
                                                      len(raw["setup_s"])))
    lines.append("peak_rss_mb = %.6g MB" % raw["peak_rss_mb"])
    for name, unit in NAMED_SCALARS.items():
        if raw["scalars"].get(name) and name != raw["work_name"]:
            lines.append("%s = %.6g %s" % (name, stats.median(raw["scalars"][name]), unit))
    if trace:
        for name, samples in sorted(raw["layers"].items()):
            s = stats.summarize(samples)
            lines.append("layer %-34s median %.6g  p%g %.6g  n %d" % (
                name, s["median"], s["tail_pct"], s["tail"], s["n"]))
        lines.append("self time (ms) of %.1f ms wall:" % raw["wall_ms"])
        for layer, ms in sorted(raw["self_ms"].items()):
            lines.append("  %-12s %10.2f" % (layer, ms))
        lines.append("  %-12s %10.2f" % ("residual", raw["residual_ms"]))
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    started = time.monotonic()

    try:
        benchmark = load_benchmark()
        build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                                    os.path.join(ROOT, ".bench_build"))
        binary = build(build_dir)
        tag = "%s-%d-%d" % (args.workload, args.seed, args.trace)
        raw_path = os.path.join(build_dir, "raw-%s.json" % tag)
        if os.path.exists(raw_path):
            os.remove(raw_path)
        command = [binary, "--workload", args.workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace),
                   "--out", raw_path, "--spans", os.path.join(build_dir, "spans-%s.tsv" % tag)]
        timeout = max(RUN_TIMEOUT_S - (time.monotonic() - started), 1.0)
        proc = subprocess.run(command, timeout=timeout)
        if proc.returncode != 0:
            raise RuntimeError("fs2bench exited with %d" % proc.returncode)
        with open(raw_path) as f:
            raw = json.load(f)
        if not raw["work"] or not raw["setup_s"]:
            raise RuntimeError("no unit of work completed: %s" % raw["errors"])
        result = compose_result(raw, args.trace == 1, benchmark)
    except (OSError, RuntimeError, ValueError, KeyError, subprocess.TimeoutExpired) as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 1

    for line in report_lines(raw, args.trace == 1):
        print(line)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
