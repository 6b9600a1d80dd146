#!/usr/bin/env python3
"""Run the benchmark over several seeds and report how steady it is.

    python3 perfbench/spread.py --seeds 1-10 [--workloads tune-sim,fleet-stream]
                                [--save set.json] [--compare earlier.json]

For each workload and end-to-end metric it prints the median of the runs
and the interquartile spread as a share of the median, next to the
metric's bound from BENCHMARK.json. A spread above a third of the bound is
flagged (setup_s is exempt from the spread rule). With --compare, it also
prints how much worse each median is than the saved set's, flagged when
worse by more than the bound.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import stats  # noqa: E402


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise RuntimeError("%s seed %d exited with %d" % (workload, seed, proc.returncode))
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError("%s seed %d: outputs not correct" % (workload, seed))
    return {name: m["value"] for name, m in result["metrics"].items()}


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        benchmark = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in benchmark["workloads"]))
    parser.add_argument("--save")
    parser.add_argument("--compare")
    args = parser.parse_args()

    earlier = {}
    if args.compare:
        with open(args.compare) as f:
            earlier = json.load(f)
    runs = {}
    for workload in args.workloads.split(","):
        runs[workload] = [run_once(workload, seed, benchmark["run_seconds"])
                          for seed in parse_seeds(args.seeds)]
        for metric in benchmark["end_to_end"]:
            name = metric["name"]
            values = [r[name] for r in runs[workload]]
            spread = stats.spread(values)
            flag = "" if name == "setup_s" or spread < metric["bound"] / 3 else "  SPREAD"
            line = "%-13s %-12s median %-12.6g spread %6.3f (bound %.2f)%s" % (
                workload, name, stats.median(values), spread, metric["bound"], flag)
            if workload in earlier:
                before = [r[name] for r in earlier[workload]]
                worse = stats.worsening(stats.median(before), stats.median(values),
                                        metric["better"])
                ok = stats.within_bound(before, values, metric["better"], metric["bound"])
                line += "  vs saved %+.3f%s" % (worse, "" if ok else "  WORSE")
            print(line, flush=True)
    if args.save:
        with open(args.save, "w") as f:
            json.dump(runs, f, indent=1)


if __name__ == "__main__":
    main()
