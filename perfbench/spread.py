#!/usr/bin/env python3
"""Runs the benchmark once per seed on each workload and reports, for
every end-to-end metric, the median and the interquartile spread as a
share of the median (statistics.quantiles(values, n=4)) next to the
metric's bound in BENCHMARK.json.

Run from the repository root:

  python3 perfbench/spread.py --runs 10                       # every workload
  python3 perfbench/spread.py --runs 5 --workload rk2-lshape  # one workload
  python3 perfbench/spread.py --runs 10 --out a.json          # keep the values
  python3 perfbench/spread.py --runs 10 --against a.json      # also compare medians

A spread above a third of its bound, or (with --against) a median worse
than the earlier set's by more than its bound, is marked and makes the
script exit 1. setup_s is exempt from the spread rule, not from the
median comparison.
"""
import argparse
import collections
import json
import statistics
import subprocess
import sys
import time


def run_once(spec, workload, seed, seconds):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(seconds), "--trace", "0"]
    start = time.time()
    p = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    wall = time.time() - start
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {p.returncode}\n{p.stderr[-2000:]}")
    res = json.loads(lines[-1])
    if not res["correct"] or res["failed"]:
        sys.exit(f"{workload} seed {seed}: incorrect result {res}")
    return {k: v["value"] for k, v in res["metrics"].items()}, wall


def main():
    spec = json.load(open("BENCHMARK.json"))
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--workload", action="append")
    ap.add_argument("--out")
    ap.add_argument("--against")
    args = ap.parse_args()

    metrics = {m["name"]: m for m in spec["end_to_end"]}
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    earlier = json.load(open(args.against)) if args.against else {}
    values = {}
    bad = False
    for w in workloads:
        vals = collections.defaultdict(list)
        for i in range(args.runs):
            seed = args.first_seed + i
            got, wall = run_once(spec, w, seed, args.seconds)
            for k, v in got.items():
                vals[k].append(v)
            print(f"{w} seed {seed} ({wall:.1f} s): "
                  + " ".join(f"{k}={v:.5g}" for k, v in sorted(got.items())), file=sys.stderr)
        values[w] = vals
        for name, m in metrics.items():
            v = vals[name]
            med = statistics.median(v)
            q1, _, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med
            mark = ""
            if name != "setup_s" and spread > m["bound"] / 3:
                mark, bad = " SPREAD", True
            line = f"{w:14s} {name:14s} median {med:.5g} {m['unit']:7s} spread {spread:.3f} (bound {m['bound']})"
            if w in earlier:
                old = statistics.median(earlier[w][name])
                worse = (med - old) / old if m["better"] == "lower" else (old - med) / old
                line += f" vs earlier {old:.5g}: worse by {worse:+.3f}"
                if worse > m["bound"]:
                    mark, bad = mark + " DRIFT", True
            print(line + mark)
    if args.out:
        with open(args.out, "w") as f:
            json.dump(values, f, indent=1)
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
