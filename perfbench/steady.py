#!/usr/bin/env python3
"""Steadiness runner: runs each workload N times and reports every metric's
median and quartile spread against the bounds in BENCHMARK.json.

    python3 perfbench/steady.py --runs 10                       # every workload
    python3 perfbench/steady.py --runs 5 --workloads sw-small --first-seed 100
    python3 perfbench/steady.py --runs 10 --save parent.json    # keep the values
    python3 perfbench/steady.py --runs 10 --baseline parent.json  # compare

Spread is (Q3 - Q1) / median over the runs, with quartiles as Python's
statistics.quantiles(values, n=4) gives them. A metric is STEADY when its
spread stays under a third of its bound (setup_s has no spread limit, only
a regression bound). With --baseline, each median is compared with the
saved one and flagged WORSE when it moved the wrong way by more than the
bound. Run from the root of the checkout; each run uses its own seed.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(workload, seed, trace):
    command = ["python3", os.path.join(HERE, "run.py"), "--workload", workload, "--seed",
               str(seed), "--trace", str(trace)]
    proc = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"  {workload} seed {seed}: FAILED (exit {proc.returncode})", file=sys.stderr)
        return None
    result = json.loads(lines[-1])
    return {name: m["value"] for name, m in result["metrics"].items()}


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, (q3 - q1) / q2 if q2 else float("inf")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", nargs="+", default=names, choices=names)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--save", help="write every run's values to this JSON file")
    parser.add_argument("--baseline", help="compare medians with a file written by --save")
    args = parser.parse_args()
    if args.runs < 2:
        parser.error("--runs must be at least 2 to compute quartiles")

    metrics = spec["per_layer" if args.trace else "end_to_end"]
    baseline = None
    if args.baseline:
        with open(args.baseline) as f:
            baseline = json.load(f)
    collected = {}
    all_steady = True
    for workload in args.workloads:
        runs = []
        for i in range(args.runs):
            values = run_once(workload, args.first_seed + i, args.trace)
            if values is None:
                all_steady = False
                continue
            runs.append(values)
        collected[workload] = runs
        print(f"\n{workload}: {len(runs)} runs")
        if len(runs) < 2:
            all_steady = False
            continue
        print(f"  {'metric':36} {'median':>12} {'spread':>8} {'bound':>6}  verdict")
        for m in metrics:
            values = [r[m["name"]] for r in runs]
            med, sp = spread(values)
            bound = m.get("bound")
            verdict = ""
            if bound is not None:
                if m["name"] == "setup_s":
                    verdict = "(set-up: no spread limit)"
                elif sp < bound / 3:
                    verdict = "STEADY"
                else:
                    verdict = "WIDE" if sp < bound else "OVER BOUND"
                    all_steady = False
            line = f"  {m['name']:36} {med:12.4f} {sp:8.4f} {bound if bound is not None else '':>6}  {verdict}"
            if baseline and workload in baseline and bound is not None:
                base = statistics.median(r[m["name"]] for r in baseline[workload])
                change = (med - base) / base if base else 0.0
                worse = change > bound if m["better"] == "lower" else -change > bound
                line += f"  base {base:.4f} ({change:+.1%}){' WORSE' if worse else ''}"
            print(line)
    if args.save:
        with open(args.save, "w") as f:
            json.dump(collected, f, indent=1)
    sys.exit(0 if all_steady else 1)


if __name__ == "__main__":
    main()
