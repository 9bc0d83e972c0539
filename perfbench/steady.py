#!/usr/bin/env python3
"""Steadiness check: two sets of runs of every workload, compared.

    python3 perfbench/steady.py [--runs 10] [--workloads sweep,serve]
                                [--seconds S]

Run from the root of the repository.  Each of the two sets runs every
workload --runs times back to back, each run with its own seed (set k uses
seeds k*1000+1 ...).  For every end-to-end
metric it prints each set's median and quartiles and the spread
(Q3 - Q1) / median, and then whether

  * each set's spread is within a third of the metric's bound (setup_s is
    exempt: it times one cold set-up of about a millisecond per run, whose
    spread the host's noise sets; only its median is compared),
  * the second set's median is no worse than the first's by more than the
    bound, and
  * the share of failed operations is the same in every run.

Exits 1 when any of these does not hold.  Quartiles are those of Python's
statistics.quantiles(values, n=4).
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SETS = 2


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    start = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    wall = time.monotonic() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: outputs not correct")
    return result, wall


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in bench["workloads"]))
    args = ap.parse_args()
    workloads = args.workloads.split(",")
    metrics = {m["name"]: m for m in bench["end_to_end"]}

    # results[set][workload] = list of result objects
    results = [{w: [] for w in workloads} for _ in range(SETS)]
    for s in range(SETS):
        for w in workloads:
            for i in range(args.runs):
                seed = (s + 1) * 1000 + i + 1
                result, wall = run_once(w, seed, args.seconds)
                results[s][w].append(result)
                print(f"set {s + 1} run {i + 1:2d} {w:13s} seed {seed} "
                      f"{wall:5.1f}s " +
                      " ".join(f"{k}={v['value']:.6g}"
                               for k, v in result["metrics"].items()),
                      flush=True)

    ok = True
    print()
    print(f"{'workload':13s} {'metric':16s} {'set':>3s} {'median':>12s} "
          f"{'Q1':>12s} {'Q3':>12s} {'spread':>7s} {'bound':>6s}  verdict")
    for w in workloads:
        shares = {r["failed"] / r["attempted"]
                  for rs in results for r in rs[w]}
        if len(shares) != 1:
            ok = False
            print(f"{w:13s} failed share differs between runs: {shares}")
        names = results[0][w][0]["metrics"].keys()
        for name in names:
            bound = metrics[name]["bound"]
            better = metrics[name]["better"]
            medians = []
            for s in range(SETS):
                values = [r["metrics"][name]["value"] for r in results[s][w]]
                q1, med, q3 = summary(values)
                spread = (q3 - q1) / med
                medians.append(med)
                steady = name == "setup_s" or spread <= bound / 3
                verdict = "steady" if steady else "SPREAD > bound/3"
                if s > 0:
                    worse = (medians[0] - med if better == "higher"
                             else med - medians[0]) / medians[0]
                    agrees = worse <= bound
                    verdict += (f", vs set 1 {worse * 100:+.1f}% "
                                + ("ok" if agrees else "WORSE THAN BOUND"))
                    steady = steady and agrees
                ok = ok and steady
                print(f"{w:13s} {name:16s} {s + 1:3d} {med:12.6g} {q1:12.6g} "
                      f"{q3:12.6g} {spread * 100:6.1f}% {bound * 100:5.0f}%  "
                      f"{verdict}")
    print()
    print("all sets agree within the bounds" if ok else
          "NOT STEADY: see the verdicts above")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
