#!/usr/bin/env python3
"""The benchmark's own test: no correctness check is vacuous.

    python3 perfbench/test_checks.py

Builds through run.py first.  For every check, a short run with
`--plant <check>` corrupts the value that check compares -- a makespan off
by 1 ns, a dropped instantiation, a firing count off by one, a transaction
result credited to another session -- and the test asserts that the run
exits 1 naming that check.  A clean run of
every workload must pass, and an unknown check name must be refused.
"""
import json
import os
import subprocess
import sys

import run

ROOT = run.ROOT
BINARY = run.BINARY
OUT = os.path.join(ROOT, ".bench_out", "test_checks")

# (workload, check, trace): checks of the layer probes need a traced run.
PLANTS = [
    ("sweep", "sweep.count", "0"),
    ("sweep", "sweep.refsim", "0"),
    ("sweep", "sweep.lower-bound", "0"),
    ("sweep", "sweep.jobs-identical", "0"),
    ("sweep", "sweep.invariants", "1"),
    ("match_chain", "match.conflict-set", "0"),
    ("match_chain", "match.firings", "0"),
    ("match_chain", "match.cycles", "0"),
    ("match_chain", "match.halted", "0"),
    ("match_fanout", "match.final-round", "0"),
    ("serve", "serve.isolation", "0"),
    ("serve", "serve.snapshot", "0"),
    ("serve", "serve.fired-retracted", "0"),
    ("serve", "serve.added-ids", "0"),
]
WORKLOADS = ["sweep", "match_chain", "match_fanout", "serve"]


def bench(workload, trace="0", plant=None):
    cmd = [BINARY, "--workload", workload, "--seed", "7",
           "--seconds", "0.2", "--trace", trace, "--out", OUT]
    if plant:
        cmd += ["--plant", plant]
    return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)


def main():
    run.build()
    failures = []
    for workload in WORKLOADS:
        p = bench(workload)
        result = json.loads(p.stdout.strip().splitlines()[-1]) \
            if p.stdout.strip() else {}
        ok = p.returncode == 0 and result.get("correct") is True
        print(f"{'ok  ' if ok else 'FAIL'} clean {workload}")
        if not ok:
            failures.append(f"clean {workload}: exit {p.returncode}\n"
                            f"{p.stderr}")
    for workload, check, trace in PLANTS:
        p = bench(workload, trace, check)
        last = p.stdout.strip().splitlines()[-1] if p.stdout.strip() else "{}"
        ok = (p.returncode == 1 and
              f"check failed: {check}:" in p.stderr and
              json.loads(last).get("correct") is False)
        print(f"{'ok  ' if ok else 'FAIL'} planted {check} ({workload})")
        if not ok:
            failures.append(f"planted {check}: exit {p.returncode}\n"
                            f"{p.stderr}")
    p = bench("match_chain", plant="no.such-check")
    ok = p.returncode == 2
    print(f"{'ok  ' if ok else 'FAIL'} unknown plant refused")
    if not ok:
        failures.append(f"unknown plant: exit {p.returncode}")
    for f in failures:
        print(f, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
