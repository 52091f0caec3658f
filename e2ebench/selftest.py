#!/usr/bin/env python3
"""Determinism self-test of the benchmark.

    python3 e2ebench/selftest.py [--seed N] [--workloads a,b]

Run from the repository root. Each workload runs twice at one engine
thread and twice at the benchmark's default thread count, all with the
same seed and the shortest run (two passes). Every run's "deterministic:"
line - the work counters, vls_used, ebb_mean, table digests - must be
identical across the four runs. The pass count is left out: it depends on
machine speed. Exits 1 on any difference.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("random_offline", "dragonfly_scale", "deimos_churn")


def deterministic(workload, seed, threads):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", "0.1", "--trace", "0",
           "--threads", str(threads)]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True)
    lines = out.stdout.strip().split("\n")
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit("%s: run not correct" % workload)
    det = [l for l in lines if l.startswith("deterministic: ")][0]
    values = json.loads(det[len("deterministic: "):])
    values.pop("passes")
    return values


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--workloads", default=",".join(WORKLOADS))
    args = ap.parse_args()
    failed = False
    for w in args.workloads.split(","):
        runs = [(t, deterministic(w, args.seed, t)) for t in (1, 1, 0, 0)]
        ref = runs[0][1]
        bad = False
        for threads, values in runs[1:]:
            diff = sorted(k for k in set(ref) | set(values)
                          if ref.get(k) != values.get(k))
            if diff:
                bad = True
                print("%s: threads=%d differs from threads=1 in %s" %
                      (w, threads, ", ".join(diff)))
        print("%s: %s (%d values, vls_used %s, ebb_mean %s)" %
              (w, "FAIL" if bad else "ok", len(ref), ref["vls_used"],
               ref["ebb_mean"]))
        failed = failed or bad
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
