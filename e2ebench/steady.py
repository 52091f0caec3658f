#!/usr/bin/env python3
"""Checks that the benchmark is steady: seeded runs, interleaved sets.

    python3 e2ebench/steady.py [--seeds 10] [--workloads a,b]

Run from the repository root. For each seed (101, 102, ...), every workload
runs once in each of two sets A and B, alternating which set goes first, so
a slow or fast phase of the machine falls on both sets alike. Per workload
and end-to-end metric, setup_s included, it prints each set's median and
quartile spread ((Q3 - Q1) / median, from statistics.quantiles(n=4))
against the metric's bound from BENCHMARK.json, and how far B's median
moved from A's in the metric's worse direction. Exits 1 when a spread or
a shift exceeds its bound. Raw results go to .bench_build/steady.json.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
FIRST_SEED = 101


def run(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True)
    result = json.loads(out.stdout.strip().split("\n")[-1])
    if not result["correct"] or result["failed"]:
        sys.exit("incorrect result: %s seed %d: %s" % (workload, seed, result))
    return {k: v["value"] for k, v in result["metrics"].items()}


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else 0.0


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in spec["workloads"]))
    args = ap.parse_args()
    workloads = args.workloads.split(",")

    results = {w: ([], []) for w in workloads}
    for i in range(args.seeds):
        seed = FIRST_SEED + i
        for w in workloads:
            for s in ((0, 1) if i % 2 == 0 else (1, 0)):
                results[w][s].append(run(w, seed, spec["run_seconds"]))
                print("seed %d %s set %s done" % (seed, w, "AB"[s]),
                      file=sys.stderr)
    os.makedirs(os.path.join(ROOT, ".bench_build"), exist_ok=True)
    with open(os.path.join(ROOT, ".bench_build", "steady.json"), "w") as f:
        json.dump(results, f, indent=1)

    ok = True
    for w in workloads:
        print("\n%s (%d seeds)" % (w, args.seeds))
        print("  %-15s %12s %8s %12s %8s %7s %8s" %
              ("metric", "median A", "spread A", "median B", "spread B",
               "bound", "B vs A"))
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            sets = [[r[name] for r in s] for s in results[w]]
            meds = [statistics.median(v) for v in sets]
            spreads = [spread(v) for v in sets]
            delta = (meds[1] - meds[0]) / meds[0] if meds[0] else 0.0
            worse = delta if m["better"] == "lower" else -delta
            flag = ""
            if max(spreads) > bound:
                flag, ok = " SPREAD>BOUND", False
            elif max(spreads) > bound / 3:
                flag = " spread>bound/3"
            if worse > bound:
                flag, ok = flag + " MEDIAN-SHIFT>BOUND", False
            print("  %-15s %12.6g %8.4f %12.6g %8.4f %7.3f %+8.4f%s" %
                  (name, meds[0], spreads[0], meds[1], spreads[1], bound,
                   worse, flag))
    print("\nsteady" if ok else "\nNOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
