#!/usr/bin/env python3
"""Steadiness check for the image-lifecycle benchmark.

    python3 lifecycle_bench/steady.py [--runs 10] [--sets 1] [--seed 1]

Run from the repository root. For each workload in BENCHMARK.json, runs
run.py --runs times per set with seeds seed, seed+1, ... and prints, per
end-to-end metric, the
median, the first and third quartiles (Python's statistics.quantiles, n=4)
and the spread (q3 - q1) / median against the metric's bound from
BENCHMARK.json, plus the share of failed operations. With --sets 2 it runs
the same seeds twice and also prints how far the second median moved from
the first, as a share of the first, in the metric's worse direction.
Each run's stderr, which includes the timings as measured before the
host-speed scaling, goes to .bench_out/steady/<workload>-<set>-<seed>.log.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, set_index, seed, seconds):
    command = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    logs = os.path.join(ROOT, ".bench_out", "steady")
    os.makedirs(logs, exist_ok=True)
    log_path = os.path.join(logs, "%s-%d-%d.log" % (workload, set_index + 1, seed))
    with open(log_path, "w") as log:
        result = subprocess.run(command, stdout=subprocess.PIPE, stderr=log, text=True,
                                cwd=ROOT)
    lines = result.stdout.strip().splitlines()
    if result.returncode != 0 or not lines:
        raise RuntimeError("%s seed %d exited %d" % (workload, seed, result.returncode))
    return json.loads(lines[-1])


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2 if q2 else float("inf")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    ok = True
    for workload in [w["name"] for w in spec["workloads"]]:
        sets = []
        for set_index in range(args.sets):
            results = [run_once(workload, set_index, args.seed + i, spec["run_seconds"])
                       for i in range(args.runs)]
            sets.append(results)
            shares = sorted({r["failed"] / r["attempted"] for r in results})
            print("%s set %d: failed share %s" % (workload, set_index + 1,
                                                  ", ".join("%.6f" % s for s in shares)))
            for name, metric in metrics.items():
                values = [r["metrics"][name]["value"] for r in results]
                q1, med, q3, spread = summarize(values)
                limit = ("ok" if spread < metric["bound"] / 3 else
                         "WITHIN BOUND" if spread <= metric["bound"] else "TOO WIDE")
                if limit == "TOO WIDE":
                    ok = False
                line = "  %-24s median %12.5g  q1 %12.5g  q3 %12.5g  spread %6.3f  bound %.3f %s" % (
                    name, med, q1, q3, spread, metric["bound"], limit)
                if set_index > 0:
                    first = statistics.median(
                        r["metrics"][name]["value"] for r in sets[0])
                    worse = (med - first) / first if metric["better"] == "lower" else (
                        first - med) / first
                    line += "  drift %+.3f%s" % (worse, " REGRESSED" if worse > metric["bound"] else "")
                    if worse > metric["bound"]:
                        ok = False
                print(line)
            sys.stdout.flush()
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
