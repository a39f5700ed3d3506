#!/usr/bin/env python3
"""Steadiness check: runs every workload as two separate sets of runs and
prints, for each end-to-end metric, each set's median and interquartile
spread against the metric's bound from BENCHMARK.json.

    python3 perfbench/steady.py [--runs 10] [--seconds S] [--workloads a,b]
                                [--traced]

Set A uses seeds 1..N and set B seeds N+1..2N; the spread is
(Q3 - Q1) / median of statistics.quantiles(values, n=4). A metric is
steady when both spreads (setup_s excepted) stay under a third of its
bound and set B's median is not worse than set A's by more than the
bound. With --traced, a traced run per workload follows, between two more
untraced runs, and the tracing overhead is its pass time against their
mean: the host's speed drifts over minutes, so the comparison is made
between neighbouring runs. Raw results, with
each run's reference lines, go to .bench_out/steady.json.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                         text=True, timeout=900)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: exit {out.returncode}\n{out.stdout}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: outputs failed their checks\n{out.stdout}")
    result["notes"] = lines[:-1]
    return result


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), (q3 - q1) / statistics.median(values)


def main():
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--traced", action="store_true")
    args = ap.parse_args()

    raw = {}
    steady = True
    print(f"{'workload':<11} {'metric':<17} {'bound':>6} {'median A':>12} {'iqr/med A':>9} "
          f"{'median B':>12} {'iqr/med B':>9} {'B vs A':>7}  verdict")
    for workload in args.workloads.split(","):
        sets = []
        for first in (1, args.runs + 1):
            sets.append([run(workload, seed, args.seconds, 0)
                         for seed in range(first, first + args.runs)])
        raw[workload] = sets
        shares = {(r["failed"], r["attempted"]) for s in sets for r in s}
        fail_shares = {f / a for f, a in shares}
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            a = [r["metrics"][name]["value"] for r in sets[0]]
            b = [r["metrics"][name]["value"] for r in sets[1]]
            med_a, iqr_a = spread(a)
            med_b, iqr_b = spread(b)
            worse = (med_b - med_a) / med_a if metric["better"] == "lower" else (med_a - med_b) / med_a
            ok = worse <= bound and (name == "setup_s" or max(iqr_a, iqr_b) <= bound / 3)
            steady &= ok
            print(f"{workload:<11} {name:<17} {bound:>6.3f} {med_a:>12.6g} {iqr_a:>9.4f} "
                  f"{med_b:>12.6g} {iqr_b:>9.4f} {worse:>+7.3f}  {'ok' if ok else 'NOT STEADY'}")
        print(f"{workload:<11} failed share per run: {sorted(fail_shares)}")
        steady &= len(fail_shares) == 1
        if args.traced:
            seed = 2 * args.runs + 1
            before = run(workload, seed, args.seconds, 0)
            traced = run(workload, seed, args.seconds, 1)
            after = run(workload, seed, args.seconds, 0)
            raw[workload].append([traced, before, after])
            untraced = (before["metrics"]["route_pass_s"]["value"] +
                        after["metrics"]["route_pass_s"]["value"]) / 2
            t = traced["metrics"]["trace.traced_pass_s"]["value"]
            print(f"{workload:<11} traced pass {t:.6g} s vs untraced neighbours' mean "
                  f"{untraced:.6g} s: tracing overhead {100 * (t / untraced - 1):+.1f}%")
        sys.stdout.flush()
        os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
        with open(os.path.join(ROOT, ".bench_out", "steady.json"), "w") as f:
            json.dump(raw, f, indent=1)
    print("steady" if steady else "NOT STEADY")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
