#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py [--workloads a,b] [--runs 10] [--first-seed 1]
                                [--seconds N]

Runs perfbench/run.py once per seed for every workload (untraced) and
prints, per metric, the median and the interquartile range as a share of
the median (statistics.quantiles(values, n=4)), next to the metric's bound
in BENCHMARK.json. Run from the repository root.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    a = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    worst = 0.0
    for wl in a.workloads.split(","):
        values = {}
        for seed in range(a.first_seed, a.first_seed + a.runs):
            p = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", wl,
                 "--seed", str(seed), "--seconds", str(a.seconds), "--trace", "0"],
                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
            if p.returncode != 0:
                print(f"{wl} seed {seed}: run failed ({p.returncode})")
                continue
            res = json.loads(p.stdout.strip().split("\n")[-1])
            if not res["correct"]:
                print(f"{wl} seed {seed}: correct=false")
            for k, v in res["metrics"].items():
                values.setdefault(k, []).append(v["value"])
        for k, vs in values.items():
            if len(vs) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            if k != "setup_s":
                worst = max(worst, spread / bounds[k])
            print(f"{wl:12s} {k:16s} median {med:14.4f}  spread {spread:7.4f}"
                  f"  bound {bounds[k]:.2f}  n={len(vs)}")
    print(f"worst spread / bound (setup_s excluded): {worst:.3f}")


if __name__ == "__main__":
    main()
