#!/usr/bin/env python3
"""Repository benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds the PART-HTM libraries and the two
benchmark drivers from source into .bench_build/ (default RelWithDebInfo
configuration), runs the driver that links the workload's library flavour,
and relays its output. The driver's last stdout line is the result object;
this script checks its metric names and units against BENCHMARK.json and
exits non-zero without printing a result when anything is missing.

Workloads: skiplist10k, list10k, server (plain flavour), durable (_persist
flavour). With --trace 1 the run also writes its spans to
.bench_build/traces/<workload>-<seed>.jsonl.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = ".bench_build"
DRIVERS = {"skiplist10k": "pb_volatile", "list10k": "pb_volatile",
           "server": "pb_volatile", "durable": "pb_durable"}
RUN_TIMEOUT_S = 170


def die(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build(root):
    """Configure once, then (re)build both drivers; output goes to stderr."""
    bdir = os.path.join(root, BUILD_DIR, "perfbench")
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", bdir,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=sys.stderr, check=True, timeout=600)
    subprocess.run(["cmake", "--build", bdir, "-j", "4",
                    "--target", "pb_volatile", "pb_durable"],
                   stdout=sys.stderr, check=True, timeout=900)
    return bdir


def load_spec():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        return json.load(f)


def check_metrics(metrics, spec, trace):
    """Return the driver's metrics in BENCHMARK.json's order and units.

    BENCHMARK.json is the one list of metrics; the driver prints only those
    it computes. A name it does not list or a different unit is an error,
    and so is a missing end-to-end metric. A per-layer metric the workload
    does not reach reads 0.
    """
    want = {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}
    extra = sorted(set(metrics) - set(want))
    wrong = sorted(k for k in metrics
                   if k in want and metrics[k]["unit"] != want[k])
    missing = sorted(set(want) - set(metrics))
    if extra or wrong or (missing and not trace):
        raise ValueError(f"metrics differ from BENCHMARK.json: extra={extra} "
                         f"wrong_unit={wrong} missing={missing}")
    return {k: metrics.get(k, {"value": 0, "unit": u}) for k, u in want.items()}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(DRIVERS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    a = ap.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        die("library sources (src/) not found: run from the repository root")
    try:
        bdir = build(root)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as e:
        die(f"build failed: {e}")

    cmd = [os.path.join(bdir, DRIVERS[a.workload]), "--workload", a.workload,
           "--seed", str(a.seed), "--seconds", str(a.seconds),
           "--trace", str(a.trace)]
    if a.trace:
        tdir = os.path.join(root, BUILD_DIR, "traces")
        os.makedirs(tdir, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(tdir, f"{a.workload}-{a.seed}.jsonl")]
    try:
        p = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die(f"{a.workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = p.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    if p.returncode != 0:
        die(f"driver exited with code {p.returncode}")
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        die("driver printed no result line")
    try:
        result["metrics"] = check_metrics(result["metrics"], load_spec(),
                                          a.trace)
    except ValueError as e:
        die(str(e))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
