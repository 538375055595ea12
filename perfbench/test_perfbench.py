#!/usr/bin/env python3
"""Self-checks of the repository benchmark.

    python3 perfbench/test_perfbench.py

Run from the repository root (the drivers are built through run.py). On a
short traced run of every workload, server included, it checks that:

  - the run is correct and reconciles: per-path commits == execute() calls
    == StatSheet total commits, and core.time_frac.* sums to 1;
  - every printed percentile states its sample count and has at least 10
    samples beyond it;
  - each workload reaches the layer it was chosen for (skiplist10k commits
    on the HTM fast path, list10k spends a substantial share of execute()
    time on the partitioned path, durable and server reach their layers).

It also checks that untraced runs yield every end-to-end metric nonzero,
that run.py holds the driver's metrics to BENCHMARK.json (extra names,
wrong units and missing end-to-end metrics fail; unreached per-layer
metrics read 0), and that run.py fails without printing a result in a
directory holding only BENCHMARK.json and perfbench/.
"""
import importlib.util
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
RUN = os.path.join(HERE, "run.py")
PCT = re.compile(r"\(p([\d.]+) of n=(\d+), (\d+) beyond\)")
RECONCILE = re.compile(
    r"reconcile: execute\(\)=(\d+) per-path=(\d+) statsheet=(\d+)")


def run(workload, trace, seconds, cwd=None):
    p = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", "7",
         "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        timeout=900, cwd=cwd)
    return p.returncode, p.stdout.splitlines()


class TracedRun(unittest.TestCase):
    def traced(self, workload, seconds=4):
        code, lines = run(workload, 1, seconds)
        self.assertEqual(code, 0, "\n".join(lines[-20:]))
        result = json.loads(lines[-1])
        self.assertTrue(result["correct"], "\n".join(lines))
        m = {k: v["value"] for k, v in result["metrics"].items()}

        rec = [RECONCILE.search(l) for l in lines]
        rec = [r for r in rec if r]
        self.assertEqual(len(rec), 1)
        calls, per_path, sheet = map(int, rec[0].groups())
        self.assertGreater(calls, 0)
        self.assertEqual(calls, per_path)
        self.assertEqual(per_path, sheet)
        self.assertAlmostEqual(
            sum(m["core.time_frac." + p] for p in ("htm", "sw", "gl")), 1.0,
            places=6)

        printed = 0
        for line in lines[:-1]:
            for q, n, beyond in PCT.findall(line):
                printed += 1
                self.assertGreaterEqual(int(beyond), 10, line)
                self.assertLessEqual(int(beyond), int(n), line)
        self.assertGreater(printed, 0)
        return m

    def test_skiplist10k(self):
        m = self.traced("skiplist10k")
        self.assertGreaterEqual(m["core.commit_frac.htm"], 0.99)

    def test_list10k(self):
        m = self.traced("list10k", seconds=8)
        self.assertGreaterEqual(m["core.time_frac.sw"], 0.25)
        self.assertGreater(m["core.validations_per_sw_commit"], 0)

    def test_durable(self):
        m = self.traced("durable")
        self.assertGreater(m["persist.pwb_per_commit"], 0)
        self.assertGreater(m["persist.recover_ms"], 0)
        self.assertEqual(m["persist.rolled_back"], 0)

    def test_server(self):
        m = self.traced("server", seconds=8)
        self.assertGreater(m["server.submit_ns_p50"], 0)
        self.assertGreater(m["server.service_us_p50"], 0)
        self.assertGreater(m["server.overload_goodput_per_s"], 0)
        self.assertEqual(m["server.state_frac.normal"], 1)


class UntracedRun(unittest.TestCase):
    def check_nonzero(self, workload):
        code, lines = run(workload, 0, 8)
        self.assertEqual(code, 0)
        result = json.loads(lines[-1])
        self.assertTrue(result["correct"])
        for name, v in result["metrics"].items():
            self.assertGreater(v["value"], 0, name)

    def test_list10k_end_to_end_metrics_nonzero(self):
        self.check_nonzero("list10k")

    def test_server_end_to_end_metrics_nonzero(self):
        self.check_nonzero("server")


class MetricCheck(unittest.TestCase):
    SPEC = {"end_to_end": [{"name": "setup_s", "unit": "s"}],
            "per_layer": [{"name": "a.x", "unit": "us"},
                          {"name": "b.y", "unit": "count"}]}

    @classmethod
    def setUpClass(cls):
        spec = importlib.util.spec_from_file_location("pb_run", RUN)
        cls.mod = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(cls.mod)

    def check(self, metrics, trace):
        return self.mod.check_metrics(metrics, self.SPEC, trace)

    def test_unreached_per_layer_metric_reads_zero(self):
        got = self.check({"b.y": {"value": 3, "unit": "count"}}, True)
        self.assertEqual(list(got), ["a.x", "b.y"])
        self.assertEqual(got["a.x"], {"value": 0, "unit": "us"})
        self.assertEqual(got["b.y"]["value"], 3)

    def test_rejects_extra_name_wrong_unit_missing_end_to_end(self):
        with self.assertRaises(ValueError):
            self.check({"c.z": {"value": 1, "unit": "us"}}, True)
        with self.assertRaises(ValueError):
            self.check({"a.x": {"value": 1, "unit": "ns"}}, True)
        with self.assertRaises(ValueError):
            self.check({}, False)


class BareDirectory(unittest.TestCase):
    def test_fails_without_sources(self):
        os.makedirs(".bench_build", exist_ok=True)
        tmp = tempfile.mkdtemp(dir=".bench_build", prefix="bare-")
        try:
            shutil.copy(os.path.join(HERE, "..", "BENCHMARK.json"), tmp)
            shutil.copytree(HERE, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            p = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload",
                 "skiplist10k", "--seed", "1", "--seconds", "1", "--trace",
                 "0"], cwd=tmp, stdout=subprocess.PIPE,
                stderr=subprocess.DEVNULL, text=True, timeout=180)
            self.assertNotEqual(p.returncode, 0)
            self.assertNotIn('"metrics"', p.stdout)
        finally:
            shutil.rmtree(tmp)


if __name__ == "__main__":
    unittest.main()
