#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/test_perfbench.py

Builds the benchmark (perfbench/run.py) and checks that short runs are
deterministic per seed, that a forced failure lowers ops_ok_ratio, that the
printed metric names match BENCHMARK.json, and that the benchmark refuses to
run without the repository sources.
"""
import json
import os
import re
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXE = os.path.join(ROOT, ".bench_build", "perfbench")


def run(workload, seed=7, seconds=1, trace=0, extra=()):
    """Run the built binary; return (result JSON, digest line)."""
    cmd = [EXE, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), *extra]
    out = subprocess.run(cmd, cwd=ROOT, check=True, capture_output=True, text=True).stdout
    lines = out.strip().splitlines()
    digest = next(l for l in lines if "digest of simulated outputs" in l)
    return json.loads(lines[-1]), digest.split()[-1]


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--help"],
                       cwd=ROOT, capture_output=True)
        if not os.path.isfile(EXE):
            raise RuntimeError("perfbench did not build")
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.bench = json.load(f)

    def test_same_seed_gives_identical_simulated_outputs(self):
        for w in ("attach", "multinode", "insitu"):
            with self.subTest(workload=w):
                a, da = run(w)
                b, db = run(w)
                self.assertTrue(a["correct"] and b["correct"])
                self.assertEqual(a["metrics"]["ops_ok_ratio"]["value"], 1.0)
                self.assertEqual(da, db)
                self.assertEqual(a["metrics"]["sim_op_ms"], b["metrics"]["sim_op_ms"])

    def test_forced_failure_lowers_ok_ratio(self):
        res, _ = run("attach", extra=("--fail-op", "1"))
        self.assertFalse(res["correct"])
        self.assertEqual(res["failed"], 1)
        self.assertLess(res["metrics"]["ops_ok_ratio"]["value"], 1.0)

    def test_metric_names_match_benchmark_json(self):
        e2e, _ = run("attach")
        layer, _ = run("attach", trace=1)
        for res, key in ((e2e, "end_to_end"), (layer, "per_layer")):
            want = [(m["name"], m["unit"]) for m in self.bench[key]]
            got = [(k, v["unit"]) for k, v in res["metrics"].items()]
            self.assertEqual(got, want, key)

    def test_refuses_to_run_without_sources(self):
        lone = os.path.join(ROOT, ".bench_build", "lone")
        shutil.rmtree(lone, ignore_errors=True)
        shutil.copytree(HERE, os.path.join(lone, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), lone)
        p = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "attach",
                            "--seed", "1", "--seconds", "1", "--trace", "0"],
                           cwd=lone, capture_output=True, text=True, timeout=180)
        shutil.rmtree(lone)
        self.assertNotEqual(p.returncode, 0)
        self.assertFalse(re.search(r'"correct"', p.stdout))


if __name__ == "__main__":
    unittest.main()
