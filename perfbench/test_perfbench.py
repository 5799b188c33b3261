#!/usr/bin/env python3
"""The benchmark's own tests: tiny-scale runs of every workload.

    python3 perfbench/test_perfbench.py

Checks that untraced runs report exactly the end-to-end metrics
BENCHMARK.json declares and traced runs exactly its per-layer metrics, all
finite and with the declared units; that a deliberately corrupted result is
caught by the checksum (non-zero exit, correct: false); and that the
command fails without printing a result when the engine sources are absent.
"""

import json
import math
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def run(workload, trace, *extra, cwd=ROOT, script=RUN):
    cmd = [sys.executable, script, "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace), "--scale", "tiny"]
    return subprocess.run(cmd + list(extra), cwd=cwd, capture_output=True,
                          text=True, timeout=900)


def result_of(proc):
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


class WorkloadTest(unittest.TestCase):
    def check_metrics(self, workload, trace, declared):
        proc = run(workload, trace)
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        result = result_of(proc)
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        metrics = result["metrics"]
        self.assertEqual(set(metrics), {m["name"] for m in declared})
        for m in declared:
            value = metrics[m["name"]]
            self.assertEqual(value["unit"], m["unit"], m["name"])
            self.assertTrue(math.isfinite(value["value"]), m["name"])

    def test_end_to_end_metrics(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                self.check_metrics(w["name"], 0, SPEC["end_to_end"])

    def test_per_layer_metrics(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                self.check_metrics(w["name"], 1, SPEC["per_layer"])

    def test_traced_run_writes_chrome_trace(self):
        proc = run("la_sparse", 1)
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        trace_line = [l for l in proc.stdout.splitlines()
                      if l.startswith("trace ")][0]
        with open(trace_line.split()[1]) as f:
            events = json.load(f)["traceEvents"]
        # Exported names carry the span's detail after a space.
        names = {e.get("name", "").split(" ")[0] for e in events}
        for span in ("sql.parse", "sql.bind", "plan.build", "exec.execute",
                     "wcoj", "materialize"):
            self.assertIn(span, names)

    def test_corrupted_result_is_caught(self):
        # bi_tpch checks engine results, serve_mixed wire responses.
        for workload in ("bi_tpch", "serve_mixed"):
            with self.subTest(workload=workload):
                proc = run(workload, 0, "--inject-corruption")
                self.assertNotEqual(proc.returncode, 0)
                result = result_of(proc)
                self.assertFalse(result["correct"])
                self.assertGreaterEqual(result["failed"], 1)
                self.assertIn("differs from set-up", proc.stderr)


class WithoutSourcesTest(unittest.TestCase):
    def test_fails_without_result(self):
        build = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
        if not os.path.isabs(build):
            build = os.path.join(ROOT, build)
        bare = os.path.join(build, "bare_checkout")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        env = dict(os.environ, CARGO_TARGET_DIR=".bench_build")
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "bi_tpch",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, env=env, capture_output=True, text=True, timeout=180)
        shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
