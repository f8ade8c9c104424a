"""Self-tests of the wall-clock benchmark, on its small graphs.

Run from the repository root:

    python3 -m unittest discover -s wallbench/tests -v

The first run builds the benchmark binary (see wallbench/run.py).
"""
import json
import os
import re
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH_DIR = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH_DIR)
RUN = os.path.join(BENCH_DIR, "run.py")
NAME = re.compile(r"^[A-Za-z0-9_.-]+$")
WORKLOADS = ("rmat-p16", "er-weighted-seq", "serve-churn")
# Counts and checksums that must repeat bit for bit at one seed.
REPEATABLE = ("model_s", "sim.words", "sim.msgs", "mfbc.iterations",
              "mfbc.product_nnz", "serve.rerun_frac", "serve.full_recomputes",
              "graph.signature_lo32", "solve.lambda_fnv_lo32",
              "serve.final_lambda_fnv_lo32")


def run(workload, seed, trace=0, extra=()):
    """Run one small-graph benchmark; returns (exit code, result, detail,
    layers)."""
    done = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--size", "small",
         *extra],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True, timeout=600, check=False)
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1])
    detail, layers = {}, {}
    for line in lines[:-1]:
        if line.startswith("detail: "):
            detail = json.loads(line[len("detail: "):])
        elif line.startswith("layers: "):
            layers = json.loads(line[len("layers: "):])
    return done.returncode, result, detail, layers


def benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


class MetricsTest(unittest.TestCase):
    def test_every_metric_emitted_with_its_unit(self):
        spec = benchmark_json()
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            want = {m["name"]: m["unit"] for m in spec[key]}
            for name in want:
                self.assertRegex(name, NAME)
            for workload in WORKLOADS:
                with self.subTest(workload=workload, trace=trace):
                    code, result, _, layers = run(workload, 3, trace)
                    self.assertEqual(code, 0)
                    self.assertEqual(set(result),
                                     {"correct", "attempted", "failed",
                                      "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    got = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(got, want)
                    for v in result["metrics"].values():
                        self.assertIsInstance(v["value"], (int, float))
                    if trace:
                        # Every per-layer metric names its layer and what it
                        # should move.
                        self.assertEqual(set(layers), set(want))
                        for entry in layers.values():
                            self.assertEqual(set(entry),
                                             {"layer", "moves", "on"})
                    else:
                        for v in result["metrics"].values():
                            self.assertGreater(v["value"], 0)


class RepeatabilityTest(unittest.TestCase):
    def test_same_seed_repeats_counts_and_checksums(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                _, r1, d1, _ = run(workload, 5)
                _, r2, d2, _ = run(workload, 5)
                for key in REPEATABLE:
                    self.assertIn(key, d1)
                    self.assertEqual(d1[key], d2[key], key)
                self.assertEqual(r1["metrics"]["model_s"]["value"],
                                 r2["metrics"]["model_s"]["value"])

    def test_other_seed_changes_the_graph(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                _, _, d1, _ = run(workload, 5)
                _, _, d2, _ = run(workload, 6)
                self.assertNotEqual(d1["graph.signature_lo32"],
                                    d2["graph.signature_lo32"])


class CorrectnessCheckTest(unittest.TestCase):
    def test_perturbed_lambda_is_a_failed_operation(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                code, result, _, _ = run(workload, 5, extra=("--perturb",))
                self.assertNotEqual(code, 0)
                self.assertFalse(result["correct"])
                self.assertGreaterEqual(result["failed"], 1)
                self.assertLessEqual(result["failed"], result["attempted"])


if __name__ == "__main__":
    unittest.main()
