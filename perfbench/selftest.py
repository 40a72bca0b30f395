"""Tests of the benchmark itself.

    python3 perfbench/selftest.py

- smoke: every workload, with a budget of a few ops, prints every metric
  named in BENCHMARK.json with its unit, in both trace modes;
- a planted wrong result is counted as failed, and the run exits nonzero;
- the spans see calls made through `from .x import y` bindings, checked on
  the traced A2 orbit (2,2,2): 3 shuffle products and 20 exact divisions;
- tracing changes no result digest, and call counts repeat exactly.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import unittest

import run as bench
import spans as spans_mod
import workloads as wl

SMOKE_OPS = 3
SPEC = os.path.join(bench.ROOT, "BENCHMARK.json")


def bench_run(*args: str) -> tuple[int, dict]:
    proc = subprocess.run(
        [sys.executable, os.path.join(bench.HERE, "run.py"), *args],
        capture_output=True, text=True, timeout=170, cwd=bench.ROOT,
    )
    return proc.returncode, json.loads(proc.stdout.strip().splitlines()[-1])


def smoke(workload: str, trace: int, *extra: str, seed: int = bench.DEFAULT_SEED):
    return bench_run("--workload", workload, "--seed", str(seed),
                     "--seconds", "1", "--trace", str(trace),
                     "--max-ops", str(SMOKE_OPS), *extra)


class Smoke(unittest.TestCase):
    def test_every_metric_with_its_unit(self):
        with open(SPEC, encoding="utf-8") as fh:
            spec = json.load(fh)
        for workload in wl.WORKLOADS:
            for trace, section in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    code, result = smoke(workload, trace)
                    self.assertEqual(code, 0)
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], SMOKE_OPS)
                    want = {m["name"]: m["unit"] for m in spec[section]}
                    got = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(got, want)
                    if trace and workload == "verifiers":
                        # every op is one verify.* call, seen by its span
                        self.assertEqual(result["metrics"]["verify.calls"]["value"], SMOKE_OPS)

    def test_planted_defect_fails(self):
        # a seed without recorded digests, so that the op's own check must
        # catch the wrong result
        for workload in wl.WORKLOADS:
            with self.subTest(workload=workload):
                code, result = smoke(workload, 0, "--plant-defect", seed=2)
                self.assertEqual(code, 1)
                self.assertFalse(result["correct"])
                self.assertEqual(result["failed"], 1)

    def test_call_counts_repeat(self):
        counts = []
        for _ in range(2):
            code, result = smoke("orbit-classes", 1)
            self.assertEqual(code, 0)
            counts.append({k: v["value"] for k, v in result["metrics"].items()
                           if v["unit"] == "count"})
        self.assertEqual(counts[0], counts[1])


class TracedOrbit(unittest.TestCase):
    def setUp(self):
        sys.path.insert(0, bench.SRC)
        signal.signal(signal.SIGALRM, bench._on_alarm)

    def test_a2_orbit_222(self):
        spec = {"kind": "orbit", "quiver": "a2", "m": [2, 2, 2], "size": 4}
        pkg = bench.fresh_import()
        quivers = {"a2": pkg.cli.load_quiver("a2")[0]}
        pkg.modrep.root_data(quivers["a2"])
        op = wl.WORKLOADS["orbit-classes"].make_op(pkg, quivers, spec)
        untraced = op.render(op.call())

        pkg = bench.fresh_import()
        quivers = {"a2": pkg.cli.load_quiver("a2")[0]}
        pkg.modrep.root_data(quivers["a2"])
        op = wl.WORKLOADS["orbit-classes"].make_op(pkg, quivers, spec)
        spans = spans_mod.Spans()
        spans.install()
        try:
            self.assertEqual(spans.unwrapped_bindings(), [])
            result = op.call()
        finally:
            spans.uninstall()
        self.assertIsNone(op.check(result))
        self.assertEqual(bench.digest(op.render(result)), bench.digest(untraced))
        metrics = spans.layer_metrics()
        self.assertEqual(metrics["coha.shuffle_mul.calls"][0], 3)
        # 1 + (6 + 1) + (6 + 6): one division per same-vertex slot pair of
        # each partial product, weights (0,2), (2,4), (4,4)
        self.assertEqual(metrics["polyblock.exact_div_linear.calls"][0], 20)


if __name__ == "__main__":
    unittest.main()
