#!/usr/bin/env python3
"""Self-tests of the benchmark harness: python3 bench/selftest.py (from the repo root)."""

from __future__ import annotations

import dataclasses
import json
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import corpus  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402


def _workdir(test: unittest.TestCase) -> Path:
    run.WORK.mkdir(parents=True, exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix="selftest-", dir=run.WORK))
    test.addCleanup(shutil.rmtree, path, True)
    return path


class CorpusTest(unittest.TestCase):
    def test_same_seed_gives_identical_files(self):
        def files(d):
            return {p.relative_to(d): p.read_bytes() for p in d.rglob("*.ags")}
        for workload in run.WORKLOADS:
            a, b, c = _workdir(self), _workdir(self), _workdir(self)
            run.build_queries(workload, 7, a)
            run.build_queries(workload, 7, b)
            run.build_queries(workload, 8, c)
            self.assertTrue(files(a))
            self.assertEqual(files(a), files(b), workload)
            self.assertNotEqual(sorted(files(a).values()), sorted(files(c).values()),
                                workload)

    def test_factor_table_matches_bundled_files(self):
        for key, factor in corpus.FACTORS.items():
            group = corpus.load_factor(run.ROOT, key)
            lifts = oracle.holonomy(group)
            self.assertEqual(group[0], factor.dimension, key)
            self.assertEqual(len(lifts), factor.holonomy_order, key)
            self.assertEqual(oracle.betti(lifts), factor.betti, key)
            self.assertEqual(factor.chain[0], (factor.dimension, factor.betti), key)
        self.assertEqual(len(corpus.CATALOG_FACTORS), 13)

    def test_conjugation_keeps_invariants(self):
        rng = random.Random(3)
        for keys in (("g5", "g5"), ("klein", "ex4"), ("z1", "min88")):
            group = corpus.conjugate_group(corpus.direct_product(
                [corpus.load_factor(run.ROOT, k) for k in keys]), rng, 7)
            lifts = oracle.holonomy(group)
            expected = corpus.expected_for(keys)
            self.assertEqual(len(lifts), expected.holonomy_order, keys)
            self.assertEqual(oracle.betti(lifts), expected.betti, keys)

    def test_product_chain(self):
        self.assertEqual(corpus.product_chain(("g6", "z1")),
                         "4:1:CalabiReduce;3:0:TrivialCenter")
        self.assertEqual(corpus.product_chain(("b3", "klein")),
                         "5:2:CalabiReduce;3:2:CalabiReduce;1:1:TrivialGroup")
        self.assertEqual(corpus.product_chain(("z2",)), "2:2:TrivialGroup")


class CheckTest(unittest.TestCase):
    """Wrong expectations must show up as failures."""

    @classmethod
    def setUpClass(cls):
        cls.cli = run.import_cli()

    def _items(self, products, moves):
        return corpus.build_items(run.ROOT, products, random.Random(5), moves)

    def test_wrong_classify_row_is_counted(self):
        items = self._items(corpus.CLASSIFY_PRODUCTS[15:21], run.BASIS_MOVES)
        d = _workdir(self)
        good = run._classify_query(items, d / "good")
        bad_items = [dataclasses.replace(items[0], expected=dataclasses.replace(
            items[0].expected, betti=items[0].expected.betti + 1))] + items[1:]
        bad = run._classify_query(bad_items, d / "bad")
        passes = [[run.run_query(self.cli, good), run.run_query(self.cli, bad)]]
        self.assertEqual(run.count_failures([good, bad], passes), 1)

    def test_wrong_hw_answer_is_counted(self):
        d = _workdir(self)
        items = self._items((("g6", "z1"), ("b3",)), run.BASIS_MOVES)
        corpus.write_items(items, d)
        queries, wrong = [], []
        for item in items:
            argv = ["hw-check", str(d / f"{item.name}.ags")]
            queries.append(run.Query(argv, 1, run._hw_check(item)))
            flipped = dataclasses.replace(item, expected=dataclasses.replace(
                item.expected, contains_hw=not item.expected.contains_hw))
            wrong.append(run.Query(argv, 1, run._hw_check(flipped)))
        passes = [[run.run_query(self.cli, q) for q in queries]]
        self.assertEqual(run.count_failures(queries, passes), 0)
        self.assertEqual(run.count_failures(wrong, passes), len(items))

    def test_certificate_on_diffuse_group_is_a_failure(self):
        d = _workdir(self)
        (item,) = self._items((("g6",),), 0)
        corpus.write_items([item], d)
        argv = ["witness-check", str(d / f"{item.name}.ags"), "--radius", "2"]
        right = run.Query(argv, 1, run._witness_check(item))
        diffuse = dataclasses.replace(item, expected=dataclasses.replace(
            item.expected, non_diffuse=False))
        wrong = run.Query(argv, 1, run._witness_check(diffuse))
        passes = [[run.run_query(self.cli, right)]]
        self.assertIn("certificate=true", passes[0][0][1])
        self.assertEqual(run.count_failures([right], passes), 0)
        self.assertEqual(run.count_failures([wrong], passes), 1)

    def test_nonzero_exit_is_a_failure(self):
        query = run.Query(["hw-check", "no-such-file.ags"], 1, lambda out: True)
        passes = [[run.run_query(self.cli, query)]]
        self.assertNotEqual(passes[0][0][0], 0)
        self.assertEqual(run.count_failures([query], passes), 1)


class TracingTest(unittest.TestCase):
    def test_calls_repeat_and_stdout_is_unchanged(self):
        d = _workdir(self)
        cli = run.import_cli()
        _, queries = run.build_queries("hw", 4, d / "hw")
        items = corpus.build_items(run.ROOT, corpus.CLASSIFY_PRODUCTS[20:26],
                                   random.Random(4), run.BASIS_MOVES)
        queries = queries[:4] + [run._classify_query(items, d / "classify")]
        first, _, identical = run.traced(cli, queries, 0)
        again, _, identical_again = run.traced(cli, queries, 0)
        self.assertTrue(identical and identical_again)
        calls = {k: v for k, v in first.items() if k.endswith(".calls")}
        self.assertEqual(calls, {k: v for k, v in again.items() if k.endswith(".calls")})
        for name in ("linalg.mat_mul.calls", "decider.decide.calls",
                     "hw.candidate_pairs.calls"):
            self.assertGreater(first[name][0], 0, name)

    def test_wrappers_replace_every_binding(self):
        cli = run.import_cli()
        hw = sys.modules["bieberbach.hw"]
        affine = sys.modules["bieberbach.affine"]
        original = affine.compose
        tracer = tracing.Tracer()
        tracer.install()
        try:
            for name, module in sys.modules.items():
                if name.startswith("bieberbach"):
                    self.assertFalse(any(v is original for v in vars(module).values()), name)
            self.assertIs(hw.compose, affine.compose)
        finally:
            tracer.uninstall()
        self.assertIs(affine.compose, original)
        self.assertIs(hw.compose, original)
        del cli


class MetricsTest(unittest.TestCase):
    def test_harrell_davis_quantile(self):
        self.assertAlmostEqual(run.quantile([5.0], 0.9), 5.0)
        self.assertAlmostEqual(run.quantile(range(1, 10), 0.5), 5.0, places=6)
        low, high = run.quantile(range(1, 101), 0.1), run.quantile(range(1, 101), 0.9)
        self.assertAlmostEqual(low + high, 101.0, places=4)
        self.assertLess(run.quantile([1, 2, 3, 100], 0.5), run.quantile([1, 2, 3, 100], 0.9))

    def test_calibration_spreads_kernel_runs(self):
        calibration = run.Calibration()
        calibration.read(0.0)
        self.assertEqual(len(calibration.times), 1)
        calibration.read(10 * statistics.median(calibration.times) / run.KERNEL_SHARE)
        self.assertGreaterEqual(len(calibration.times), 5)
        self.assertGreater(calibration.scale(), 0)


class ContractTest(unittest.TestCase):
    def test_fails_without_the_package_sources(self):
        d = _workdir(self)
        shutil.copy(run.ROOT / "BENCHMARK.json", d)
        shutil.copytree(run.BENCH, d / "bench",
                        ignore=shutil.ignore_patterns("_work", "__pycache__"))
        res = subprocess.run([sys.executable, "bench/run.py", "--workload", "hw",
                              "--seed", "1", "--seconds", "1", "--trace", "0"],
                             cwd=d, capture_output=True, text=True, timeout=180)
        self.assertNotEqual(res.returncode, 0)
        for line in res.stdout.splitlines():
            with self.assertRaises(ValueError):
                json.loads(line)

    def test_benchmark_json_lists_every_metric(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.WORKLOADS))
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]],
                         list(run.END_TO_END))
        layer = [(m["name"], m["unit"]) for m in spec["per_layer"]]
        self.assertEqual(layer[:len(tracing.metric_names())], tracing.metric_names())


if __name__ == "__main__":
    unittest.main()
