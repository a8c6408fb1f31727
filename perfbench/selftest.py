"""Self-tests of the benchmark's own code (not of taskrank).

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import filecmp
import json
import os
import re
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from common import ROOT, check_outputs, percentile, sha256_file  # noqa: E402
from gen import generate  # noqa: E402
from spans import self_times  # noqa: E402
from worker import end_to_end, per_layer  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


class GeneratorTest(unittest.TestCase):
    def test_same_seed_same_bytes_other_seed_other_bytes(self):
        with tempfile.TemporaryDirectory() as tmp:
            a, b, c = (os.path.join(tmp, x) for x in "abc")
            generate(a, seed=5, docs=60, topics=12)
            generate(b, seed=5, docs=60, topics=12)
            generate(c, seed=6, docs=60, topics=12)
            names = sorted(os.listdir(a))
            self.assertIn("corpus.jsonl", names)
            match, mismatch, errors = filecmp.cmpfiles(a, b, names, shallow=False)
            self.assertEqual((mismatch, errors), ([], []))
            self.assertNotEqual(sha256_file(os.path.join(a, "corpus.jsonl")),
                                sha256_file(os.path.join(c, "corpus.jsonl")))


class MetricNameTest(unittest.TestCase):
    def test_names_are_valid_unique_and_match_what_the_worker_reports(self):
        bench = _benchmark()
        for section in ("workloads", "end_to_end", "per_layer"):
            names = [entry["name"] for entry in bench[section]]
            self.assertEqual(len(names), len(set(names)), section)
            for name in names:
                self.assertTrue(NAME.fullmatch(name), name)
        cycle = {"setup_s": 1.0, "run_s": 2.0, "wall_s": 3.5,
                 "topic_ms": [1.0] * 200, "ndcg20_mean": 0.8, "map_mean": 0.7,
                 "judged_at_20": 0.5}
        rounds = [{"cycles": [cycle], "sweep": None, "spans": [], "counters": {}}] * 3
        reported = set(end_to_end(rounds))
        self.assertEqual(reported, {m["name"] for m in bench["end_to_end"]})
        metrics, _notes = per_layer(rounds, rounds, sweep=False)
        self.assertEqual(set(metrics), {m["name"] for m in bench["per_layer"]})


class DigestGateTest(unittest.TestCase):
    def test_one_perturbed_byte_fails_the_pinned_seed(self):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "x.run")
            with open(path, "wb") as fh:
                fh.write(b"0 Q0 doc000001 1 3.250000 query\n")
            pins = {"build-heavy": {"7": {"run_sha256": sha256_file(path),
                                          "ndcg20_mean": 0.8}}}
            observed = {"run_sha256": [sha256_file(path)], "ndcg20_mean": [0.8]}
            self.assertEqual(check_outputs("build-heavy", 7, observed, pins), [])
            with open(path, "r+b") as fh:
                fh.seek(20)
                byte = fh.read(1)
                fh.seek(20)
                fh.write(bytes([byte[0] ^ 1]))
            observed["run_sha256"] = [sha256_file(path)]
            problems = check_outputs("build-heavy", 7, observed, pins)
            self.assertEqual(len(problems), 1)
            self.assertIn("run_sha256", problems[0])

    def test_cycles_that_disagree_fail_an_unpinned_seed(self):
        observed = {"run_sha256": ["a", "b"], "ndcg20_mean": [0.8, 0.8]}
        self.assertTrue(check_outputs("build-heavy", 99, observed, {}))


class PercentileTest(unittest.TestCase):
    def test_p95_needs_200_samples(self):
        with self.assertRaises(ValueError):
            percentile(list(range(199)), 0.95)
        self.assertEqual(percentile(list(range(1, 201)), 0.95), 190)

    def test_p50_needs_20_samples(self):
        with self.assertRaises(ValueError):
            percentile(list(range(19)), 0.50)
        self.assertEqual(percentile(list(range(1, 21)), 0.50), 10)


class SelfTimeTest(unittest.TestCase):
    def test_children_are_subtracted_once(self):
        spans = [[0, "parent", 0.0, 10.0, None, None],
                 [1, "a", 1.0, 4.0, 0, None],
                 [2, "b", 5.0, 6.0, 0, None],
                 [3, "a.child", 2.0, 3.0, 1, None]]
        own = self_times(spans)
        self.assertAlmostEqual(own[0], 6.0)
        self.assertAlmostEqual(own[1], 2.0)
        self.assertAlmostEqual(own[3], 1.0)


if __name__ == "__main__":
    unittest.main()
