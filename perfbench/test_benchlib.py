"""Tests of the benchmark's own logic.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import shutil
import tempfile
import unittest
from pathlib import Path

import benchlib
import run


class BatchGenerator(unittest.TestCase):
    def test_same_seed_same_specs(self):
        self.assertEqual(benchlib.generate_batch(7, 300),
                         benchlib.generate_batch(7, 300))

    def test_seeds_differ(self):
        self.assertNotEqual(benchlib.generate_batch(7, 300),
                            benchlib.generate_batch(8, 300))

    def test_stream_is_pinned(self):
        # The first SplitMix64 outputs for seed 0 (the published
        # reference values), so the workload cannot drift silently.
        rng = benchlib.SplitMix64(0)
        self.assertEqual([rng.next() for _ in range(3)],
                         [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4,
                          0x06C45D188009454F])

    def test_mix(self):
        lines = benchlib.generate_batch(3, run.BATCH_SPECS).splitlines()
        self.assertEqual(len(lines), run.BATCH_SPECS)
        duplicates = len(lines) - len(set(lines))
        self.assertTrue(0.1 * len(lines) < duplicates < 0.3 * len(lines))
        text = "\n".join(lines)
        self.assertIn("[R14+RBX]", text)             # loads and stores
        self.assertIn("mov [R14+RBX]", text)         # stores
        self.assertIn("and RBX, 4095", text)         # L1-resident
        self.assertIn("and RBX, 1048575", text)      # beyond L2
        self.assertNotIn("R15", text)                # the loop counter


class PercentileRule(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(10, 0, -1))
        self.assertEqual(benchlib.percentile(values, 50), 5)
        self.assertEqual(benchlib.percentile(values, 90), 9)
        self.assertEqual(benchlib.percentile(values, 100), 10)

    def test_highest_with_ten_beyond(self):
        self.assertIsNone(benchlib.reportable_percentile(19))
        self.assertEqual(benchlib.reportable_percentile(20), 50)
        self.assertEqual(benchlib.reportable_percentile(99), 50)
        self.assertEqual(benchlib.reportable_percentile(100), 90)
        self.assertEqual(benchlib.reportable_percentile(999), 90)
        self.assertEqual(benchlib.reportable_percentile(1000), 99)
        self.assertEqual(benchlib.reportable_percentile(10000), 99.9)


class FailureAccounting(unittest.TestCase):
    def test_error_outcomes_lower_ok_frac_only(self):
        reps = [{"submitted": 602, "failed_outcomes": 2, "check_ok": True}] * 3
        attempted, failed, ok_frac = benchlib.account(reps)
        self.assertEqual((attempted, failed), (1806, 0))
        self.assertAlmostEqual(ok_frac, 600 / 602)

    def test_failed_check_fails_every_spec_of_its_rep(self):
        reps = [{"submitted": 100, "failed_outcomes": 0, "check_ok": True},
                {"submitted": 100, "failed_outcomes": 1, "check_ok": False}]
        attempted, failed, ok_frac = benchlib.account(reps)
        self.assertEqual((attempted, failed), (200, 100))
        self.assertAlmostEqual(ok_frac, 0.5)


class OutputCheck(unittest.TestCase):
    def setUp(self):
        workdir = run.BUILD / "tests"
        workdir.mkdir(parents=True, exist_ok=True)
        self.dir = Path(tempfile.mkdtemp(dir=workdir))

    def tearDown(self):
        shutil.rmtree(self.dir)

    def table_rep(self, perturb):
        outputs = {}
        for name, golden in run.GOLDENS["table"].items():
            data = (run.ROOT / golden).read_bytes()
            if perturb and name == "table_zen.json":
                at = data.index(b'"throughput": ') + len(b'"throughput": ')
                data = data[:at] + (b"7" if data[at:at + 1] != b"7"
                                    else b"8") + data[at + 1:]
            path = self.dir / name
            path.write_bytes(data)
            outputs[name] = str(path)
        return {"outputs": outputs, "submitted": 602, "failed_outcomes": 2,
                "bound_violations": 0}

    def test_golden_copy_passes(self):
        rep = self.table_rep(perturb=False)
        run.check("table", rep)
        self.assertTrue(rep["check_ok"])

    def test_perturbed_table_fails(self):
        rep = self.table_rep(perturb=True)
        run.check("table", rep)
        self.assertFalse(rep["check_ok"])
        self.assertEqual(benchlib.account([rep])[1], 602)

    def test_batch_bound_violation_fails(self):
        rep = {"outputs": {}, "submitted": 400, "failed_outcomes": 0,
               "bound_violations": 1}
        run.check("batch", rep)
        self.assertFalse(rep["check_ok"])

    def test_first_difference_is_located(self):
        self.assertIsNone(benchlib.check_identical(b"abc", b"abc"))
        self.assertIn("byte 1", benchlib.check_identical(b"abc", b"axc"))
        self.assertIn("byte 3", benchlib.check_identical(b"abc", b"abcd"))


class Manifest(unittest.TestCase):
    def test_benchmark_json_matches_runner(self):
        manifest = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual({w["name"] for w in manifest["workloads"]},
                         set(run.GOLDENS))
        self.assertEqual({m["name"]: m["unit"]
                          for m in manifest["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"]
                          for m in manifest["per_layer"]}, run.PER_LAYER)


if __name__ == "__main__":
    unittest.main()
