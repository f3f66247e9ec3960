"""Tests of the benchmark's own logic (no build needed):

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import copy
import json
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.dont_write_bytecode = True

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def fleet_record(completed=990, cancelled=10, delivered=5000,
                 digest="00000000deadbeef"):
    return {"wall_s": 1.0, "setup_s": 0.001, "simulate_s": 0.9,
            "report_s": 0.01, "peak_rss_mb": 5.0,
            "retired": completed + cancelled, "points": 1,
            "digest": digest,
            "facts": {"completed": completed, "cancelled": cancelled,
                      "delivered": delivered, "wasted": 0},
            "layer": {"cluster.run_s": 0.9, "serving.arrivals_s": 0.1}}


def shape(doc):
    """Structure of a JSON document with the leaf values erased."""
    if isinstance(doc, dict):
        return {k: shape(v) for k, v in doc.items()}
    if isinstance(doc, list):
        return [shape(v) for v in doc]
    return type(doc).__name__


class OutputCheckTest(unittest.TestCase):
    expected = {"requests": 1000, "sum_outputs": 5000}

    def test_correct_records_pass(self):
        recs = [fleet_record() for _ in range(3)]
        self.assertEqual(checks.failed_reps("replay", self.expected, recs),
                         {})

    def test_one_count_off_fails(self):
        for field in ("completed", "cancelled"):
            rec = fleet_record()
            rec["facts"][field] += 1
            self.assertTrue(
                checks.rep_failures("control", self.expected, rec), field)

    def test_delivered_tokens_off_fails_replay(self):
        rec = fleet_record(delivered=4999)
        self.assertTrue(checks.rep_failures("replay", self.expected, rec))

    def test_changed_digest_fails_only_that_rep(self):
        recs = [fleet_record() for _ in range(3)]
        recs[1]["digest"] = "00000000deadbeee"
        bad = checks.failed_reps("replay", self.expected, recs)
        self.assertEqual(list(bad), [1])

    def test_driver_error_fails(self):
        self.assertTrue(checks.rep_failures(
            "replay", self.expected, {"error": "driver exited 1"}))

    def test_sweep_points(self):
        rec = {"points": 99, "facts": {"bad_points": 0}, "digest": "x"}
        self.assertTrue(checks.rep_failures("design_sweep",
                                            {"points": 100}, rec))
        rec = {"points": 100, "facts": {"bad_points": 1}, "digest": "x"}
        self.assertTrue(checks.rep_failures("design_sweep",
                                            {"points": 100}, rec))
        rec = {"points": 100, "facts": {"bad_points": 0}, "digest": "x"}
        self.assertFalse(checks.rep_failures("design_sweep",
                                             {"points": 100}, rec))


class WorkloadInputTest(unittest.TestCase):
    def test_seeds_give_different_inputs_of_one_shape(self):
        for name, gen in workloads.GENERATORS.items():
            a, b = gen(1, "out"), gen(2, "out")
            self.assertEqual(shape(a), shape(b), name)
            self.assertNotEqual(json.dumps(a), json.dumps(b), name)
            self.assertEqual(gen(1, "out"), a, name + " is not seeded")

    def test_expected_work_is_seed_independent(self):
        for name, gen in workloads.GENERATORS.items():
            self.assertEqual(workloads.expected(name, gen(1, "o")),
                             workloads.expected(name, gen(7, "o")), name)


class MetricNamesTest(unittest.TestCase):
    def setUp(self):
        self.bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())

    def declared(self, key):
        return {m["name"]: m["unit"] for m in self.bench[key]}

    def test_tables_match_benchmark_json(self):
        self.assertEqual(run.END_TO_END, self.declared("end_to_end"))
        self.assertEqual(run.PER_LAYER, self.declared("per_layer"))
        self.assertEqual(sorted(w["name"] for w in self.bench["workloads"]),
                         sorted(workloads.GENERATORS))

    def test_printed_metrics_are_declared(self):
        main = [fleet_record() for _ in range(3)]
        e2e = run.end_to_end(main, 3, 3)
        self.assertEqual(set(e2e), set(self.declared("end_to_end")))
        spans = copy.deepcopy(main)
        layer = run.per_layer({"main": main, "spans": spans,
                               "noobs": main})
        self.assertEqual(set(layer), set(self.declared("per_layer")))

    def test_end_to_end_metrics_are_never_zero(self):
        e2e = run.end_to_end([fleet_record()], 1, 1)
        for name, value in e2e.items():
            self.assertGreater(value, 0, name)


if __name__ == "__main__":
    unittest.main()
