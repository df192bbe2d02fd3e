"""Self-tests of the benchmark itself (not collected by the repository's pytest run).

    python3 bench/selftest.py

Smoke-runs every workload shape on n=8 grids, with tracing off and on, and
checks the emitted metric names and units against BENCHMARK.json; checks the
correctness gate on an exit-3 command and a wrong-number report; checks the
span arithmetic on a synthetic tree.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    BENCH = json.load(_fh)
with open(os.path.join(HERE, "design.json")) as _fh:
    DESIGN = json.load(_fh)


def _units(entries):
    return {e["name"]: e["unit"] for e in entries}


class SmokeRuns(unittest.TestCase):
    """Every workload emits every metric BENCHMARK.json names, with its unit."""

    def _check(self, trace, expected):
        for name in workloads.WORKLOADS:
            with self.subTest(workload=name, trace=trace):
                result, _ = run.run_workload(name, seed=3, seconds=0, trace=trace, tiny=True)
                self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                got = {k: m["unit"] for k, m in result["metrics"].items()}
                self.assertEqual(got, expected)
                self.assertGreaterEqual(result["attempted"], len(workloads.WORKLOADS[name]))

    def test_end_to_end_metrics(self):
        self._check(0, _units(BENCH["end_to_end"]))

    def test_per_layer_metrics(self):
        self._check(1, _units(BENCH["per_layer"]))


class Gate(unittest.TestCase):
    def setUp(self):
        self.refs = workloads.load_references()
        self.tmp = tempfile.TemporaryDirectory()

    def tearDown(self):
        self.tmp.cleanup()

    def _command(self, label, rc, eigenvalues, passed=True):
        path = os.path.join(self.tmp.name, f"{len(os.listdir(self.tmp.name))}.json")
        report = {"passed": passed, "result": {"eigensolve": {"eigenvalues": eigenvalues}}}
        with open(path, "w") as fh:
            json.dump(report, fh)
        return {"label": label, "rc": rc, "error": None, "report": path}

    def test_exit_3_and_wrong_numbers_count_as_failed(self):
        good = self.refs["spectrum_t"]["eigenvalues"]
        off = [good[0] + 1e-6] + good[1:]
        commands = [
            self._command("spectrum_t", 0, good),
            self._command("spectrum_h", 3, self.refs["spectrum_h"]["eigenvalues"], False),
            self._command("spectrum_t", 0, off),
        ]
        verdict = worker.gate([{"commands": commands}], self.refs)
        self.assertEqual(verdict["attempted"], 3)
        self.assertEqual(verdict["failed"], 2)  # fail_frac 2/3
        self.assertEqual(verdict["wrong"], 1)  # only the exit-0 report is a silent error
        labels = [f["label"] for f in verdict["failures"]]
        self.assertEqual(labels, ["spectrum_h", "spectrum_t"])

    def test_raising_command_fails(self):
        verdict = workloads.judge("spectrum_t", None, "RuntimeError: boom", None, self.refs)
        self.assertTrue(verdict["failed"])
        self.assertFalse(verdict["wrong"])

    def test_tolerance_is_relative_above_one(self):
        self.assertEqual(workloads.mismatches({"x": [1e3 + 5e-7]}, {"x": [1e3]}), [])
        self.assertEqual(len(workloads.mismatches({"x": [1e-3 + 5e-9]}, {"x": [1e-3]})), 1)
        self.assertEqual(len(workloads.mismatches({"x": [1.0]}, {"x": [1.0, 2.0]})), 1)

    def test_small_error_measures_are_compared_relatively(self):
        ref = {"sup_deviation": [1e-9]}
        self.assertEqual(workloads.mismatches({"sup_deviation": [1e-9 * (1 + 5e-5)]}, ref), [])
        self.assertEqual(len(workloads.mismatches({"sup_deviation": [2e-9]}, ref)), 1)


class SpanArithmetic(unittest.TestCase):
    def _tree(self):
        # root [0, 10] > a [1, 4] > a [2, 3] (same name nested), root > b [5, 9];
        # fields in spans.NAME, START, END, PARENT, CMD, ATTRS order
        return [["root", 0.0, 10.0, -1, None, {}],
                ["a", 1.0, 4.0, 0, 0, {"cols": 2}],
                ["a", 2.0, 3.0, 1, 0, {"cols": 5}],
                ["b", 5.0, 9.0, 0, 1, {}]]

    def test_self_time(self):
        tree = self._tree()
        selfs = spans.self_time(tree)
        self.assertEqual(selfs, [3.0, 2.0, 1.0, 4.0])

    def test_inclusive_counts_nested_repeats_once(self):
        tree = self._tree()
        self.assertEqual(spans.inclusive(tree, "a"), 3.0)
        self.assertEqual(spans.count(tree, "a"), 1)
        self.assertEqual(spans.attr_sum(tree, "a", "cols"), 2)

    def test_tracer_records_parents_and_restores_patches(self):
        import scipy.fft

        original = scipy.fft.fftn
        tracer = spans.Tracer()
        tracer.install()
        try:
            self.assertIsNot(scipy.fft.fftn, original)
            root = tracer.open("pass")
            scipy.fft.fftn(__import__("numpy").ones((4, 4)))
            tracer.close(root)
        finally:
            tracer.uninstall()
        self.assertIs(scipy.fft.fftn, original)
        self.assertEqual([s[spans.NAME] for s in tracer.spans], ["pass", "fft"])
        self.assertEqual(tracer.spans[1][spans.PARENT], 0)
        self.assertEqual(tracer.spans[1][spans.ATTRS]["bytes"], 4 * 4 * 8 + 4 * 4 * 16)


class Design(unittest.TestCase):
    def test_design_names_every_metric_and_workload(self):
        self.assertEqual(set(DESIGN["per_layer"]), set(_units(BENCH["per_layer"])))
        self.assertEqual([w["name"] for w in BENCH["workloads"]], list(workloads.WORKLOADS))
        self.assertTrue(set(_units(BENCH["end_to_end"])) <= set(DESIGN["end_to_end"]))
        for name, entry in DESIGN["per_layer"].items():
            for metric, names in entry["moves"].items():
                with self.subTest(metric=name):
                    self.assertIn(metric, DESIGN["end_to_end"])
                    self.assertTrue(set(names) <= set(workloads.WORKLOADS))

    def test_every_label_has_a_reference(self):
        self.assertEqual(set(workloads.load_references()), set(workloads.COMMANDS))


if __name__ == "__main__":
    unittest.main()
