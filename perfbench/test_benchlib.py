#!/usr/bin/env python3
"""Self-test of the benchmark's result handling, on fixture runner output.

    python3 perfbench/test_benchlib.py

Covers the runner-output parser, the fingerprint comparison, the
failed-run accounting behind run_pass_share and the result line. Needs no
build: the fixtures in perfbench/fixtures/ are recorded runner output.
"""
import json
import statistics
import unittest
from pathlib import Path

import benchlib

HERE = Path(__file__).resolve().parent
FIXTURES = HERE / "fixtures"


def fixture(name):
    return (FIXTURES / name).read_text()


class ParseRunnerOutput(unittest.TestCase):
    def test_takes_the_last_line_after_log_noise(self):
        doc = benchlib.parse_runner_output("warming up\n\n" + fixture("fig7_timed.txt") + "\n")
        self.assertEqual(doc["workload"], "fig7-pagein")
        self.assertEqual(len(doc["reps"]), 3)

    def test_rejects_empty_output(self):
        with self.assertRaises(benchlib.BenchError):
            benchlib.parse_runner_output("  \n")

    def test_rejects_a_non_json_last_line(self):
        with self.assertRaises(benchlib.BenchError):
            benchlib.parse_runner_output(fixture("fig7_timed.txt") + "\nSegmentation fault\n")

    def test_rejects_missing_keys(self):
        doc = json.loads(fixture("fig7_timed.txt"))
        del doc["reps"][1]["fingerprint"]
        with self.assertRaises(benchlib.BenchError):
            benchlib.parse_runner_output(json.dumps(doc))
        with self.assertRaises(benchlib.BenchError):
            benchlib.parse_runner_output(json.dumps({**doc, "reps": []}))


class Fingerprints(unittest.TestCase):
    def setUp(self):
        self.table = benchlib.load_fingerprints(fixture("fingerprints.json"))
        self.storm = benchlib.parse_runner_output(fixture("storm_timed_one_bad.txt"))

    def test_matching_reps_pass(self):
        doc = benchlib.parse_runner_output(fixture("fig7_timed.txt"))
        expected = benchlib.recorded_fingerprint(self.table, "fig7-pagein", 1)
        passed, failures = benchlib.check_fingerprints(doc["reps"], expected)
        self.assertEqual((passed, failures), (3, []))

    def test_a_changed_outcome_fails_and_names_the_field(self):
        expected = benchlib.recorded_fingerprint(self.table, "storm-300", 1)
        passed, failures = benchlib.check_fingerprints(self.storm["reps"], expected)
        self.assertEqual(passed, 2)
        self.assertEqual(len(failures), 1)
        self.assertIn("rep 1", failures[0])
        self.assertIn("revocations_intrusive", failures[0])
        self.assertNotIn("'faults'", failures[0])

    def test_a_failed_audit_fails_even_when_recorded_so(self):
        rep = {"fingerprint": {"faults": 1, "audit_ok": False}}
        passed, failures = benchlib.check_fingerprints([rep], {"faults": 1, "audit_ok": False})
        self.assertEqual(passed, 0)
        self.assertIn("audit/shape", failures[0])

    def test_an_unrecorded_spec_seed_fails(self):
        self.assertIsNone(benchlib.recorded_fingerprint(self.table, "storm-300", 99))
        passed, failures = benchlib.check_fingerprints(self.storm["reps"][:1], None)
        self.assertEqual(passed, 0)
        self.assertIn("no recorded fingerprint", failures[0])

    def test_obs_workload_shares_the_storm_recording(self):
        table = {"storm-300": {"2": {"faults": 5}}}
        self.assertEqual(benchlib.recorded_fingerprint(table, "storm-300-obs", 2), {"faults": 5})

    def test_diverging_storm_and_obs_recordings_are_refused(self):
        table = json.loads(fixture("fingerprints.json"))
        table["storm-300-obs"]["1"]["faults"] += 1
        with self.assertRaises(benchlib.BenchError):
            benchlib.load_fingerprints(json.dumps(table))


class Accounting(unittest.TestCase):
    def test_failed_run_share(self):
        self.assertEqual(benchlib.failed_run_share(4, 1), 0.25)
        self.assertEqual(benchlib.failed_run_share(3, 0), 0.0)
        self.assertEqual(benchlib.failed_run_share(0, 0), 1.0)

    def test_end_to_end_from_fixture(self):
        doc = benchlib.parse_runner_output(fixture("storm_timed_one_bad.txt"))
        table = benchlib.load_fingerprints(fixture("fingerprints.json"))
        passed, _ = benchlib.check_fingerprints(
            doc["reps"], benchlib.recorded_fingerprint(table, "storm-300", 1))
        values = benchlib.end_to_end(doc, len(doc["reps"]), len(doc["reps"]) - passed)
        rates = [r["faults"] / r["measured_s"] for r in doc["reps"][1:]]  # rep 0 warms up
        self.assertEqual(benchlib.timed_rates(doc), rates)
        self.assertEqual(values["faults_per_host_s"], statistics.quantiles(rates, n=4)[0])
        self.assertLess(values["faults_per_host_s"], statistics.median(rates))
        self.assertEqual(values["setup_s"], statistics.median(doc["setup_samples_s"]))
        self.assertEqual(values["peak_rss_mb"], doc["peak_rss_mb"])
        self.assertAlmostEqual(values["run_pass_share"], 2 / 3)

    def test_a_single_repetition_is_timed(self):
        doc = benchlib.parse_runner_output(fixture("fig7_timed.txt"))
        doc["reps"] = doc["reps"][:1]
        rep = doc["reps"][0]
        self.assertEqual(benchlib.timed_rates(doc), [rep["faults"] / rep["measured_s"]])

    def test_result_line_carries_units_and_counts(self):
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        doc = benchlib.parse_runner_output(fixture("fig7_timed.txt"))
        metrics = benchlib.with_units(benchlib.end_to_end(doc, 3, 0), spec["end_to_end"])
        line = json.loads(benchlib.result_line(True, 3, 0, metrics))
        self.assertEqual(set(line), {"correct", "attempted", "failed", "metrics"})
        self.assertEqual(set(line["metrics"]), {m["name"] for m in spec["end_to_end"]})
        self.assertEqual(line["metrics"]["setup_s"]["unit"], "s")

    def test_missing_metric_is_an_error(self):
        with self.assertRaises(benchlib.BenchError):
            benchlib.with_units({}, [{"name": "setup_s", "unit": "s"}])

    def test_traced_fixture_covers_every_per_layer_metric(self):
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        doc = benchlib.parse_runner_output(fixture("storm_traced.txt"))
        metrics = benchlib.with_units(doc["layers"], spec["per_layer"])
        self.assertEqual(len(metrics), len(spec["per_layer"]))

    def test_paper_ratio_error(self):
        fp = {"app-10%.bytes": 100, "app-20%.bytes": 200, "app-40%.bytes": 404}
        self.assertAlmostEqual(benchlib.paper_ratio_err_pct(fp), 1.0)


if __name__ == "__main__":
    unittest.main()
