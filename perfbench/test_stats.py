"""Tests of the benchmark's own statistics and of its result line.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import os
import statistics
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402
import stats  # noqa: E402


class MedianAndPercentile(unittest.TestCase):
    def test_median_odd_and_even(self):
        self.assertEqual(stats.median([3, 1, 2]), 2)
        self.assertEqual(stats.median([4, 1, 3, 2]), 2.5)

    def test_percentile_interpolates_between_ranks(self):
        xs = list(range(1, 11))  # 1..10
        self.assertEqual(stats.percentile(xs, 0), 1)
        self.assertEqual(stats.percentile(xs, 100), 10)
        self.assertAlmostEqual(stats.percentile(xs, 50), 5.5)
        self.assertAlmostEqual(stats.percentile(xs, 90), 9.1)

    def test_percentile_ignores_input_order(self):
        self.assertEqual(stats.percentile([5, 1, 4, 2, 3], 75), 4)

    def test_percentile_of_nothing_is_an_error(self):
        with self.assertRaises(ValueError):
            stats.percentile([], 50)


class TailRule(unittest.TestCase):
    def test_highest_percentile_with_ten_beyond(self):
        self.assertIsNone(stats.tail_percentile(19))
        self.assertEqual(stats.tail_percentile(20), 50.0)
        self.assertEqual(stats.tail_percentile(39), 50.0)
        self.assertEqual(stats.tail_percentile(40), 75.0)
        self.assertEqual(stats.tail_percentile(100), 90.0)
        self.assertEqual(stats.tail_percentile(199), 90.0)
        self.assertEqual(stats.tail_percentile(200), 95.0)
        self.assertEqual(stats.tail_percentile(1000), 99.0)
        self.assertEqual(stats.tail_percentile(9999), 99.0)
        self.assertEqual(stats.tail_percentile(10000), 99.9)
        self.assertEqual(stats.tail_percentile(100000), 99.99)

    def test_at_least_ten_samples_lie_beyond_the_tail(self):
        for n in (20, 57, 100, 345, 1000, 4321, 10000):
            xs = list(range(n))
            summary = stats.summarize(xs)
            beyond = sum(1 for x in xs if x > summary["tail"])
            self.assertGreaterEqual(beyond, 10, n)
            self.assertEqual(summary["n"], n)

    def test_summary_of_few_samples_reports_the_maximum(self):
        summary = stats.summarize([3.0, 1.0, 2.0])
        self.assertEqual(summary, {"median": 2.0, "tail": 3.0, "tail_pct": 100.0, "n": 3})

    def test_summary_of_no_samples_is_zero(self):
        self.assertEqual(stats.summarize([])["n"], 0)
        self.assertEqual(stats.summarize([])["median"], 0.0)


class Throughput(unittest.TestCase):
    def test_equal_work_units_give_total_work_over_total_time(self):
        # Two units of 10 work each, taking 1 s and 4 s: 20 work in 5 s.
        self.assertAlmostEqual(stats.throughput([10.0, 2.5]), 4.0)

    def test_equal_time_units_give_total_work_over_total_time(self):
        # Two 1 s windows doing 10 and 2.5 work: 12.5 work in 2 s.
        self.assertAlmostEqual(stats.throughput([10.0, 2.5], equal_time=True), 6.25)

    def test_windowed_workload_uses_the_equal_time_mean(self):
        raw = raw_run(work_name="stress.ginstr_per_s", work=[10.0, 2.5])
        self.assertAlmostEqual(run.work_per_s(raw), 6.25)
        self.assertAlmostEqual(run.work_per_s(raw_run(work=[10.0, 2.5])), 4.0)


class SpreadAndBounds(unittest.TestCase):
    def test_spread_matches_statistics_quantiles(self):
        values = [10.0, 11.0, 9.5, 10.2, 10.8, 9.9, 10.1, 10.4, 9.7, 10.3]
        q1, _, q3 = statistics.quantiles(values, n=4)
        self.assertAlmostEqual(stats.spread(values), (q3 - q1) / statistics.median(values))

    def test_spread_of_identical_values_is_zero(self):
        self.assertEqual(stats.spread([2.0] * 10), 0.0)

    def test_worsening_follows_the_better_direction(self):
        self.assertAlmostEqual(stats.worsening(100.0, 110.0, "lower"), 0.10)
        self.assertAlmostEqual(stats.worsening(100.0, 90.0, "lower"), -0.10)
        self.assertAlmostEqual(stats.worsening(100.0, 90.0, "higher"), 0.10)
        self.assertAlmostEqual(stats.worsening(100.0, 110.0, "higher"), -0.10)
        with self.assertRaises(ValueError):
            stats.worsening(1.0, 2.0, "sideways")

    def test_within_bound_compares_medians(self):
        first = [100.0, 101.0, 99.0]
        self.assertTrue(stats.within_bound(first, [109.0, 110.0, 500.0], "lower", 0.1))
        self.assertFalse(stats.within_bound(first, [111.0, 112.0, 90.0], "lower", 0.1))
        self.assertTrue(stats.within_bound(first, [91.0, 90.5, 92.0], "higher", 0.1))
        self.assertFalse(stats.within_bound(first, [89.0, 88.0, 200.0], "higher", 0.1))


BENCHMARK = {
    "end_to_end": [
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
        {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
        {"name": "work_per_s", "unit": "1/s", "better": "higher", "bound": 0.2},
    ],
    "per_layer": [
        {"name": "payload.analyze_us", "unit": "us", "better": "lower"},
        {"name": "payload.analyze_us.tail", "unit": "us", "better": "lower"},
        {"name": "payload.analyze_us.n", "unit": "count", "better": "higher"},
        {"name": "control.tick_us", "unit": "us", "better": "lower"},
        {"name": "tuning.unique_ratio", "unit": "ratio", "better": "higher"},
        {"name": "payload.self_ms", "unit": "ms", "better": "lower"},
        {"name": "residual_ms", "unit": "ms", "better": "lower"},
        {"name": "wall_ms", "unit": "ms", "better": "lower"},
        {"name": "trace.work_per_s", "unit": "1/s", "better": "higher"},
    ],
}


def raw_run(**overrides):
    raw = {
        "workload": "tune-sim",
        "attempted": 120,
        "failed": 0,
        "checks": {"history_identical": [1, 1]},
        "errors": [],
        "setup_s": [0.3, 0.1, 0.2],
        "work_name": "tune.candidates_per_s",
        "work": [float(x) for x in range(1, 101)],
        "peak_rss_mb": 15.5,
        "scalars": {"tuning.unique_ratio": [0.8, 0.6, 0.7]},
        "layers": {"payload.analyze_us": [float(x) for x in range(100)]},
        "self_ms": {"payload": 12.0, "bench": 3.0},
        "residual_ms": 5.0,
        "wall_ms": 20.0,
    }
    raw.update(overrides)
    return raw


class ResultLine(unittest.TestCase):
    def test_end_to_end_result_has_exactly_the_result_keys(self):
        result = run.compose_result(raw_run(), False, BENCHMARK)
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertEqual(set(result["metrics"]), {"setup_s", "peak_rss_mb", "work_per_s"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["metrics"]["setup_s"], {"value": 0.2, "unit": "s"})
        self.assertAlmostEqual(result["metrics"]["work_per_s"]["value"],
                               statistics.harmonic_mean(range(1, 101)))
        for metric in result["metrics"].values():
            self.assertEqual(set(metric), {"value", "unit"})
            self.assertIsInstance(metric["value"], float)

    def test_per_layer_result_lists_every_per_layer_metric(self):
        result = run.compose_result(raw_run(), True, BENCHMARK)
        metrics = result["metrics"]
        self.assertEqual(set(metrics), {m["name"] for m in BENCHMARK["per_layer"]})
        self.assertAlmostEqual(metrics["payload.analyze_us"]["value"], 49.5)
        self.assertAlmostEqual(metrics["payload.analyze_us.tail"]["value"],
                               stats.percentile(list(range(100)), 90))
        self.assertEqual(metrics["payload.analyze_us.n"]["value"], 100.0)
        self.assertEqual(metrics["tuning.unique_ratio"]["value"], 0.7)
        self.assertEqual(metrics["control.tick_us"]["value"], 0.0)  # layer bypassed
        self.assertEqual(metrics["payload.self_ms"], {"value": 12.0, "unit": "ms"})
        self.assertEqual(metrics["residual_ms"]["value"], 5.0)

    def test_failed_operation_or_check_makes_the_run_incorrect(self):
        self.assertFalse(run.compose_result(raw_run(failed=1), False, BENCHMARK)["correct"])
        bad_check = raw_run(checks={"history_identical": [0, 1]})
        self.assertFalse(run.compose_result(bad_check, False, BENCHMARK)["correct"])

    def test_result_serializes_to_one_json_line(self):
        line = json.dumps(run.compose_result(raw_run(), False, BENCHMARK), sort_keys=True)
        self.assertNotIn("\n", line)
        self.assertEqual(json.loads(line)["attempted"], 120)

    def test_self_times_and_residual_sum_to_wall_in_report(self):
        raw = raw_run()
        self.assertAlmostEqual(sum(raw["self_ms"].values()) + raw["residual_ms"], raw["wall_ms"])
        lines = run.report_lines(raw, True)
        self.assertTrue(any(line.strip().startswith("residual") for line in lines))


if __name__ == "__main__":
    unittest.main()
