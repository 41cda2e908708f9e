"""Tests of the benchmark's reductions (perfbench/reduce.py) and of the
agreement between perfbench/run.py and BENCHMARK.json.

    python3 -m unittest discover -s perfbench/tests -p 'test_*.py'
"""

import json
import math
import os
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

import reduce  # noqa: E402
import run  # noqa: E402


class PercentileTest(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 101))
        self.assertEqual(reduce.percentile(values, 0.5), 50)
        self.assertEqual(reduce.percentile(values, 0.99), 99)
        self.assertEqual(reduce.percentile(values, 1.0), 100)
        self.assertEqual(reduce.percentile([7], 0.99), 7)

    def test_p99_when_ten_samples_lie_beyond_it(self):
        values = list(range(1, 1001))  # p99 = 990, 10 samples beyond
        self.assertEqual(reduce.tail_percentile(values), (0.99, 990))

    def test_highest_supported_percentile_otherwise(self):
        values = list(range(1, 101))  # p99 would have 1 sample beyond
        q, value = reduce.tail_percentile(values)
        self.assertAlmostEqual(q, 0.90)
        self.assertEqual(value, 90)
        self.assertEqual(sum(v > value for v in values), 10)

    def test_upper_quartile(self):
        self.assertEqual(reduce.upper_quartile(list(range(1, 101))), 75)
        self.assertEqual(reduce.upper_quartile([3, 1, 2, 4]), 3)
        self.assertEqual(reduce.upper_quartile([7]), 7)

    def test_never_below_the_median(self):
        q, value = reduce.tail_percentile(list(range(1, 13)))
        self.assertEqual(q, 0.5)
        self.assertEqual(value, 6)

    def test_order_does_not_matter(self):
        values = [5, 1, 4, 2, 3] * 100
        self.assertEqual(reduce.tail_percentile(values),
                         reduce.tail_percentile(sorted(values)))


class GeomeanTest(unittest.TestCase):
    def test_values(self):
        self.assertAlmostEqual(reduce.geomean([2, 8]), 4)
        self.assertAlmostEqual(reduce.geomean([1, 10, 100]), 10)
        self.assertAlmostEqual(reduce.geomean([3.5]), 3.5)

    def test_scales_with_every_value(self):
        base = reduce.geomean([1.0, 4.0, 9.0])
        self.assertAlmostEqual(reduce.geomean([2.0, 8.0, 18.0]), 2 * base)

    def test_rejects_empty_and_non_positive(self):
        for bad in ([], [1, 0], [2, -1]):
            with self.assertRaises(ValueError):
                reduce.geomean(bad)


def span(span_id, ts, dur, parent=None, name="s"):
    out = {"span_id": span_id, "ts": ts, "dur": dur, "name": name}
    if parent:
        out["parent_id"] = parent
    return out


class SelfTimeTest(unittest.TestCase):
    def test_leaf_self_time_is_its_duration(self):
        self.assertEqual(reduce.self_times([span("a", 0, 10)]), {"a": 10})

    def test_children_are_subtracted(self):
        spans = [span("p", 0, 100), span("c1", 10, 20, "p"),
                 span("c2", 50, 30, "p")]
        self.assertEqual(reduce.self_times(spans)["p"], 50)

    def test_overlapping_children_count_once(self):
        # Concurrent children cover [10, 60) together: 50, not 70.
        spans = [span("p", 0, 100), span("c1", 10, 40, "p"),
                 span("c2", 30, 30, "p")]
        self.assertEqual(reduce.self_times(spans)["p"], 50)

    def test_child_outside_parent_is_clipped(self):
        spans = [span("p", 0, 100), span("c", 90, 30, "p")]
        self.assertEqual(reduce.self_times(spans)["p"], 90)

    def test_grandchildren_only_reduce_their_parent(self):
        spans = [span("p", 0, 100), span("c", 0, 60, "p"),
                 span("g", 10, 40, "c")]
        own = reduce.self_times(spans)
        self.assertEqual(own, {"p": 40, "c": 20, "g": 40})

    def test_by_name_sums_spans(self):
        spans = [span("a", 0, 10, name="op"), span("b", 20, 10, name="op"),
                 span("c", 22, 4, "b", name="call")]
        table = reduce.self_time_by_name(spans)
        self.assertEqual(table["op"], (20, 16, 2))
        self.assertEqual(table["call"], (4, 4, 1))


class RateTest(unittest.TestCase):
    def test_service_throughput_is_upper_quartile_window(self):
        record = {"closed.mb_per_s": [700.0, 500.0, 800.0, 600.0, 650.0]}
        self.assertEqual(reduce.service_mb_per_s(record), 700.0)

    def test_batch_throughput_uses_upper_quartile_time_per_kind(self):
        record = {"prune.a.bytes": 100e6,
                  "prune.a.s": [1.0, 0.25, 0.5, 0.5],
                  "prune.b.bytes": 50e6,
                  "prune.b.s": [0.25, 0.25, 0.25, 9.0]}
        self.assertAlmostEqual(reduce.batch_mb_per_s(record), 200.0)

    def test_query_rows_reduce_each_leg(self):
        record = {"query.Q1.original_ms": [5.0, 4.0, 6.0],
                  "query.Q1.pruned_ms": [2.0, 3.0, 1.0]}
        self.assertEqual(reduce.query_rows(record), {"Q1": (6.0, 3.0)})
        self.assertEqual(reduce.query_rows(record, stat=min),
                         {"Q1": (4.0, 1.0)})

    def test_setup_is_median_set_up(self):
        e2e, details = reduce.end_to_end(synthetic_run())
        self.assertEqual(e2e["setup_s"], 1.0)
        self.assertEqual(details["setup_s_samples"], [1.0, 1.1, 0.9])

    def test_rate_ladder_picks_highest_passing_step(self):
        steady = [0.1] * 100
        record = {
            "rate.400.latency_ms": [5.0] * 100, "rate.400.late_ms": steady,
            "rate.400.failed": 0,
            "rate.800.latency_ms": [10.0] * 100, "rate.800.late_ms": steady,
            "rate.800.failed": 0,
            # A failed request is recorded as an infinite latency.
            "rate.900.latency_ms": [10.0] * 95 + [1e9] * 5,
            "rate.900.late_ms": steady, "rate.900.failed": 5,
            "rate.1000.latency_ms": [10.0] * 100,
            "rate.1000.late_ms": [0.1] * 75 + [50.0] * 25,
            "rate.1000.failed": 0,
        }
        steps, best = reduce.rate_ladder(record)
        self.assertEqual([s[0] for s in steps], [400, 800, 900, 1000])
        self.assertTrue(steps[-1][4])  # backlog grew at 1000/s
        self.assertEqual(best, 800)


class BenchmarkJsonTest(unittest.TestCase):
    def test_benchmark_json_matches_run_py(self):
        path = os.path.join(os.path.dirname(os.path.dirname(HERE)),
                            "BENCHMARK.json")
        with open(path) as f:
            spec = json.load(f)
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         list(run.WORKLOADS))
        for metric in spec["end_to_end"] + spec["per_layer"]:
            self.assertEqual(run.UNITS[metric["name"]], metric["unit"])
        declared = {m["name"] for m in spec["end_to_end"] + spec["per_layer"]}
        self.assertEqual(declared, set(run.UNITS))
        for metric in spec["end_to_end"]:
            self.assertLessEqual(metric["bound"], 0.25)

    def test_reductions_give_exactly_the_declared_metrics(self):
        with open(os.path.join(os.path.dirname(os.path.dirname(HERE)),
                               "BENCHMARK.json")) as f:
            spec = json.load(f)
        e2e, _ = reduce.end_to_end(synthetic_run())
        self.assertEqual(set(e2e), {m["name"] for m in spec["end_to_end"]})
        layers, _ = reduce.per_layer(synthetic_traced_run(), [
            span("o", 0, 10, name="op.prune"),
            span("c", 1, 8, "o", name="projection.PruneDocument")])
        self.assertEqual(set(layers), {m["name"] for m in spec["per_layer"]})
        for value in list(e2e.values()) + list(layers.values()):
            self.assertTrue(math.isfinite(value))


def synthetic_run():
    return {
        "setup_s": [1.0, 1.1, 0.9], "prune.all.bytes": 1e6,
        "prune.all.s": [0.01, 0.012], "prune.latency_ms": [10.0, 12.0],
        "query.Q1.original_ms": [5.0], "query.Q1.pruned_ms": [2.0],
        "rss.peak_mb": 50.0, "rss.reset": 1,
    }


def synthetic_traced_run():
    record = {
        "ladder.bytes": 1e6, "inputs.documents": 4,
        "inputs.kept_bytes": 5e5, "inputs.bytes": 1e6,
        "chunked.seq_s": [1.0], "chunked.par_s": [0.5],
        "dom.bytes": 1e6, "dom.parse_s": [0.004], "dom.parse_prune_s": [0.002],
        "eval.Q1.original_ms": [3.0], "eval.Q1.pruned_ms": [1.0],
        "eval.Q1.lang": "xpath", "analyze.Q1.us": [100.0],
        "xmark.generate_s": [0.5], "probe.register_ms": [1.0],
        "probe.healthz_ms": [0.1], "probe.inproc_ms": [2.0],
        "probe.request_ms": [3.0], "probe.request_metrics_only_ms": [2.9],
        "probe.cache_hits": 9, "probe.cache_misses": 1,
        "overhead.traced_s": [1.01], "overhead.untraced_s": [1.0],
    }
    for i, rung in enumerate(("scan", "tokenize", "prune", "validate",
                              "splice", "pipeline", "pool", "top_untraced")):
        record["ladder." + rung + ".s"] = [0.001 * (i + 1)]
    return record

if __name__ == "__main__":
    unittest.main()
