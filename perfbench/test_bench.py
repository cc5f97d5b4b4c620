"""Tests of the benchmark's own span, self-time, percentile and window code.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import math
import os
import unittest

import run
from ops import Op, execute
from spans import NullTracer, Span, Tracer, aggregate, percentile, self_times, windows


def span(name, start, end, parent=None, **attrs):
    sp = Span(name, start, parent, None)
    sp.end = end
    sp.attrs.update(attrs)
    return sp


class PercentileTest(unittest.TestCase):
    def test_nearest_rank(self):
        lat = list(range(1, 11))
        self.assertEqual(percentile(lat, 50), 5)
        self.assertEqual(percentile(lat, 90), 9)
        self.assertEqual(percentile(lat, 100), 10)
        self.assertEqual(percentile([7], 90), 7)

    def test_failed_op_is_infinitely_slow(self):
        lat = [1.0] * 9 + [math.inf]
        self.assertEqual(percentile(lat, 90), 1.0)
        self.assertEqual(percentile(lat, 100), math.inf)
        # two failures in ten push the 90th percentile past every limit
        self.assertEqual(percentile([1.0] * 8 + [math.inf] * 2, 90), math.inf)

    def test_failed_op_sorts_last_whatever_its_position(self):
        self.assertEqual(percentile([math.inf, 3.0, 1.0, 2.0], 75), 3.0)

    def test_empty_is_an_error(self):
        with self.assertRaises(ValueError):
            percentile([], 50)


class SelfTimeTest(unittest.TestCase):
    def test_leaf_self_time_is_its_duration(self):
        self.assertEqual(self_times([span("a", 5, 12)]), [7])

    def test_overlapping_and_clipped_children_count_once(self):
        spans = [span("p", 0, 100), span("c1", 10, 30, 0), span("c2", 20, 50, 0),
                 span("c3", 90, 120, 0)]
        # children cover [10, 50] and [90, 100]: 50 of the parent's 100
        self.assertEqual(self_times(spans), [50, 20, 30, 30])

    def test_only_direct_children_are_subtracted(self):
        spans = [span("op", 0, 100), span("mid", 10, 60, 0),
                 span("leaf", 20, 40, 1)]
        self.assertEqual(self_times(spans), [50, 30, 20])


class TracerTest(unittest.TestCase):
    def test_spans_record_parent_and_op(self):
        ticks = iter(range(100))
        tr = Tracer(clock=lambda: next(ticks))
        tr.op = "0.3"
        with tr.span("io.load_structure"):
            pass
        with tr.span("engine.run_remark_hunt") as sp:
            with tr.span("subsets.enumerate_subs.scan") as inner:
                inner.set(subsets=4)
            sp.set(trials=9)
        names = [(s.name, s.parent, s.op) for s in tr.spans]
        self.assertEqual(names, [("io.load_structure", None, "0.3"),
                                 ("engine.run_remark_hunt", None, "0.3"),
                                 ("subsets.enumerate_subs.scan", 1, "0.3")])
        self.assertEqual([(s.start, s.end) for s in tr.spans],
                         [(0, 1), (2, 5), (3, 4)])

    def test_span_closes_when_the_call_raises(self):
        tr = Tracer()
        with self.assertRaises(KeyError):
            with tr.span("groupring.generated_ideal"):
                raise KeyError("x")
        self.assertIsNotNone(tr.spans[0].end)
        with tr.span("next"):
            pass
        self.assertIsNone(tr.spans[1].parent)

    def test_null_tracer_records_nothing(self):
        tr = NullTracer()
        with tr.span("groupring.mul") as sp:
            sp.set(calls=40)
        self.assertEqual(tr.spans, [])

    def test_aggregate_uses_call_counts_and_self_time(self):
        spans = [span("groupring.mul", 0, 40, calls=20),
                 span("groupring.mul", 50, 70, calls=10),
                 span("op", 100, 200), span("subsets.closure", 120, 130, 2),
                 span("subsets.enumerate_subs.scan", 300, 310, failed=1, subsets=0)]
        stats = aggregate(spans)
        self.assertEqual(stats["groupring.mul"], {"calls": 30, "self_ns": 60})
        self.assertEqual(stats["op"], {"calls": 1, "self_ns": 90})
        self.assertEqual(stats["subsets.enumerate_subs.scan"],
                         {"calls": 1, "self_ns": 10, "failed": 1, "subsets": 0})


class WindowTest(unittest.TestCase):
    def test_windows_hold_at_least_min_ops(self):
        rounds = [([1.0] * 65, 2.0)] * 5
        wins = windows(rounds, min_ops=100)
        self.assertEqual([len(lat) for lat, _ in wins], [130, 195])
        self.assertEqual([secs for _, secs in wins], [4.0, 6.0])

    def test_short_run_is_one_window(self):
        self.assertEqual(len(windows([([1.0] * 30, 1.0)], min_ops=100)), 1)


class OpOutcomeTest(unittest.TestCase):
    def outcome(self, run_fn, check, defect=None):
        rec = execute(Op("k", run_fn, check, defect), NullTracer())
        rec.verify()
        return rec.failure, rec.failure is not None and rec.failure != rec.defect

    def test_right_answer(self):
        self.assertEqual(self.outcome(lambda tr: 4, lambda r: None), (None, False))

    def test_wrong_answer_fails_and_is_never_dropped(self):
        self.assertEqual(self.outcome(lambda tr: 5, lambda r: "want 4"),
                         ("wrong-answer", True))

    def test_known_defect_fails_but_is_expected(self):
        def capped(tr):
            raise RuntimeError("cap")
        self.assertEqual(self.outcome(capped, lambda r: None, "RuntimeError"),
                         ("RuntimeError", False))
        # a known defect that shows up as another failure is unexpected
        self.assertEqual(self.outcome(lambda tr: 5, lambda r: "bad", "RuntimeError"),
                         ("wrong-answer", True))

    def test_crashing_check_is_a_failure(self):
        self.assertEqual(self.outcome(lambda tr: 1, lambda r: 1 / 0),
                         ("check-error", True))


class ContractTest(unittest.TestCase):
    def test_benchmark_json_names_what_run_prints(self):
        path = os.path.join(os.path.dirname(run.HERE), "BENCHMARK.json")
        with open(path) as fh:
            spec = json.load(fh)
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]},
                         run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]},
                         run.PER_LAYER)


if __name__ == "__main__":
    unittest.main()
