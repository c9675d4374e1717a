"""Tests of the benchmark itself.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

The statistics and span tests are pure Python.  The input tests build
the harness (as run.py does) and generate each workload's inputs twice.
"""

import filecmp
import os
import shutil
import statistics
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import stats  # noqa: E402


class StatsTest(unittest.TestCase):
    def test_median(self):
        self.assertEqual(stats.median([3, 1, 2]), 2)
        self.assertEqual(stats.median([4, 1, 3, 2]), 2.5)
        self.assertEqual(stats.median([7]), 7)
        with self.assertRaises(ValueError):
            stats.median([])

    def test_quartiles_match_statistics_quantiles(self):
        for values in ([1, 2, 3, 4, 5, 6, 7, 8, 9, 10],
                       [5.0, 1.0, 9.5, 3.25],
                       [2, 2, 2, 3],
                       list(range(37))):
            self.assertEqual(stats.quartiles(values),
                             tuple(statistics.quantiles(values, n=4)))
        self.assertEqual(stats.quartiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10]),
                         (2.75, 5.5, 8.25))

    def test_percentile_interpolates_between_ranks(self):
        values = list(range(1, 102))  # 1..101
        self.assertEqual(stats.percentile(values, 0), 1)
        self.assertEqual(stats.percentile(values, 50), 51)
        self.assertEqual(stats.percentile(values, 90), 91)
        self.assertEqual(stats.percentile(values, 100), 101)
        self.assertAlmostEqual(stats.percentile([10, 20], 25), 12.5)
        self.assertEqual(stats.percentile([4, 1, 3, 2], 50), 2.5)
        with self.assertRaises(ValueError):
            stats.percentile(values, 101)

    def test_samples_beyond(self):
        self.assertEqual(stats.samples_beyond(100, 90), 10)
        self.assertEqual(stats.samples_beyond(99, 90), 9)
        self.assertEqual(stats.samples_beyond(1000, 99), 10)
        self.assertEqual(stats.samples_beyond(20, 50), 10)

    def test_highest_percentile_with_ten_samples_beyond(self):
        hsp = stats.highest_supported_percentile
        self.assertIsNone(hsp(19))
        self.assertEqual(hsp(20), 50.0)
        self.assertEqual(hsp(39), 50.0)
        self.assertEqual(hsp(40), 75.0)
        self.assertEqual(hsp(99), 75.0)
        self.assertEqual(hsp(100), 90.0)
        self.assertEqual(hsp(199), 90.0)
        self.assertEqual(hsp(200), 95.0)
        self.assertEqual(hsp(999), 95.0)
        self.assertEqual(hsp(1000), 99.0)
        self.assertEqual(hsp(10000), 99.9)
        self.assertEqual(hsp(100, min_beyond=11), 75.0)


def span(id_, parent, start, end, name="x", op=1):
    return {"id": id_, "parent": parent, "start_ns": start, "end_ns": end,
            "name": name, "op": op, "tid": 1, "steps": 0}


class SpanTest(unittest.TestCase):
    def test_self_time_of_nested_spans(self):
        spans = [
            span(1, 0, 0, 100, "op"),
            span(2, 1, 10, 40, "load"),       # child, with a grandchild
            span(3, 2, 20, 30, "parse"),      # grandchild
            span(4, 1, 35, 60, "compile"),    # overlaps span 2 by 5
            span(5, 1, 90, 120, "engine"),    # runs past its parent's end
        ]
        st = stats.self_times(spans)
        # op: 100 minus [10, 60] and [90, 100], overlap counted once.
        self.assertEqual(st[1], 40)
        self.assertEqual(st[2], 20)   # 30 minus the grandchild's 10
        self.assertEqual(st[3], 10)
        self.assertEqual(st[4], 25)
        self.assertEqual(st[5], 30)

    def test_self_times_of_a_proper_tree_add_up_to_the_root(self):
        spans = [span(1, 0, 0, 100), span(2, 1, 10, 40), span(3, 2, 20, 30),
                 span(4, 1, 50, 60), span(5, 4, 50, 60)]
        self.assertEqual(sum(stats.self_times(spans).values()), 100)

    def test_self_time_without_children_is_duration(self):
        self.assertEqual(stats.self_times([span(7, 0, 5, 12)]), {7: 7})

    def test_layer_self_ms_adds_spans_of_one_name_per_op(self):
        spans = [
            span(1, 0, 0, 10_000_000, "op", op=1),
            span(2, 1, 0, 2_000_000, "core.engine.cpus1", op=1),
            span(3, 1, 2_000_000, 5_000_000, "core.engine.cpus1", op=1),
            span(4, 0, 0, 1_000_000, "op", op=2),
        ]
        self.assertEqual(stats.layer_self_ms(spans), {
            1: {"op": 5.0, "core.engine.cpus1": 5.0},
            2: {"op": 1.0},
        })

    def test_chrome_trace_has_the_profile_shape(self):
        trace = stats.chrome_trace([span(1, 0, 1500, 4000, "core.compile")])
        (ev,) = trace["traceEvents"]
        self.assertEqual(set(ev), {"name", "cat", "ph", "ts", "dur", "pid",
                                   "tid", "args"})
        self.assertEqual((ev["name"], ev["cat"], ev["ph"]),
                         ("core.compile", "core", "X"))
        self.assertEqual((ev["ts"], ev["dur"]), (1.5, 2.5))


class InputsTest(unittest.TestCase):
    """The same seed writes byte-identical trace files; another seed
    writes a different set."""

    @classmethod
    def setUpClass(cls):
        cls.harness, _ = run.build()
        cls.base = os.path.join(run.WORK, "test_inputs")
        shutil.rmtree(cls.base, ignore_errors=True)

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.base, ignore_errors=True)

    def generate(self, workload, seed, tag):
        d = os.path.join(self.base, "%s-%d-%s" % (workload, seed, tag))
        os.makedirs(d)
        out = subprocess.run(
            [self.harness, "gen", "--workload", workload, "--seed",
             str(seed)], cwd=d, check=True, stdout=subprocess.PIPE,
            text=True).stdout
        names = sorted(out.split())
        self.assertTrue(names)
        return d, names

    def test_same_seed_same_bytes_other_seed_differs(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                a, names = self.generate(workload, 7, "a")
                b, names_b = self.generate(workload, 7, "b")
                c, names_c = self.generate(workload, 8, "c")
                self.assertEqual(names, names_b)
                self.assertEqual(names, names_c)
                _, mismatch, errors = filecmp.cmpfiles(a, b, names,
                                                       shallow=False)
                self.assertEqual((mismatch, errors), ([], []))
                # Some parameters are drawn from small integer ranges
                # (thread counts), so a file may repeat; the set may not.
                _, differ, _ = filecmp.cmpfiles(a, c, names, shallow=False)
                self.assertTrue(differ)


if __name__ == "__main__":
    unittest.main()
