"""Tests of the benchmark's own logic.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import os
import statistics
import sys
import unittest

sys.dont_write_bytecode = True
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402
import stats  # noqa: E402

with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
    SPEC = json.load(f)


class Names(unittest.TestCase):
    def test_accepts(self):
        for n in ["wall_s", "peak_rss_mb", "policies.decide_s.DPMakespan",
                  "gc.trace_gen.minor_words", "sweep_workers.worker_s.max", "9lives", "a-b"]:
            self.assertTrue(stats.valid_name(n), n)

    def test_rejects(self):
        for n in ["", "_lead", ".lead", "a b", "a/b", "a:b", "x" * 65, "décide", None, 3]:
            self.assertFalse(stats.valid_name(n), n)

    def test_units(self):
        for u in ["s", "ms", "1/s", "count", "%", "MB", "words"]:
            self.assertTrue(stats.valid_unit(u), u)
        for u in ["", "per second", "x" * 17]:
            self.assertFalse(stats.valid_unit(u), u)

    def test_benchmark_json_is_well_formed(self):
        self.assertEqual(stats.validate_benchmark(SPEC), [])

    def test_validate_catches_problems(self):
        bad = json.loads(json.dumps(SPEC))
        bad["end_to_end"][0]["bound"] = 0.3
        bad["per_layer"].append({"name": "has space", "unit": "s", "better": "lower"})
        bad["per_layer"].append(dict(bad["per_layer"][0]))
        problems = stats.validate_benchmark(bad)
        self.assertTrue(any("bound" in p for p in problems), problems)
        self.assertTrue(any("bad name" in p for p in problems), problems)
        self.assertTrue(any("more than once" in p for p in problems), problems)

    def test_driver_metric_sets_match_the_spec(self):
        e2e = run.aggregate_e2e([{"wall_s": 1.0, "peak_rss_mb": 2.0, "setup_s": [0.5],
                                  "resume_s": [0.25]}])
        self.assertEqual(sorted(e2e), sorted(m["name"] for m in SPEC["end_to_end"]))


class Aggregation(unittest.TestCase):
    def test_median(self):
        self.assertEqual(stats.median([3, 1, 2]), 2)
        self.assertEqual(stats.median([4, 1, 3, 2]), 2.5)
        with self.assertRaises(ValueError):
            stats.median([])

    def test_quartiles_match_statistics_exclusive(self):
        values = list(range(1, 11))
        self.assertEqual(stats.quartiles(values), (2.75, 5.5, 8.25))
        self.assertEqual(stats.quartiles(values), tuple(statistics.quantiles(values, n=4)))

    def test_spread(self):
        self.assertAlmostEqual(stats.spread(list(range(1, 11))), (8.25 - 2.75) / 5.5)
        self.assertEqual(stats.spread([2.0] * 10), 0.0)
        with self.assertRaises(ValueError):
            stats.spread([-1.0, 0.0, 1.0])

    def test_e2e_pools_every_sample(self):
        samples = [
            {"wall_s": 10.0, "peak_rss_mb": 100.0, "setup_s": [1.0, 5.0], "resume_s": [2.0]},
            {"wall_s": 12.0, "peak_rss_mb": 300.0, "setup_s": [2.0], "resume_s": [4.0, 9.0]},
            {"wall_s": 11.0, "peak_rss_mb": 200.0, "setup_s": [3.0], "resume_s": [3.0]},
        ]
        m = run.aggregate_e2e(samples)
        self.assertEqual(m["wall_s"]["value"], 11.0)
        self.assertEqual(m["setup_s"]["value"], 2.5)
        self.assertEqual(m["resume_s"]["value"], 3.5)
        self.assertEqual(m["peak_rss_mb"], {"value": 200.0, "unit": "MB"})


# wall_s of peta-weibull over seeds 101-110, recorded while proving the
# benchmark steady on a 2-vCPU host (README.md).
RECORDED = [12.943479, 12.400225, 13.125214, 12.105951, 12.151433,
            12.143422, 12.026365, 12.855727, 12.272221, 13.971877]


class Bounds(unittest.TestCase):
    METRIC = [{"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25}]

    def test_recorded_spread_against_bounds(self):
        (s, ok), = stats.spread_verdicts(self.METRIC, {"wall_s": RECORDED}, margin=1 / 3).values()
        self.assertAlmostEqual(s, 0.0690, places=3)
        self.assertTrue(ok)
        tight = [dict(self.METRIC[0], bound=0.15)]
        (_, ok), = stats.spread_verdicts(tight, {"wall_s": RECORDED}, margin=1 / 3).values()
        self.assertFalse(ok)

    def test_wide_spread_fails_but_setup_is_exempt(self):
        wide = [v * f for v, f in zip(RECORDED, [0.7, 1.3] * 5)]
        metrics = self.METRIC + [{"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}]
        v = stats.spread_verdicts(metrics, {"wall_s": wide, "setup_s": wide})
        self.assertFalse(v["wall_s"][1])
        self.assertTrue(v["setup_s"][1])

    def test_median_regression(self):
        slower = [v * 1.3 for v in RECORDED]
        faster = [v * 0.5 for v in RECORDED]
        self.assertFalse(stats.median_verdicts(self.METRIC, {"wall_s": RECORDED},
                                               {"wall_s": slower})["wall_s"][1])
        self.assertTrue(stats.median_verdicts(self.METRIC, {"wall_s": RECORDED},
                                              {"wall_s": faster})["wall_s"][1])
        higher = [{"name": "hits", "unit": "count", "better": "higher", "bound": 0.1}]
        w, ok = stats.median_verdicts(higher, {"hits": [100]}, {"hits": [85]})["hits"]
        self.assertAlmostEqual(w, 0.15)
        self.assertFalse(ok)


class Checks(unittest.TestCase):
    def setUp(self):
        self.log = run.log
        run.log = lambda msg: None

    def tearDown(self):
        run.log = self.log

    def test_each_table_counts_once_per_pass(self):
        c = run.Checks()
        tables = [{"name": "a", "digest": "1", "ok": True, "error": ""},
                  {"name": "b", "digest": "2", "ok": True, "error": ""},
                  {"name": "c", "digest": "", "ok": False, "error": "raised"}]
        c.tables("cold", tables, ("ref", {"a": "1", "b": "9", "c": ""}, None, None),
                 ("ref csv", None, {"x.csv": b"1"}, {"x.csv": b"1"}))
        self.assertEqual((c.attempted, c.failed), (3, 2))

    def test_csv_mismatch_fails_every_table(self):
        c = run.Checks()
        tables = [{"name": "a", "digest": "1", "ok": True, "error": ""},
                  {"name": "b", "digest": "2", "ok": True, "error": ""}]
        c.tables("resume", tables, ("cold", None, {"x.csv": b"1"}, {"x.csv": b"2"}))
        self.assertEqual((c.attempted, c.failed), (2, 2))

    def test_too_few_cores_is_an_error(self):
        affinity = os.sched_getaffinity
        os.sched_getaffinity = lambda pid: {0}
        try:
            with self.assertRaises(run.BenchError):
                run.require_cores("sweep-workers", run.WORKLOADS["sweep-workers"])
            run.require_cores("exa-periodic", run.WORKLOADS["exa-periodic"])
        finally:
            os.sched_getaffinity = affinity

    def test_steal_frac(self):
        self.assertAlmostEqual(run.steal_frac((10, 1000), (60, 2000)), 0.05)
        self.assertIsNone(run.steal_frac(None, (60, 2000)))
        self.assertIsNone(run.steal_frac((10, 1000), (10, 1000)))

    def test_no_sources_is_an_error(self):
        root = run.ROOT
        run.ROOT = os.path.join(HERE, "no-such-checkout")
        try:
            with self.assertRaises(run.BenchError):
                run.build()
        finally:
            run.ROOT = root


if __name__ == "__main__":
    unittest.main()
