"""Tests of the benchmark's own measurement rules.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

Needs no dscoh build: the rules under test live in measure.py, layers.py
and the metric tables of run.py.
"""

import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import layers  # noqa: E402
import measure  # noqa: E402
import run  # noqa: E402


class TailRule(unittest.TestCase):
    def test_leaves_exactly_ten_samples_beyond(self):
        values = [float(i) for i in range(88)]
        value, pct, beyond, n = measure.tail(values)
        self.assertEqual((value, beyond, n), (77.0, 10, 88))
        self.assertAlmostEqual(pct, 100 * 78 / 88)
        self.assertEqual(sum(1 for v in values if v > value), 10)

    def test_order_of_samples_does_not_matter(self):
        values = [5.0, 1.0, 9.0, 3.0] * 10
        self.assertEqual(measure.tail(values), measure.tail(sorted(values)))

    def test_twenty_samples_reach_the_median(self):
        value, pct, beyond, n = measure.tail(list(range(20)))
        self.assertEqual((value, pct, beyond, n), (9, 50.0, 10, 20))

    def test_too_few_samples_report_the_maximum(self):
        value, pct, beyond, n = measure.tail([3.0, 1.0, 2.0] * 4)
        self.assertEqual((value, pct, beyond, n), (3.0, 100.0, 0, 12))

    def test_no_samples_is_an_error(self):
        with self.assertRaises(ValueError):
            measure.tail([])


class SelfTime(unittest.TestCase):
    def test_children_overlapping_on_two_workers_count_once(self):
        spans = [measure.Span("workload", 0.0, 10.0),
                 measure.Span("job", 1.0, 5.0, parent=0, track="worker 0"),
                 measure.Span("job", 3.0, 8.0, parent=0, track="worker 1"),
                 measure.Span("job", 9.0, 12.0, parent=0, track="worker 0"),
                 measure.Span("setup", 1.0, 2.0, parent=1, track="worker 0")]
        # Children cover [1, 8] and [9, 10] of the workload: 8 s.
        self.assertAlmostEqual(measure.self_time(spans, 0), 2.0)
        # Grandchildren are not the workload's children.
        self.assertAlmostEqual(measure.self_time(spans, 1), 3.0)
        self.assertAlmostEqual(measure.self_time(spans, 4), 1.0)

    def test_chrome_trace_carries_parent_id_and_self_time(self):
        spans = [measure.Span("workload", 1.0, 2.0, ident="w"),
                 measure.Span("job", 1.25, 1.5, ident="NN/CCSM", parent=0,
                              track="worker 0", cat="exp")]
        doc = measure.chrome_trace(spans)
        events = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        self.assertEqual(len(events), 2)
        job = events[1]
        self.assertEqual((job["ts"], job["dur"]), (250000, 250000))
        self.assertEqual(job["args"]["parent"], 0)
        self.assertEqual(job["args"]["id"], "NN/CCSM")
        self.assertEqual(events[0]["args"]["self_us"], 750000)
        names = {e["args"]["name"] for e in doc["traceEvents"]
                 if e["name"] == "thread_name"}
        self.assertEqual(names, {"main", "worker 0"})
        json.dumps(doc)  # serializable as-is


class OpenLoopSchedule(unittest.TestCase):
    TENANTS = {"a": ["BP", "HT", "LV"], "b": ["NW", "MM"]}

    def test_same_seed_same_schedule(self):
        one = measure.make_schedule(7, 30, 15.0, self.TENANTS)
        self.assertEqual(one, measure.make_schedule(7, 30, 15.0, self.TENANTS))

    def test_seed_changes_order_and_timing_but_not_the_work(self):
        one = measure.make_schedule(7, 30, 15.0, self.TENANTS)
        two = measure.make_schedule(8, 30, 15.0, self.TENANTS)
        self.assertNotEqual(one, two)
        work = sorted((t, tuple(c)) for _, t, c in one)
        self.assertEqual(work, sorted((t, tuple(c)) for _, t, c in two))

    def test_due_times_increase_inside_the_span(self):
        sched = measure.make_schedule(3, 40, 10.0, self.TENANTS)
        dues = [d for d, _, _ in sched]
        self.assertEqual(dues, sorted(dues))
        self.assertTrue(0 < dues[0] and dues[-1] < 10.0)
        for i, d in enumerate(dues):  # each request stays in its own slot
            self.assertTrue(i * 0.25 < d < (i + 1) * 0.25)

    def test_stalled_sender_shows_as_lag_not_lower_latency(self):
        on_time = {"due": 1.0, "sent": 1.0, "fetched": 1.3, "state": "done"}
        # The sender stalled 0.5 s; the service answered 0.1 s after send.
        stalled = {"due": 1.0, "sent": 1.5, "fetched": 1.6, "state": "done"}
        lat, lag = measure.request_times(stalled)
        self.assertAlmostEqual(lat, 0.6)
        self.assertAlmostEqual(lag, 0.5)
        self.assertGreater(lat, measure.request_times(on_time)[0])

    def test_unfinished_request_is_beyond_any_limit(self):
        lost = {"due": 1.0, "sent": 1.0, "fetched": 0.0, "state": "failed"}
        self.assertEqual(measure.request_times(lost)[0], float("inf"))


class ChildAccounting(unittest.TestCase):
    def test_reads_rusage_and_proc_io_of_a_child(self):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "out.bin")
            code = ("import sys\n"
                    f"f = open({path!r}, 'wb')\n"
                    "for _ in range(8): f.write(b'x' * 262144)\n"
                    "f.close()\n"
                    "sum(i * i for i in range(300000))\n"
                    "print('[1/1] VA small CCSM (0.0s)', file=sys.stderr)\n"
                    "sys.exit(3)\n")
            child = measure.Child([sys.executable, "-c", code], watch=True)
            ex = child.wait()
        self.assertEqual(ex.code, 3)
        self.assertGreaterEqual(ex.io["wchar"], 8 * 262144)
        self.assertGreaterEqual(ex.io["syscw"], 8)
        self.assertGreater(ex.cpu_s, 0.0)
        self.assertGreater(ex.peak_rss_mb, 1.0)
        self.assertGreater(ex.wall_s, 0.0)
        self.assertEqual(len(child.lines), 1)
        t, line = child.lines[0]
        self.assertTrue(child.start < t <= ex.end)
        self.assertRegex(line, run.PROGRESS)


class LayerCounts(unittest.TestCase):
    def test_sums_single_and_multi_gpu_counter_names(self):
        job = {"metrics": {"ticks": 100}, "produceTicks": 60, "stats": {
            "queue.executed_events": 50,
            "gpu.l2.slice0.deferrals": 3, "gpu1.l2.slice2.deferrals": 4,
            "cpu.cache.deferrals": 1,
            "gpu.l2.slice0.demand_accesses": 10,
            "gpu1.l2.slice2.demand_accesses": 6,
            "gpu1.l2.slice2.demand_misses": 4,
            "home.transactions": 2, "home3.transactions": 5,
            "gpu.sm0.global_loads": 64, "gpu2.sm15.global_stores": 32,
            "gpu.sm0.coalesced_transactions": 8,
            "cpu.core.stores": 7, "cpu.core1.stores": 1,
            "dram.ch0.row_hits": 3, "dram.ch1.row_misses": 1,
            "net.ds.messages": 9, "net.request.messages": 1}}
        c = layers.layer_counts([job, job])
        self.assertEqual(c["sim.events"], 100)
        self.assertEqual(c["coherence.replay_retries"], 16)
        self.assertAlmostEqual(c["coherence.retries_per_access"], 0.5)
        self.assertAlmostEqual(c["gpu.l2_miss_ratio"], 0.25)
        self.assertEqual(c["coherence.home_transactions"], 14)
        self.assertAlmostEqual(c["gpu.lanes_per_txn"], 12.0)
        self.assertEqual(c["cpu.stores"], 16)
        self.assertAlmostEqual(c["mem.row_hit_ratio"], 0.75)
        self.assertEqual((c["net.messages"], c["net.ds_messages"]), (20, 18))
        self.assertEqual((c["core.sim_ticks"], c["core.produce_ticks"],
                          c["core.kernel_ticks"]), (200, 120, 80))


class Contract(unittest.TestCase):
    def test_benchmark_json_matches_what_run_py_reports(self):
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        with open(os.path.join(root, "BENCHMARK.json")) as f:
            spec = json.load(f)
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         [*run.BATCH, "svc_scaleout"])
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]],
                         run.E2E)
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]],
                         run.PER_LAYER)
        produced = set(layers.layer_counts([]))
        self.assertTrue(produced <= {n for n, _ in run.PER_LAYER})


if __name__ == "__main__":
    unittest.main()
