#!/usr/bin/env python3
"""Self-tests of the routing benchmark. Run from the repository root:

    python3 perfbench/selftest.py
"""

import json
import os
import subprocess
import sys
import time
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

EXE = None


def setUpModule():
    global EXE
    EXE = run.build()


def last_json_line(args):
    out = subprocess.run([sys.executable, os.path.join(run.HERE, "run.py"), *args],
                         cwd=run.ROOT, capture_output=True, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


class Inputs(unittest.TestCase):
    def test_same_seed_same_bytes_other_seed_other_bytes(self):
        for workload in run.WORKLOADS:
            a, *_ = run.synthesize(EXE, workload, 7, 2)
            b, *_ = run.synthesize(EXE, workload, 7, 2)
            c, *_ = run.synthesize(EXE, workload, 8, 2)
            self.assertEqual(a, b, workload)
            self.assertNotEqual(a[0][0], c[0][0], workload)
            self.assertNotEqual(a[0][0], a[1][0], workload)


class Deadline(unittest.TestCase):
    def test_tiny_deadline_stops_the_chip_and_counts_one_failure(self):
        pool, *_ = run.synthesize(EXE, "smoke16", 1, 1)
        router = run.Router(EXE)
        start = time.monotonic()
        chips, _ = run.route_phase(router, pool, 30.0, 1e-4, traced=False, max_chips=1)
        router.close()
        self.assertLess(time.monotonic() - start, 5.0)
        self.assertEqual(len(chips), 1)
        self.assertEqual(chips[0].reasons, ["deadline"])
        self.assertFalse(chips[0].wrong)
        self.assertEqual(run.outcome_metrics(chips, 1.0)["outcome.fail_rate"], 1.0)

    def test_generous_deadline_routes_the_same_chip_legally(self):
        pool, *_ = run.synthesize(EXE, "smoke16", 1, 1)
        router = run.Router(EXE)
        chips, _ = run.route_phase(router, pool, 30.0, 30.0, traced=True, max_chips=2)
        router.close()
        self.assertEqual([c.reasons for c in chips], [[], []])
        self.assertEqual(chips[0].fields, chips[1].fields)

    def test_stopped_chip1_is_attributed_to_lm_routing(self):
        pool, *_ = run.synthesize(EXE, "lm-chip1", 1, 1)
        router = run.Router(EXE)
        chips, _ = run.route_phase(router, pool, 30.0, 1.5, traced=True, max_chips=1)
        router.close()
        self.assertEqual(chips[0].reasons, ["deadline"])
        self.assertEqual(chips[0].killed_in, "lm_routing")
        self.assertGreater(chips[0].candidates, 0)
        layers = run.layer_metrics(chips, [1.0])
        self.assertEqual(layers["lm_routing.deadline_kills"], 1)
        self.assertGreater(layers["lm_routing.self_ms"], 1000.0)

    def test_stopped_stage_times_add_up_to_the_stop(self):
        events = [(0.0, {"kind": "stage_entered", "stage": "clustering"}),
                  (0.1, {"kind": "stage_exited", "stage": "clustering", "elapsed_us": 100000}),
                  (0.1, {"kind": "stage_entered", "stage": "lm_routing"})]
        layers, stage = run.stopped_stage_ms(events, 2.1, 2.2)
        self.assertEqual(stage, "lm_routing")
        self.assertAlmostEqual(layers["lm_routing.self_ms"], 2000.0)
        self.assertAlmostEqual(sum(layers.values()), 2200.0)


class Accounting(unittest.TestCase):
    def test_layer_self_times_add_up_to_the_chip_wall(self):
        for workload in ("smoke16", "escape-dense96"):
            pool, *_ = run.synthesize(EXE, workload, 3, 1)
            worker = run.Worker(EXE)
            answer, _, _ = worker.route("T", pool[0][0], 30.0)
            worker.stop()
            self.assertEqual(answer["status"], "ok")
            self.assertEqual(answer["unmapped_spans"], [])
            self.assertLessEqual(run.add_up_error_ms(answer), run.ADD_UP_TOL_MS, workload)
            # The outer span and the worker's own clock agree too.
            self.assertLess(abs(answer["traced_wall_ms"] - answer["route_ms"]),
                            max(0.5, 0.01 * answer["route_ms"]), workload)

    def test_accounting_gaps_fail_the_chip(self):
        chip = run.Chip(1, 0)
        chip.fields = (1, 0, 5)
        chip.traced = {"valves_routed": 1, "matched_clusters": 0, "total_length": 5,
                       "layers": {"core.unattributed_ms": 1.0}, "traced_wall_ms": 2.0,
                       "unmapped_spans": ["elsewhere"]}
        run.check_traced(chip)
        self.assertEqual(chip.reasons, ["unmapped_spans", "layers_miss_wall"])
        self.assertTrue(chip.wrong)

    def test_printed_metric_names_are_declared(self):
        e2e, layers = run.declared_metrics()
        for trace, declared in (("0", e2e), ("1", layers)):
            result = last_json_line(["--workload", "escape-dense96", "--seed", "1",
                                     "--seconds", "0.01", "--trace", trace])
            self.assertEqual(set(result["metrics"]), set(declared))
            for name, m in result["metrics"].items():
                self.assertEqual(m["unit"], declared[name])
            self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
            self.assertTrue(result["correct"])


if __name__ == "__main__":
    unittest.main()
