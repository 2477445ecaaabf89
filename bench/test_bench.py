"""Tests of the benchmark itself.

    python3 -m unittest discover -s bench

They check the metric names, that every workload reports every
end-to-end metric and a traced run every per-layer metric, and that
wrong answers, exit codes and certificates injected into a run are
counted as failures.
"""

from __future__ import annotations

import math
import os
import re
import subprocess
import sys
import unittest
from dataclasses import replace

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))

import run  # noqa: E402
import spans  # noqa: E402
import workloads as wls  # noqa: E402

import sascone as sc  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
SPEC = run.load_spec()


def e2e_names() -> set[str]:
    return {m["name"] for m in SPEC["end_to_end"]}


class MetricNames(unittest.TestCase):
    def test_names_are_well_formed_and_unique(self):
        names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
        names += [w["name"] for w in SPEC["workloads"]]
        for name in names:
            self.assertRegex(name, NAME)
            self.assertLessEqual(len(name), 64)
        self.assertEqual(len(names), len(set(names)))

    def test_span_metrics_are_declared(self):
        per_layer = {m["name"] for m in SPEC["per_layer"]}
        for metric, _ in run.SPAN_METRICS.values():
            self.assertIn(metric, per_layer)

    def test_workloads_match_spec(self):
        self.assertEqual({w["name"] for w in SPEC["workloads"]}, set(wls.WORKLOADS))


class Reports(unittest.TestCase):
    def test_every_workload_reports_every_end_to_end_metric(self):
        for name in wls.WORKLOADS:
            with self.subTest(workload=name):
                result, details = run.run(name, seed=3, seconds=0.3, trace=False)
                self.assertTrue(result["correct"], details["failure_reasons"])
                self.assertEqual(set(result["metrics"]), e2e_names())
                for metric in result["metrics"].values():
                    self.assertTrue(math.isfinite(metric["value"]) and metric["value"] > 0)

    def test_traced_run_reports_every_per_layer_metric(self):
        result, _ = run.run("classify-corpus", seed=3, seconds=0.5, trace=True)
        self.assertTrue(result["correct"])
        self.assertEqual(set(result["metrics"]), {m["name"] for m in SPEC["per_layer"]})
        self.assertGreater(result["metrics"]["trace.coverage"]["value"], 0.5)


class Rounds(unittest.TestCase):
    def test_rounds_keep_the_inputs_and_check_them_once(self):
        wl = wls.ClassifyCorpus(sc, seed=5)
        units = run.draw_units(wl, wl.stream(), 0.25)
        tally = run.measure(wl, spans.api(), units, 0.3)
        self.assertGreaterEqual(tally.rounds, 2)
        self.assertEqual(tally.attempted, len(units) * wl.unit)
        self.assertEqual(len(tally.units), len(units))
        self.assertEqual(tally.completed, tally.attempted)


class InjectedFailures(unittest.TestCase):
    def test_wrong_verdict_is_counted(self):
        wl = wls.ClassifyCorpus(sc, seed=5)
        L = spans.api()
        honest = L.classify_ray

        def flipped(join, ray):
            positive = honest(join, ray) is sc.TypeVerdict.POSITIVE
            return sc.TypeVerdict.INDEFINITE if positive else sc.TypeVerdict.POSITIVE

        L.classify_ray = flipped
        tally = run.measure(wl, L, run.draw_units(wl, wl.stream(), 0.5))
        self.assertEqual(tally.attempted, 4 * wl.unit)
        self.assertEqual(tally.failed / tally.attempted, 1.0)  # failed_share
        self.assertEqual(tally.wrong, tally.attempted)
        self.assertEqual(run.end_to_end(tally, [1.0])["ok_share"], 0.0)

    def test_wrong_exit_code_is_counted(self):
        wl = wls.Cli(sc, seed=5)
        call = wl.cycle()[0]
        call.code = 3
        tally = run.measure(wl, spans.api(local=run.LOCAL_CALLS), [[call]])
        self.assertEqual((tally.attempted, tally.failed, tally.wrong), (1, 1, 1))
        self.assertIn("range exited 0, expected 3", tally.reasons)

    def test_wrong_output_is_counted(self):
        wl = wls.Cli(sc, seed=5)
        tally = wls.Tally()
        for call in wl.cycle():
            proc = subprocess.CompletedProcess(call.argv, call.code, stdout="{}", stderr="{}")
            self.assertTrue(wl.check(call, proc, tally)[0])

    def test_failed_certificate_is_a_failure_but_not_wrong(self):
        wl = wls.RayToMetric(sc, seed=5)
        L = spans.api()
        honest = L.build_profile

        def uncertified(params, grid_size):
            profile = honest(params, grid_size=grid_size)
            return replace(profile, report=replace(profile.report, g_monotone=False))

        L.build_profile = uncertified
        x = ((4, 1, 1, 1), sc.BaseManifold.projective_space(1), 3, 2)
        tally = run.measure(wl, L, [[x]])
        self.assertEqual((tally.failed, tally.wrong), (1, 0))
        self.assertEqual(tally.counts["profile.cert_failures"], 1)


if __name__ == "__main__":
    unittest.main()
