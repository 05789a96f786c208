"""Self-tests of the benchmark's tracer, counters and references.

    python3 perfbench/selftest.py

Run from the root of a source checkout.  The file is deliberately not named
test_*.py, so the package's own pytest run does not collect it.
"""

import json
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import scmech  # noqa: E402
from scmech import mechanism, optimize, verify  # noqa: E402
from scmech.domain import Bundle, ZERO_BUNDLE, make_domain  # noqa: E402
from scmech.errors import DomainError  # noqa: E402

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

QL = make_domain("quasilinear")


def traced(fn):
    tracer = Tracer()
    with tracer:
        fn()
    return tracer.aggregate()


class TinyCounts(unittest.TestCase):
    """Counts worked out by hand."""

    def test_from_range_on_three_bundles_makes_two_closed_form_calls(self):
        agg = traced(lambda: mechanism.from_range(
            QL, [ZERO_BUNDLE, Bundle(1.0, 0.5), Bundle(3.0, 1.0)]))
        self.assertEqual(agg["spans"]["domain.special_preference.closed"][0], 2)
        self.assertNotIn("domain.special_preference.bisect", agg["spans"])
        self.assertEqual(agg["spans"]["mechanism.from_range"][:1], [1])

    def test_power_q_takes_the_bisection_path(self):
        dom = make_domain("power_q")
        bundles, _ = workloads.designed_range(dom, np.random.default_rng(3))
        agg = traced(lambda: mechanism.from_range(dom, [Bundle(*z) for z in bundles]))
        self.assertEqual(agg["spans"]["domain.special_preference.bisect"][0],
                         len(bundles) - 1)

    def test_grid_check_counts_n_squared_pairs(self):
        mech = mechanism.from_range(QL, [ZERO_BUNDLE, Bundle(0.5, 1.0)])
        agg = traced(lambda: verify.check_strategy_proof(
            QL, mech.evaluate, np.linspace(0.0, 1.0, 200)))
        self.assertEqual(agg["counters"]["verify.pairs_checked"], 40_000)
        self.assertEqual(agg["counters"]["verify.violations"], 0)
        self.assertEqual(agg["spans"]["mechanism.FiniteMechanism.evaluate"][0], 200)

    def test_affine_rule_violations(self):
        n = workloads.AFFINE_GRID
        agg = traced(lambda: workloads._affine_run({}))
        self.assertEqual(agg["counters"]["verify.violations"], n * (n - 1) // 2)
        self.assertEqual(agg["counters"]["verify.pairs_checked"], n * n)

    def test_infeasible_profile_is_counted_once(self):
        def call():
            with self.assertRaises(DomainError):
                optimize.payments_from_breakpoints(QL, [2.0, 1.0], [0.5, 1.0])
        calls, _, domain_errors, other_errors = traced(call)["spans"][
            "optimize.payments_from_breakpoints"]
        self.assertEqual((calls, domain_errors, other_errors), (1, 1, 0))

    def test_objective_evals_count_only_calls_inside_solve_finite(self):
        dom = make_domain("quasilinear", 0.0, 1.0)

        def work():
            optimize.payments_from_breakpoints(dom, [0.5], [1.0])
            optimize.solve_finite(dom, scmech.uniform(0.0, 1.0),
                                  optimize.OptimizeOptions(max_bundles=2, seed=11))
        agg = traced(work)
        calls = agg["spans"]["optimize.payments_from_breakpoints"][0]
        self.assertEqual(agg["counters"]["optimize.objective_evals"], calls - 1)


class Wrapping(unittest.TestCase):
    def test_every_binding_is_wrapped_and_restored(self):
        orig = mechanism.from_range
        tracer = Tracer().install()
        try:
            for mod in (scmech, mechanism, optimize, verify):
                self.assertIsNot(mod.from_range, orig, mod.__name__)
            self.assertIs(optimize.from_range, mechanism.from_range)
            self.assertIs(scmech.cli.solve_finite, optimize.solve_finite)
        finally:
            tracer.uninstall()
        for mod in (scmech, mechanism, optimize, verify):
            self.assertIs(mod.from_range, orig)


def small_jobs(seed):
    solve = [j for j in workloads.solve_jobs(seed) if j.name == "quasilinear-l2"]
    certify = workloads.certify_jobs(seed)
    ranges = [j for j in certify if j.name.startswith("range-")]
    keep = {"teaser-mono", "jumpy-cont", "brute-quasilinear"}
    return solve + ranges[::10] + [j for j in certify if j.name in keep]


def counts(agg):
    return ({k: v[0] for k, v in agg["spans"].items()},
            {k: v[2:] for k, v in agg["spans"].items()}, agg["counters"])


class TracedRuns(unittest.TestCase):
    def test_counts_repeat_and_outputs_match_untraced(self):
        jobs = small_jobs(5)
        plain = run.run_pass(jobs, {})
        runs = []
        for _ in range(2):
            tracer = Tracer()
            with tracer:
                recs = run.run_pass(jobs, {}, tracer)
            runs.append((tracer.aggregate(), recs))
        self.assertEqual(counts(runs[0][0]), counts(runs[1][0]))
        for _, recs in runs:
            for a, b in zip(plain, recs):
                self.assertIsNone(b["error"], b["job"])
                self.assertEqual(json.dumps(a["out"], sort_keys=True),
                                 json.dumps(b["out"], sort_keys=True), a["job"])


class References(unittest.TestCase):
    def test_posted_price_references(self):
        self.assertEqual(checks.posted_price_optimum(workloads.U01), (0.25, 0.5))
        rev, price = checks.posted_price_optimum(workloads.BETA23)
        self.assertAlmostEqual(rev, 16 / 81, places=9)
        self.assertAlmostEqual(price, 1 / 3, places=4)
        self.assertEqual(checks.step_revenue([[0, 0], [0.5, 1]], [0.5], workloads.U01),
                         0.25)

    def test_risk_averse_grid_matches_its_one_dimensional_reduction(self):
        # theta1 = 2 theta2 / 3 maximizes (theta2 - theta1) theta1**2, giving
        # 0.9 R = theta2 (1 - theta2) + theta2**3 / (27 (1 - theta2)), theta2 <= 3/4
        th = np.linspace(0.1, 0.75, 200_001)
        one_d = np.max(th * (1 - th) + th**3 / (27 * (1 - th))) / 0.9
        self.assertAlmostEqual(checks.risk_averse_three_bundle_optimum(), one_d, places=5)

    def test_utility_check_flags_a_manipulable_rule(self):
        dom = make_domain("quasilinear", 0.5, 3.0)
        grid = np.linspace(0.5, 3.0, 200)
        bad = checks.utility_ic_problems(dom, [[1, 1], [0, 0], [2, 1]], [1.0, 2.0], grid)
        self.assertTrue(bad)
        self.assertEqual(checks.utility_ic_problems(dom, [[0, 0], [1, 1]], [1.0], grid), [])


class Harness(unittest.TestCase):
    def test_tail_percentile(self):
        self.assertIsNone(run.tail(range(19)))
        self.assertEqual(run.tail(range(20)), (50.0, 9, 10))
        self.assertEqual(run.tail(range(200))[::2], (95.0, 10))
        self.assertEqual(run.tail(range(1000))[::2], (99.0, 10))

    def test_importtime_parse(self):
        text = "\n".join([
            "import time: self [us] | cumulative | imported package",
            "import time:       100 |        100 |       scipy._lib",
            "import time:       200 |        300 |     scipy",
            "import time:        50 |         50 |     numpy",
            "import time:        10 |        360 |   scmech.measure",
            "import time:         5 |        365 | scmech",
        ])
        total, scipy = run.import_times(text)
        self.assertAlmostEqual(total, 365e-6, places=12)
        self.assertAlmostEqual(scipy, 300e-6, places=12)

    def test_benchmark_json_lists_the_harness_metrics(self):
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]},
                         run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]},
                         run.PER_LAYER)
        setup = [m["bound"] for m in spec["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(setup, [max(m["bound"] for m in spec["end_to_end"])])


if __name__ == "__main__":
    unittest.main()
