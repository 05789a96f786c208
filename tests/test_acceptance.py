"""Acceptance gate: every exit criterion at its stated tolerance.

Each test prints one ``[acceptance] <label>: PASS/FAIL`` line (visible with
``pytest -s`` or in the captured output of a failing test).
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from helpers import grid_around, truncation_cut_index, truncation_gap
from scmech import measure
from scmech.domain import (Bundle, POWER_Q_SPLICE, ZERO_BUNDLE, make_domain,
                           validate_single_crossing)
from scmech.mechanism import (AnchorLine, FiniteMechanism, countable_geometric,
                              epsilon_truncate, harmonic_sequence)
from scmech.multibuyer import allocate_profiles, from_distribution, simulate_revenue
from scmech.optimize import (OptimizeOptions, solve_finite,
                             stationarity_residuals)
from scmech.verify import (brute_force_optimal, check_shape,
                           check_strategy_proof, verify_mechanism)


@contextmanager
def criterion(label):
    try:
        yield
    except BaseException as exc:
        print(f"[acceptance] {label}: FAIL ({exc})")
        raise
    else:
        print(f"[acceptance] {label}: PASS")


U01 = measure.uniform(0.0, 1.0)
QL = make_domain("quasilinear", 0.0, 1.0)
MY = make_domain("myerson", 0.0, 1.0)


@pytest.fixture(scope="module")
def quasilinear_solutions():
    out = {}
    for l in (2, 3, 4, 5):
        t0 = time.monotonic()
        sol = solve_finite(QL, U01, OptimizeOptions(max_bundles=l, seed=11))
        out[l] = (sol, time.monotonic() - t0)
    return out


@pytest.fixture(scope="module")
def myerson_solutions():
    out = {}
    for l in (2, 4):
        sol = solve_finite(MY, U01, OptimizeOptions(max_bundles=l, seed=11),
                           mode="expected_payment")
        out[l] = sol
    return out


def test_criterion_1_deterministic_optimum(quasilinear_solutions):
    with criterion("1. deterministic optimum, quasilinear uniform[0,1]"):
        for l, (sol, elapsed) in quasilinear_solutions.items():
            assert elapsed <= 10.0, f"l={l} took {elapsed:.1f}s"
            assert sol.active_bundles == 2, \
                f"l={l}: active range has {sol.active_bundles} bundles"
            bottom, top = sol.mechanism.bundles
            assert bottom == ZERO_BUNDLE
            assert abs(top.q - 1.0) <= 1e-6, f"l={l}: top quantity {top.q}"
            assert abs(top.t - 0.5) <= 1e-3, f"l={l}: posted price {top.t}"
            assert abs(sol.revenue - 0.25) <= 1e-3, f"l={l}: revenue {sol.revenue}"


def test_criterion_2_myerson_optimum(myerson_solutions):
    with criterion("2. win-probability model optimum, uniform[0,1]"):
        for l, sol in myerson_solutions.items():
            assert sol.active_bundles == 2
            top = sol.mechanism.bundles[-1]
            reserve = sol.mechanism.breakpoints[-1]
            assert abs(top.q - 1.0) <= 1e-6
            assert abs(reserve - 0.5) <= 1e-3, f"l={l}: reserve {reserve}"
            assert abs(sol.revenue - 0.25) <= 1e-3, f"l={l}: revenue {sol.revenue}"


def test_criterion_3_brute_force_agreement(quasilinear_solutions,
                                           myerson_solutions):
    with criterion("3. brute-force oracle agreement"):
        t0 = time.monotonic()
        t_grid = np.round(np.arange(0.0, 1.0001, 0.05), 10)
        q_grid = (0.0, 0.25, 0.5, 0.75, 1.0)
        wide_ql = make_domain("quasilinear", 0.0, 5.0)
        _, bf_ql = brute_force_optimal(wide_ql, U01, t_grid, q_grid,
                                       max_bundles=3)
        sf_ql = quasilinear_solutions[3][0].revenue
        assert abs(bf_ql - sf_ql) <= 0.05, f"{bf_ql} vs {sf_ql}"
        assert sf_ql >= bf_ql - 0.05  # solver dominates up to grid slack
        wide_my = make_domain("myerson", 0.0, 5.0)
        _, bf_my = brute_force_optimal(wide_my, U01, t_grid, q_grid,
                                       max_bundles=3, mode="expected_payment")
        sf_my = myerson_solutions[4].revenue
        assert abs(bf_my - sf_my) <= 0.05, f"{bf_my} vs {sf_my}"
        elapsed = time.monotonic() - t0
        assert elapsed <= 60.0, f"brute force took {elapsed:.1f}s"


def test_criterion_4_constructed_mechanisms_are_strategy_proof(random_mechanisms):
    with criterion("4. construction soundness on 100 random ranges per family"):
        for name, mechs in random_mechanisms.items():
            assert len(mechs) == 100
            for mech in mechs:
                grid = grid_around(mech, 200)
                report = check_strategy_proof(mech.domain, mech.evaluate, grid)
                assert report.ok, f"{name}: {report.worst()}"


def test_criterion_5_necessity_of_shape(random_mechanisms):
    with criterion("5. monotonicity/continuity necessity and counterexamples"):
        for name, mechs in random_mechanisms.items():
            for mech in mechs:
                grid = grid_around(mech, 200)
                assert check_shape(mech.domain, mech, grid).ok, name
        # non-monotone rule with a continuous indirect preference
        dom = make_domain("quasilinear", 0.5, 3.0)
        teaser = FiniteMechanism(
            dom, (Bundle(1.0, 1.0), ZERO_BUNDLE, Bundle(2.0, 1.0)), (1.0, 2.0))
        kinds = {v.kind for v in
                 check_shape(dom, teaser, np.linspace(0.5, 3.0, 200)).violations}
        assert kinds == {"MONO"}, kinds
        # monotone rule jumping away from the indifference parameter
        lo, hi = Bundle(0.2, 0.3), Bundle(1.2, 0.8)
        dom2 = make_domain("quasilinear")
        jumpy = FiniteMechanism(dom2, (lo, hi), (1.5,))  # indifference at 2.0
        kinds = {v.kind for v in
                 check_shape(dom2, jumpy, np.linspace(0.5, 3.0, 200)).violations}
        assert kinds == {"CONT"}, kinds


def test_criterion_6_continuum_counterexample_flagged():
    with criterion("6. negative control: linear continuum rule"):
        dom = make_domain("quasilinear", 1.0, 2.0)

        def rule(r):
            return Bundle(r / 3 - 1 / 3, r - 1)

        report = check_strategy_proof(dom, rule, np.linspace(1.0, 2.0, 101))
        assert not report.ok
        by_pair = {(v.truthful_r, v.deviant_r): v.gain for v in report.violations}
        gain = by_pair.get((1.5, 2.0))
        assert gain is not None, "no witness at truthful 1.5 deviating to 2.0"
        assert gain >= 0.5, f"witness gain {gain}"
        assert gain == pytest.approx(7 / 12, abs=1e-9)


def test_criterion_7_epsilon_truncation():
    with criterion("7. epsilon-truncation of the countable-range mechanism"):
        dom = make_domain("sqrt_quasilinear", 0.2, 1.0)
        dist = measure.uniform(0.2, 1.0)
        cmech = countable_geometric(dom, AnchorLine(3.0, 1 / 12, 1 / 3),
                                    harmonic_sequence(2 / 3, 1.0, start=3))
        e_full = measure.expected_revenue(dom, cmech, dist)
        grid = np.linspace(0.2, 1.0, 200)
        for eps in (0.1, 0.05, 0.01):
            finite = epsilon_truncate(cmech, eps, dist)
            assert verify_mechanism(dom, finite, grid).ok, f"eps={eps}"
            gap = e_full - measure.expected_revenue(dom, finite, dist)
            assert gap <= eps, f"eps={eps}: gap {gap}"
            # Relation to the countable revenue.  The truncation keeps
            # z_3..z_w and the limit bundle, so w = len(bundles) + 1; it
            # charges t_w (less than the countable staircase) up to the
            # indifference parameter of z_w and the limit bundle, then the
            # limit payment (more) up to 2/3.  The exact gap is negative
            # for every w >= 3 (proof in the README), so only |gap| <= eps
            # holds, and the gap itself is pinned to its closed form.  The
            # tolerance 1e-7 is the tail tolerance of
            # CountableMechanism.revenue_segments, which bounds how far
            # E(countable) overestimates the true staircase sum.
            w = len(finite.bundles) + 1
            assert w == truncation_cut_index(eps), f"eps={eps}: cut at {w}"
            assert gap == pytest.approx(truncation_gap(w), abs=1e-7), (
                f"eps={eps}: gap {gap:.6e}, closed form "
                f"{truncation_gap(w):.6e} at w={w}")


def test_criterion_8_two_buyer_simulation():
    with criterion("8. two-buyer auction simulation vs direct integration"):
        mech = from_distribution(2, U01)
        assert abs(mech.reserve - 0.5) <= 1e-6
        samples, seed = 1_000_000, 2026
        est, se = simulate_revenue(mech, samples, seed=seed)
        assert abs(est - 5 / 12) <= 3 * se, f"estimate {est} +- {se}"
        # feasibility and lower-efficiency on the exact simulated stream
        from scmech.multibuyer import _CHUNK

        seeds = np.random.SeedSequence(seed).spawn(
            (samples + _CHUNK - 1) // _CHUNK)
        total = 0.0
        done = 0
        for chunk_seed in seeds:
            count = min(_CHUNK, samples - done)
            rng = np.random.default_rng(chunk_seed)
            profiles = np.asarray(U01.ppf(rng.random((count, 2))))
            t, q = allocate_profiles(mech, profiles)
            assert (q.sum(axis=1) <= 1.0 + 1e-12).all()
            sold = q > 0
            non_maximal = profiles < profiles.max(axis=1, keepdims=True)
            assert not np.any(sold & non_maximal)
            total += float(t.sum())
            done += count
        assert total / samples == pytest.approx(est, abs=1e-12)


def test_criterion_9_single_crossing_validator():
    with criterion("9. single-crossing validator on the named families"):
        anchors = [Bundle(t, q) for t in (0.25, 0.8, 1.4)
                   for q in (0.2, 0.5, 0.85)]
        for name in ("quasilinear", "income_effect"):
            report = validate_single_crossing(
                make_domain(name), anchors, np.linspace(0.4, 4.0, 12),
                q_grid=np.linspace(1e-4, 1.0, 301))
            assert report.ok, name
        raw = make_domain("power_q_raw", 0.05, 0.95)
        report = validate_single_crossing(
            raw, [Bundle(1.0, 0.125), Bundle(1.0, 0.5), Bundle(0.6, 0.3)],
            [1 / 3, 2 / 3], q_grid=np.linspace(1e-3, 1.0, 401))
        assert not report.ok
        near = [w for w in report.tangency_witnesses
                if abs(w.location.t - 1.0) <= 0.05
                and abs(w.location.q - 0.125) <= 0.05]
        assert near, "tangency near (1, 1/8) not reported"
        spliced = make_domain("power_q")
        anchors_hi = [Bundle(t, q) for t in (0.2, 0.6, 1.0)
                      for q in (POWER_Q_SPLICE + 0.01, 0.4, 0.7, 0.95)]
        report = validate_single_crossing(
            spliced, anchors_hi, np.linspace(0.25, 1 / 3, 7),
            q_grid=np.linspace(POWER_Q_SPLICE, 1.0, 301))
        assert report.ok


def test_criterion_10_income_effect_increments():
    with criterion("10. income effect: payment increments shrink"):
        dom = make_domain("income_effect")
        rng = np.random.default_rng(77)
        checked = 0
        while checked < 50:
            r = float(rng.uniform(0.5, 6.0))
            q_lo, q_hi = np.sort(rng.uniform(0.05, 1.0, 2))
            t1, t2 = np.sort(rng.uniform(0.0, 2.0, 2))
            if q_hi - q_lo < 1e-3 or t2 - t1 < 1e-3:
                continue
            inc1 = float(dom.curve_payment(
                r, dom.canonical_payment(r, Bundle(t1, q_lo)), q_hi)) - t1
            inc2 = float(dom.curve_payment(
                r, dom.canonical_payment(r, Bundle(t2, q_lo)), q_hi)) - t2
            assert inc2 < inc1, (r, q_lo, q_hi, t1, t2)
            checked += 1


def test_criterion_11_stationarity_residuals(quasilinear_solutions):
    with criterion("11. first-order residuals at the returned optima"):
        for l, (sol, _) in quasilinear_solutions.items():
            res = stationarity_residuals(U01, sol.mechanism)
            assert np.abs(res).max() <= 1e-4, f"l={l}: residuals {res}"
