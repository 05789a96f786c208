import itertools
import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from helpers import FACTORY_FAMILIES, sup_b
from scmech import measure, optimize
from scmech.domain import Bundle, ZERO_BUNDLE, make_domain
from scmech.errors import DomainError, ScmechError
from scmech.mechanism import FiniteMechanism, from_range
from scmech.optimize import (OptimizeOptions, payments_from_breakpoints,
                             solve_finite, stationarity_residuals)
from scmech.verify import brute_force_optimal, certify_step, verify_mechanism

QL = make_domain("quasilinear", 0.0, 1.0)
MY = make_domain("myerson", 0.0, 1.0)
U01 = measure.uniform(0.0, 1.0)
# bimodal and not MHR; theta (1 - F) peaks at the kink 0.8
KINKED = measure.from_table([[0, 0], [0.25, 0.05], [0.35, 0.6], [0.8, 0.65],
                             [1, 1]])
# two steep pieces, each ending at a knot where the density drops
T3 = measure.from_table([[0, 0], [0.1, 0.3], [0.12, 0.31], [0.6, 0.35],
                         [0.61, 0.9], [1, 1]])
# all the mass in [0, 0.0058]: a grid even on [0, 1] sells nothing
SLIVER = measure.from_table([[0, 0], [0.005825242718446602, 1],
                             [0.5029126213592233, 1], [1, 1]])


def test_payments_quasilinear_recursion():
    pays = payments_from_breakpoints(make_domain("quasilinear"),
                                     [2.0, 4.0], [0.5, 1.0])
    assert pays == pytest.approx([1.0, 3.0])


def test_payments_myerson_binding_at_origin():
    pays = payments_from_breakpoints(make_domain("myerson"), [0.5], [1.0])
    assert pays == pytest.approx([0.5])


def test_payments_risk_averse_full_quantity_pins_bound():
    pays = payments_from_breakpoints(make_domain("risk_averse"), [4.0], [1.0])
    assert pays == pytest.approx([4.0])


def test_payments_reject_nonmonotone_inputs():
    dom = make_domain("quasilinear")
    with pytest.raises(DomainError):
        payments_from_breakpoints(dom, [2.0, 1.0], [0.5, 1.0])
    with pytest.raises(DomainError):
        payments_from_breakpoints(dom, [1.0, 2.0], [0.9, 0.4])
    with pytest.raises(DomainError):
        payments_from_breakpoints(dom, [1.0], [0.5, 1.0])


def test_payments_repeated_quantity_repeats_bundle():
    pays = payments_from_breakpoints(make_domain("quasilinear"),
                                     [1.0, 2.0], [0.5, 0.5])
    assert pays[0] == pays[1]


def test_solve_collapses_to_posted_price():
    for l in (2, 3):
        sol = solve_finite(QL, U01, OptimizeOptions(max_bundles=l, seed=3))
        assert sol.revenue == pytest.approx(0.25, abs=1e-6)
        assert sol.active_bundles == 2
        top = sol.mechanism.bundles[-1]
        assert top.t == pytest.approx(0.5, abs=1e-4)
        assert top.q == pytest.approx(1.0, abs=1e-9)


def test_solve_myerson_expected_payment():
    sol = solve_finite(MY, U01, OptimizeOptions(max_bundles=3, seed=3),
                       mode="expected_payment")
    assert sol.revenue == pytest.approx(0.25, abs=1e-6)
    assert sol.active_bundles == 2


def test_solve_narrow_support_sells_always():
    dist = measure.uniform(1.0, 1.05)
    dom = make_domain("quasilinear", 0.0, 1.05)
    sol = solve_finite(dom, dist, OptimizeOptions(max_bundles=3, seed=0))
    top = sol.mechanism.bundles[-1]
    assert top.q == pytest.approx(1.0, abs=1e-9)
    assert top.t == pytest.approx(1.0, abs=1e-6)
    assert sol.revenue == pytest.approx(1.0, abs=1e-6)


def test_revenue_monotone_in_max_bundles():
    dist = measure.beta(2.0, 2.0)
    dom = make_domain("quasilinear", 0.0, 1.0)
    revs = [solve_finite(dom, dist, OptimizeOptions(max_bundles=l, seed=5)).revenue
            for l in (2, 3, 4)]
    for a, b in zip(revs, revs[1:]):
        assert b >= a - 1e-6


def test_solution_passes_full_verification():
    sol = solve_finite(QL, U01, OptimizeOptions(max_bundles=4, seed=9))
    grid = np.linspace(0.0, 1.0, 200)
    assert verify_mechanism(QL, sol.mechanism, grid).ok


def test_solve_rejects_a_mechanism_that_fails_certification(monkeypatch):
    # posted price 0.5 switching at 0.3: not indifferent there, and the
    # types in [0.3, 0.5) would rather walk away
    def bad(domain, thetas, qs):
        return FiniteMechanism(domain, (ZERO_BUNDLE, Bundle(0.5, 1.0)), (0.3,))

    monkeypatch.setattr(optimize, "_mechanism", bad)
    with pytest.raises(ScmechError, match="failing verification"):
        solve_finite(QL, U01, OptimizeOptions(max_bundles=2))


def test_mechanism_drops_a_bundle_no_type_holds():
    # the first breakpoint ties the second, so no type holds the first
    # bundle; the bundles on either side of it are indifferent at 0.26 too.
    # A search of power_q over U[0.26, 0.33] from the chain DP's best range
    # alone ends at this profile
    dom = make_domain("power_q")
    mech = optimize._mechanism(dom, [0.26, 0.26], [0.9285714285714285, 1.0])
    assert len(mech.bundles) == 2
    assert mech.breakpoints == pytest.approx([0.26], abs=1e-12)
    assert mech.bundles[1].q == 1.0


def test_solver_is_seed_deterministic():
    a = solve_finite(QL, U01, OptimizeOptions(max_bundles=3, seed=12))
    b = solve_finite(QL, U01, OptimizeOptions(max_bundles=3, seed=12))
    assert a.mechanism.to_dict() == b.mechanism.to_dict()
    assert a.revenue == b.revenue


@pytest.fixture
def objective_calls(monkeypatch):
    # both objectives are reached through their module globals, the profile
    # one through payments_from_breakpoints, so this counts every revenue
    # evaluation of a solve, each as (function name, arguments)
    calls = []
    for name in ("payments_from_breakpoints", "_square_weight_profile"):
        def counted(*args, _name=name, _inner=getattr(optimize, name),
                    **kwargs):
            calls.append((_name, args))
            return _inner(*args, **kwargs)

        monkeypatch.setattr(optimize, name, counted)
    return calls


def test_solve_evaluation_budget(objective_calls):
    solve_finite(QL, U01, OptimizeOptions(max_bundles=4, seed=11))
    assert len(objective_calls) <= 8000


def test_risk_averse_evaluation_budget(objective_calls):
    # risk_averse in expected payments searches its breakpoints alone, and
    # on a CDF without inner knots the search is one projected BFGS ascent
    # from the chain DP's best pair: 9 evaluations, and 1 for the quantities
    # (the sweeps and the polish took 395; the ascents from every chain and
    # the posted price 10).  The count is plain float arithmetic, so it
    # does not depend on the scipy version.  No quantity is searched:
    # payments are taken once, for the mechanism
    dom = make_domain("risk_averse", 0.0, 1.0)
    sol = solve_finite(dom, measure.uniform(0.1, 1.0),
                       OptimizeOptions(max_bundles=3, seed=11),
                       mode="expected_payment")
    assert sol.diagnostics["method"] == "exact_quantities"
    assert sol.diagnostics["ascent_evals"] == 9
    assert [name for name, _ in objective_calls] == [
        *["_square_weight_profile"] * 10, "payments_from_breakpoints"]


@pytest.mark.parametrize("name", ["quasilinear", "income_effect"])
def test_unknown_revenue_mode_is_domain_error(name, objective_calls):
    with pytest.raises(DomainError, match="revenue mode"):
        solve_finite(make_domain(name, 0.0, 1.0), U01, mode="bid")
    assert objective_calls == []


def test_solver_rejects_mismatched_support():
    with pytest.raises(DomainError):
        solve_finite(QL, measure.uniform(0.0, 2.0), OptimizeOptions())


def test_options_validation():
    with pytest.raises(DomainError):
        OptimizeOptions(max_bundles=1)


@pytest.mark.parametrize("max_bundles", [3.0, 2.5, "3"])
def test_max_bundles_must_be_an_integer(max_bundles):
    with pytest.raises(DomainError, match="integer"):
        OptimizeOptions(max_bundles=max_bundles)


def test_max_bundles_takes_a_numpy_integer():
    dom = make_domain("risk_averse", 0.1, 1.0)
    dist = measure.uniform(0.1, 1.0)
    solve = [solve_finite(dom, dist, OptimizeOptions(max_bundles=l),
                          mode="expected_payment")
             for l in (np.int64(3), 3)]
    assert solve[0].mechanism == solve[1].mechanism


def test_closed_form_quasilinear():
    sol = solve_finite(QL, U01)
    assert sol.diagnostics["method"] == "posted_price"
    assert sol.revenue == pytest.approx(0.25, abs=1e-9)
    assert sol.mechanism.bundles[1].t == pytest.approx(0.5, abs=1e-9)
    from scmech.verify import check_individual_rationality

    report = check_individual_rationality(QL, sol.mechanism.evaluate,
                                          np.linspace(0.0, 1.0, 200))
    assert report.ok


def test_closed_form_myerson_matches():
    sol = solve_finite(MY, U01, mode="expected_payment")
    assert sol.revenue == pytest.approx(0.25, abs=1e-9)
    assert sol.diagnostics["price"] == pytest.approx(0.5, abs=1e-9)


def test_closed_form_sell_always_when_virtual_positive():
    dom = make_domain("quasilinear", 0.0, 2.0)
    sol = solve_finite(dom, measure.uniform(1.0, 2.0))
    assert sol.diagnostics["price"] == pytest.approx(1.0)
    assert sol.revenue == pytest.approx(1.0)


def test_closed_form_rejects_other_families():
    # the posted-price path is taken only in a family's posted-price modes;
    # income_effect has none: it takes the exact path in payments, the
    # sweep otherwise.  quasilinear has both, and myerson only one
    dom = make_domain("income_effect", 0, 1)
    assert dom.family.posted_price_modes == ()
    sol = solve_finite(dom, U01)
    assert sol.diagnostics["method"] == "exact_quantities"
    sol = solve_finite(dom, U01, mode="expected_payment")
    assert sol.diagnostics["method"] == "sweep"
    sol = solve_finite(QL, U01, mode="expected_payment")
    assert sol.diagnostics["method"] == "posted_price"
    sol = solve_finite(MY, U01)
    assert sol.diagnostics["method"] == "sweep"


def test_stationarity_residuals_vanish_at_optimum():
    sol = solve_finite(QL, U01)
    res = stationarity_residuals(U01, sol.mechanism)
    assert np.abs(res).max() <= 1e-9
    sol2 = solve_finite(QL, U01, OptimizeOptions(max_bundles=4, seed=2))
    assert np.abs(stationarity_residuals(U01, sol2.mechanism)).max() <= 1e-4


def test_stationarity_residuals_nonzero_off_optimum():
    from scmech.mechanism import from_range

    mech = from_range(QL, [ZERO_BUNDLE, Bundle(0.3, 1.0)])  # price too low
    res = stationarity_residuals(U01, mech)
    assert np.abs(res).max() > 0.05


def test_screening_menu_beats_posted_price_with_income_effects():
    # best posted price p sells to r >= p**2, so max_p p*(1-p**2)/0.9 on
    # uniform[0.1, 1] is 0.42767 at p = 1/sqrt(3); the three-bundle menu
    # {(0,0), (0.2, 0.04), (0.6, 1)} has breakpoints 0.2, 0.4 and revenue
    # 0.2*(2/9) + 0.6*(6/9) = 4/9, strictly better
    dom = make_domain("income_effect", 0.0, 1.0)
    sol = solve_finite(dom, measure.uniform(0.1, 1.0),
                       OptimizeOptions(max_bundles=3, seed=0))
    assert sol.revenue >= 0.43
    assert sol.revenue == pytest.approx(4 / 9, abs=1e-6)
    assert sol.active_bundles == 3


def test_risk_averse_pins_the_three_bundle_optimum():
    # on U[0.1, 1], dR/dtheta_1 = 0 gives theta_1 = 2 theta_2 / 3, and
    # dR/dtheta_2 = 0 the cubic 27 s**2 (1 - 2 theta_2) + 3 theta_2**2 s +
    # theta_2**3 = 0 with s = 1 - theta_2, whose root is
    # (3 sqrt 2 - 3) / (3 sqrt 2 - 2); q_1 = theta_2 / (3 s) = sqrt 2 - 1
    mpmath.mp.dps = 30
    root2 = mpmath.sqrt(2)
    theta2 = (3 * root2 - 3) / (3 * root2 - 2)
    theta1, s = 2 * theta2 / 3, 1 - theta2
    assert abs(27 * s**2 * (1 - 2 * theta2) + 3 * theta2**2 * s
               + theta2**3) < 1e-28
    q1 = theta2 / (3 * s)
    revenue = ((theta2 - theta1) * theta1 * q1
               + s * (theta2 - (theta2 - theta1) * q1**2)) / mpmath.mpf("0.9")
    assert abs(q1 - (root2 - 1)) < 1e-28
    for value, pinned in ((theta2, 0.5540970937771939),
                          (theta1, 0.3693980625181293),
                          (revenue, 0.2902265277374905)):
        assert abs(value - pinned) < 2e-16
    sol = solve_finite(make_domain("risk_averse", 0.0, 1.0),
                       measure.uniform(0.1, 1.0),
                       OptimizeOptions(max_bundles=3),
                       mode="expected_payment")
    assert abs(sol.revenue - float(revenue)) <= 1e-15 * float(revenue)
    assert np.allclose(sol.mechanism.breakpoints,
                       [float(theta1), float(theta2)], rtol=0, atol=1e-8)
    assert abs(sol.mechanism.bundles[1].q - float(q1)) <= 1e-8
    assert sol.mechanism.bundles[2].q == 1.0


def test_risk_averse_on_the_equal_revenue_table():
    # the revenue is smooth in each breakpoint between the table's knots,
    # with a local maximum between two of them: from the chain DP's four
    # breakpoints the ascent cell by cell stops at 1.0325912 at l = 5, and
    # the insertion from the best three reaches 1.0326038.  The floors are
    # the revenues of the sweeps over breakpoints alone with knot probes
    # that the ascent replaced; the sweep over breakpoints and quantities
    # earned 1.0227156, 1.0296015 and 1.0326038
    thetas = np.geomspace(0.01, 100.0, 60)
    er = measure.from_table([*([t, 1.0 - 0.1 / np.sqrt(t)] for t in thetas),
                             [100.1, 1.0]])
    dom = make_domain("risk_averse", 0.0, 100.1)
    for l, before in ((3, 1.0227806146679619), (4, 1.029605351249602),
                      (5, 1.03260377027072)):
        sol = solve_finite(dom, er, OptimizeOptions(max_bundles=l),
                           mode="expected_payment")
        assert sol.revenue >= before - 1e-12
        assert sol.active_bundles == l
        assert "ascent_evals" in sol.diagnostics
        assert "polish_evals" not in sol.diagnostics


def test_randomization_helps_the_risk_averse_model():
    # deterministic benchmark: expected payment p*(1 - (p-0.1)/0.9)
    # maximized at p = 0.5 gives 0.2778
    dom = make_domain("risk_averse", 0.0, 1.0)
    sol = solve_finite(dom, measure.uniform(0.1, 1.0),
                       OptimizeOptions(max_bundles=3, seed=0),
                       mode="expected_payment")
    assert sol.revenue > 0.25 / 0.9 + 0.005
    assert sol.active_bundles == 3


def test_exact_quantity_modes():
    # the modes whose quantities are exact at fixed breakpoints, where one
    # breakpoint search runs; elsewhere the profile is swept
    modes = {name: make_domain(name).family.exact_quantity_modes
             for name in FACTORY_FAMILIES}
    assert modes == {"quasilinear": (), "sqrt_quasilinear": (),
                     "income_effect": ("payment",),
                     "payment_param": ("payment",),
                     "two_param": ("payment",), "myerson": (),
                     "risk_averse": ("expected_payment",)}
    dom = make_domain("risk_averse", 0.0, 1.0)
    assert solve_finite(dom, U01, mode="payment").diagnostics[
        "method"] == "sweep"
    assert solve_finite(dom, U01, mode="expected_payment").diagnostics[
        "method"] == "exact_quantities"


# segments without mass (a flat middle, and everything above 0.0058 in
# SLIVER), masses that round to 0 near the top (beta), kinks (KINKED)
SQUARE_WEIGHT_DISTS = {"uniform": U01, "beta": measure.beta(2.0, 3.0),
                       "kinked": KINKED, "sliver": SLIVER,
                       "flat": measure.from_table([[0, 0], [0.3, 0.4],
                                                   [0.6, 0.4], [1, 1]])}


def _square_weight_revenue(thetas, c, qs):
    """sum_k c_k (theta_k q_k - S_k / q_k), term by term."""
    total = s = 0.0
    for k, (theta, q) in enumerate(zip(thetas, qs)):
        if q > 0.0:
            total += c[k] * (theta * q - s / q)
        if k + 1 < len(thetas):
            s += (thetas[k + 1] - theta) * q * q
    return total


@settings(max_examples=100, deadline=None)
@given(dist=st.sampled_from(sorted(SQUARE_WEIGHT_DISTS)),
       thetas=st.lists(st.sampled_from([0.0, 0.25, 0.3, 0.35, 0.8, 1.0])
                       | st.floats(0.0, 1.0), min_size=1, max_size=6))
# a tie that the KKT check splits once, earning 0.2740051455296661 where
# SLSQP's best start earns 0.27393752614304323
@example(dist="kinked", thetas=[0.3116524789648428, 0.4042615130173461,
                                0.5692508035289228, 0.8173544910156141,
                                0.9077856431032348])
def test_square_weight_quantities_are_optimal(dist, thetas):
    # the inner solve of risk_averse in expected payments beats SLSQP from
    # three starts at the same breakpoints, tied ones and ones without mass
    # included; its quantities are a nondecreasing profile that sells the
    # whole good at the top, and its revenue is that of the payments bound
    # step by step, each at most its breakpoint
    from scipy.optimize import minimize

    dist, thetas = SQUARE_WEIGHT_DISTS[dist], sorted(thetas)
    dom, m = make_domain("risk_averse", 0.0, 1.0), len(thetas)
    revenue, qs, _ = optimize._square_weight_profile(dist, thetas)
    assert len(qs) == m and qs[-1] == 1.0
    assert all(0.0 <= a <= b for a, b in zip(qs, qs[1:]))
    c = np.diff(dist.cdf([*thetas, 1.0])).tolist()
    assert abs(_square_weight_revenue(thetas, c, qs) - revenue) <= 1e-14
    assert abs(optimize._profile_revenue(dom, dist, "expected_payment",
                                         thetas, qs) - revenue) <= 1e-12
    pays = payments_from_breakpoints(dom, thetas, qs)
    assert all(t <= theta + 4 * math.ulp(theta)
               for t, theta in zip(pays, thetas))

    def feasible(x):
        return [*sorted(min(max(q, 0.0), 1.0) for q in x), 1.0]

    for start in (0.01, 0.5, 0.99):
        if m == 1:
            break
        res = minimize(
            lambda x: -_square_weight_revenue(thetas, c, feasible(x)),
            np.linspace(start, 1.0, m)[:-1], method="SLSQP",
            bounds=[(1e-9, 1.0)] * (m - 1),
            constraints=[{"type": "ineq",
                          "fun": lambda x, j=j: x[j + 1] - x[j]}
                         for j in range(m - 2)],
            options={"ftol": 1e-15, "maxiter": 500})
        slsqp = _square_weight_revenue(thetas, c, feasible(res.x))
        assert revenue >= slsqp - 1e-12


def test_square_weight_profile_beside_a_block_near_zero():
    # a lowest breakpoint near 0 sells a quantity near 0 and leaves the
    # block above it where a breakpoint at 0 puts it
    dist = SQUARE_WEIGHT_DISTS["beta"]
    revenue0, qs0, _ = optimize._square_weight_profile(dist, [0.0, 0.3, 0.5])
    for e in range(6, 19):
        revenue, qs, _ = optimize._square_weight_profile(
            dist, [10.0**-e, 0.3, 0.5])
        assert revenue0 - 1e-15 <= revenue <= revenue0 + 10.0**-e
        assert 0.0 <= qs[0] <= 10.0**-e and qs[2] == 1.0
        assert qs[1] == pytest.approx(qs0[1], abs=1e-9)


# CDFs without a knot inside the support, where risk_averse's breakpoints
# are searched by gradient
SMOOTH_DISTS = {"U[0.1,1]": measure.uniform(0.1, 1.0), "U[0,1]": U01,
                "beta(2,3)": measure.beta(2.0, 3.0),
                "texp(3,0,1)": measure.truncated_exponential(3.0, 0.0, 1.0)}


@settings(max_examples=200, deadline=None)
@given(dist=st.sampled_from(sorted(SMOOTH_DISTS)),
       levels=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=7))
# q_1 is 1 here, and the difference at h = 1e-6 straddles the point where
# the lower block merges with the top one: it missed the gradient by 2.4e-7
@example(dist="texp(3,0,1)", levels=[0.6751021919242749, 0.17627054635047837])
def test_square_weight_gradient_matches_central_differences(dist, levels):
    # breakpoints at least 0.01 apart and from the ends of the support.
    # The difference's error is O(h**2) times R's third derivative, which
    # grows as the top segment's mass falls, and only O(h) where the
    # active set switches, where R is C1 but not C2: 6000 examples stayed
    # within 2.5e-9, at (0.01, 0.99) on U[0, 1], and within 2.4e-7 with
    # breakpoints 1e-3 from the top.  So where the quantities' active set
    # (which of them tie the one below, 0 or 1) differs between the two
    # ends of the difference, h shrinks until it does not
    dist, m, gap = SMOOTH_DISTS[dist], len(levels), 1e-2
    width = dist.hi - dist.lo - (m + 1) * gap
    thetas = [dist.lo + gap * (k + 1) + width * v
              for k, v in enumerate(sorted(levels))]
    _, _, grad = optimize._square_weight_profile(dist, thetas)
    assert len(grad) == m

    def at(k, step):
        x = list(thetas)
        x[k] += step
        revenue, qs, _ = optimize._square_weight_profile(dist, x)
        return x[k], revenue, [p == q for p, q in zip([0.0, *qs], qs)]

    for k in range(m):
        h = 1e-6
        while True:
            (a, up, tied_up), (b, down, tied_down) = at(k, h), at(k, -h)
            if tied_up == tied_down:
                break
            h /= 4.0
        assert abs((up - down) / (a - b) - grad[k]) <= 1e-8


def test_bfgs_ascent_stops_on_an_active_bound():
    # the maximizer of this concave quadratic on [0, 1]**3 has x0 on the
    # upper bound and x2 on the lower one, where their gradients point out
    # of the box, and x1 inside, where its gradient x0 - x2/2 - 2 (x1 -
    # 1/3) vanishes
    def fun(x):
        x0, x1, x2 = x
        value = (-(x0 - 2.0) ** 2 - (x1 - 1.0 / 3.0) ** 2 - (x2 + 1.0) ** 2
                 + x0 * x1 - 0.5 * x1 * x2)
        return value, [-2.0 * (x0 - 2.0) + x1,
                       -2.0 * (x1 - 1.0 / 3.0) + x0 - 0.5 * x2,
                       -2.0 * (x2 + 1.0) - 0.5 * x1]

    lo, hi = [0.0] * 3, [1.0] * 3
    x, value, evals = optimize._bfgs_ascent(fun, [0.5, 0.5, 0.5], lo, hi)
    assert x[0] == 1.0 and x[2] == 0.0
    assert x[1] == pytest.approx(5.0 / 6.0, abs=1e-8)
    assert value == pytest.approx(fun([1.0, 5.0 / 6.0, 0.0])[0], abs=1e-14)
    assert 1 < evals <= 20
    # a start outside the box is projected onto it first
    assert optimize._bfgs_ascent(fun, [3.0, -1.0, 2.0], lo, hi)[0] == \
        pytest.approx([1.0, 5.0 / 6.0, 0.0], abs=1e-8)


def test_cell_ascent_moves_to_a_better_neighbouring_cell():
    # a local maximum 0 at 0.5 in the cell below the kink 1, and the best
    # one, 1.75 at 1.5, above it: the derivative points away from the kink
    # on both sides, so only the trial in the neighbouring cell finds it
    def fun(x):
        v = x[0]
        if v <= 1.0:
            return -(v - 0.5) ** 2, [-2.0 * (v - 0.5)]
        return 1.75 - 8.0 * (v - 1.5) ** 2, [-16.0 * (v - 1.5)]

    x, value, evals = optimize._cell_ascent(fun, [0.3], 0.0, 2.0, (1.0,))
    assert x[0] == pytest.approx(1.5, abs=1e-8)
    assert value == pytest.approx(1.75, abs=1e-14)
    assert evals > 1


def test_cell_ascent_lands_on_a_concave_kink():
    # rising with slope 1 - x/2 up to the kink 0.6 and falling with slope
    # -1 beyond it: the maximizer is the kink itself, which each cell's
    # ascent reaches only to one ulp
    def fun(x):
        v = x[0]
        if v <= 0.6:
            return v - v * v / 4.0, [1.0 - v / 2.0]
        return 0.51 - (v - 0.6), [-1.0]

    for start in (0.2, 0.9):
        x, value, _ = optimize._cell_ascent(fun, [start], 0.0, 1.0, (0.6,))
        assert x == [0.6]
        assert value == fun([0.6])[0]


def test_cell_ascent_without_kinks_is_one_bfgs_ascent():
    # with one cell the search is the plain ascent on the support: the
    # same point, value and evaluations, bit for bit
    def fun(x):
        calls.append(list(x))
        x0, x1, x2 = x
        value = (-(x0 - 0.7) ** 2 - (x1 - 0.2) ** 2 - (x2 - 0.4) ** 2
                 + 0.5 * x0 * x2)
        return value, [-2.0 * (x0 - 0.7) + 0.5 * x2, -2.0 * (x1 - 0.2),
                       -2.0 * (x2 - 0.4) + 0.5 * x0]

    calls = []
    cell = optimize._cell_ascent(fun, [0.1, 0.9, 0.5], 0.0, 1.0, ())
    cell_calls, calls = calls, []
    plain = optimize._bfgs_ascent(fun, [0.1, 0.9, 0.5], [0.0] * 3, [1.0] * 3)
    assert cell == plain
    assert cell_calls == calls


@pytest.mark.parametrize("dist, l, before", [
    ("U[0.1,1]", 3, 0.2902265277374905), ("U[0.1,1]", 4, 0.2938037642748796),
    ("U[0.1,1]", 5, 0.29531564988015374),
    ("U[0.1,1]", 8, 0.29683521641958854),
    ("U[0,1]", 3, 0.2612038749637415), ("U[0,1]", 4, 0.2644233878473916),
    ("U[0,1]", 5, 0.26578408489213834),
    ("beta(2,3)", 3, 0.20618053474272627), ("beta(2,3)", 4, 0.2086000703526371),
    ("beta(2,3)", 5, 0.20960614138109318),
    ("texp(3,0,1)", 3, 0.11980535016831587),
    ("texp(3,0,1)", 4, 0.12195007427622392),
    ("texp(3,0,1)", 5, 0.1228726667749486),
    ("kinked", 3, 0.3092207792207792), ("kinked", 4, 0.30923302777022754),
    ("kinked", 5, 0.3092356004086647),
    ("T3", 3, 0.39008547008547007), ("T3", 4, 0.39010342038427998),
    ("T3", 5, 0.39013615452221273), ("T3", 6, 0.39015040866952011),
    ("kinked", 6, 0.3092372908178843)])
def test_risk_averse_keeps_the_sweeps_revenue(monkeypatch, dist, l, before):
    # the revenues of the coordinate sweeps and the Nelder-Mead polish over
    # the breakpoints, which an ascent cell by cell between the CDF's knots
    # replaces on every CDF, the tables (and the equal-revenue one, above)
    # included.  On T3 the sweeps stopped at 4 active bundles at l = 5.
    # On KINKED at l = 6, insertion with midpoint trials alone ended at
    # 0.30923654779289045; the split trials reach 0.3092372908178843
    def fail(*args):
        raise AssertionError("a sweep or polish ran over breakpoints")

    monkeypatch.setattr(optimize, "_sweep", fail)
    monkeypatch.setattr(optimize, "_polish", fail)
    dist = {**SMOOTH_DISTS, "kinked": KINKED, "T3": T3}[dist]
    sol = solve_finite(make_domain("risk_averse", 0.0, 1.0), dist,
                       OptimizeOptions(max_bundles=l), mode="expected_payment")
    assert sol.revenue >= before - 1e-12
    assert sol.active_bundles == l
    assert "polish_evals" not in sol.diagnostics
    assert "ascent_evals" in sol.diagnostics


@pytest.mark.parametrize("name, mode", [("quasilinear", "payment"),
                                        ("myerson", "expected_payment"),
                                        ("risk_averse", "expected_payment")])
def test_chain_dp_matches_the_brute_force_oracle(name, mode):
    # criterion 3's grid and domain: the DP is exact over the grid's ranges
    # of at most n bundles, for each n
    t_grid = np.round(np.arange(0.0, 1.0001, 0.05), 10)
    q_grid = (0.0, 0.25, 0.5, 0.75, 1.0)
    dom = make_domain(name, 0.0, 5.0)
    starts, size = optimize._chain_dp(dom, U01, mode, 2, t_grid, q_grid)
    assert size == 80
    assert len(starts) == 2
    for n, ((thetas, qs), revenue) in enumerate(starts, 1):
        _, oracle = brute_force_optimal(dom, U01, t_grid, q_grid,
                                        max_bundles=n + 1, mode=mode)
        assert abs(revenue - oracle) <= 1e-12
        assert len(thetas) <= n
        # its profile pins the same payments, or higher ones at breakpoints
        # clipped up to the support, so the sweep starts no lower
        assert optimize._profile_revenue(dom, U01, mode, thetas,
                                         qs) >= revenue - 1e-12


def _chains(key, gain, m, path=(0,)):
    # every chain from node 0 of at most m edges whose keys do not decrease
    u = path[-1]
    for v in np.flatnonzero(gain[u] > -np.inf) if len(path) <= m else ():
        if len(path) == 1 or key[path[-2], u] <= key[u, v]:
            yield (*path, int(v))
            yield from _chains(key, gain, m, (*path, int(v)))


@st.composite
def chain_graphs(draw):
    # DAGs with edges u -> v for u < v: node 0 reaches every node, about
    # 40% of the other edges are missing, some with a NaN gain, keys tie
    # often, and some edges have a NaN key, never at most another
    n, m = draw(st.integers(2, 7)), draw(st.integers(1, 4))
    key, gain = np.full((n, n), np.nan), np.full((n, n), -np.inf)
    for u, v in itertools.combinations(range(n), 2):
        if u == 0 or draw(st.integers(0, 9)) >= 4:
            key[u, v] = draw(st.sampled_from([0.0, 1.0, 2.0, np.nan]))
            gain[u, v] = draw(st.floats(-1.0, 1.0))
        elif draw(st.booleans()):
            gain[u, v] = np.nan
    return key, gain, m


@settings(max_examples=500, deadline=None)
@given(graph=chain_graphs())
def test_best_chain_matches_enumeration(graph):
    # the chain for each bound n = 1..m on the edges is the best of at
    # most n edges
    key, gain, m = graph
    chains = optimize._best_chain(key, gain, m)
    assert len(chains) == m
    for n, (chain, total) in enumerate(chains, 1):
        best = max(sum(gain[u, v] for u, v in zip(path, path[1:]))
                   for path in _chains(key, gain, n))
        assert abs(total - best) <= 1e-12
        path = [0, *chain]
        assert 1 <= len(chain) <= n
        assert all(gain[u, v] > -np.inf for u, v in zip(path, path[1:]))
        keys = [key[u, v] for u, v in zip(path, path[1:])]
        assert all(a <= b for a, b in zip(keys, keys[1:]))
        assert abs(sum(gain[u, v] for u, v in zip(path, path[1:]))
                   - total) <= 1e-12


@pytest.mark.parametrize("m", [2, 3])
def test_best_chain_never_follows_a_nan_key(m):
    # 1 -> 2 has a finite gain and a NaN key, so it follows no edge: the
    # best chain is 0 -> 1 alone, whatever the bound
    key, gain = np.full((3, 3), np.nan), np.full((3, 3), -np.inf)
    key[0, 1] = key[0, 2] = 0.0
    gain[0, 1], gain[1, 2], gain[0, 2] = 1.0, 1.0, 0.5
    assert optimize._best_chain(key, gain, m)[-1] == ([1], 1.0)


@settings(max_examples=300, deadline=None)
@given(graph=chain_graphs())
def test_best_chain_stages_do_not_depend_on_the_bound(graph):
    # the chains for bounds 1..k are the same, bit for bit, whether the DP
    # stops at k or runs on to a larger bound: no stage depends on it
    key, gain, _ = graph
    runs = [[(chain, total.hex())
             for chain, total in optimize._best_chain(key, gain, m)]
            for m in range(1, 5)]
    for k in range(1, 4):
        for run in runs[k:]:
            assert run[:k] == runs[k - 1]


def test_two_stage_chain_dps_sort_nothing(monkeypatch):
    # at max_bundles = 3 each chain has one candidate predecessor, so
    # neither DP sorts: the sweep path's 197-node bundle graph and the
    # exact path's 160-point first grid give the chains they gave when
    # every stage was sorted
    dist = measure.uniform(0.1, 1.0)
    dom = make_domain("risk_averse", 0.0, 1.0)
    bundles = optimize._bundle_grid(dom.family, dist)
    form = make_domain("income_effect", 0.0, 1.0).family.exact_quantities
    levels = np.linspace(0.0, 1.0, optimize.DP_GRID)
    grid = np.unique(np.append(dist.ppf(levels),
                               dist.lo + (dist.hi - dist.lo) * levels))
    chains, best_chain = [], optimize._best_chain

    def spy(key, gain, m):
        chains.append((len(gain), best_chain(key, gain, m)))
        return chains[-1][1]

    def fail(*args, **kwargs):
        raise AssertionError("a two-stage chain DP sorted")

    monkeypatch.setattr(optimize, "_best_chain", spy)
    monkeypatch.setattr(np, "argsort", fail)
    monkeypatch.setattr(np, "searchsorted", fail)
    optimize._chain_dp(dom, dist, "expected_payment", 2, *bundles)
    optimize._grid_dp(form, dist, 2, grid)
    expected = {197: [([98], 0.2777777777777778),
                      ([62, 98], 0.28968253968253965)],
                161: [([119], 0.18289699252104458),
                      ([107, 142], 0.19752910617987157)]}
    assert [n for n, _ in chains] == [197, 161]
    for n, out in chains:
        for (chain, total), (want, wanted) in zip(out, expected[n],
                                                  strict=True):
            assert chain == want
            assert abs(total - wanted) <= 1e-15 * wanted


def test_sweep_path_posts_the_price_at_a_kink():
    # income_effect sells q = 1 at 0.5 to the types above the knot 0.25,
    # 0.5 * 0.95; the chain DP's grid holds that range, and no later step
    # may lose any of it
    sol = solve_finite(make_domain("income_effect", 0.0, 1.0), KINKED,
                       OptimizeOptions(max_bundles=4), mode="expected_payment")
    assert sol.diagnostics["method"] == "sweep"
    assert abs(sol.revenue - 0.475) <= 1e-12


def test_risk_averse_inserts_a_small_first_bundle():
    # risk_averse's best range on KINKED starts with a bundle at q < 0.01,
    # below the grid's first quantity 1/14; the ascents keep two bundles at
    # 0.3092208, and the insertion adds it for 1.2e-5 more
    sol = solve_finite(make_domain("risk_averse", 0.0, 1.0), KINKED,
                       OptimizeOptions(max_bundles=4), mode="expected_payment")
    assert sol.active_bundles == 4
    assert sol.mechanism.bundles[1].q < 0.01
    assert sol.revenue > 0.309233027


def test_sweep_path_at_the_top_of_two_param():
    # the payment that makes (t, 1) indifferent to (0, 0) is infinite at
    # r = 3, so the bundle grid stops at the quantile 1 - 1/CHAIN_GRID; the
    # best posted price sells q = 1 at 1 to the types above 1, for 2/3
    sol = solve_finite(make_domain("two_param"), measure.uniform(0.0, 3.0),
                       OptimizeOptions(max_bundles=3), mode="expected_payment")
    assert sol.diagnostics["method"] == "sweep"
    assert sol.revenue >= 2.0 / 3.0 - 1e-12


def test_risk_averse_ignores_the_seed():
    dom = make_domain("risk_averse", 0.0, 1.0)
    a, b = (solve_finite(dom, KINKED, OptimizeOptions(max_bundles=4, seed=s),
                         mode="expected_payment") for s in (1, 2))
    assert a.mechanism.to_dict() == b.mechanism.to_dict()
    assert a.revenue == b.revenue and a.diagnostics == b.diagnostics
    assert a.diagnostics["dp_revenue"] <= a.revenue
    assert a.diagnostics["dp_grid"] == optimize.CHAIN_GRID ** 2


def test_a_menu_beats_every_posted_full_bundle_in_expected_payments():
    # two narrow lumps of mass, at 1 and 100: a bundle of less than the
    # whole good bound at 0.99, and the whole good bound at 99.99, earn
    # more in expected payments than the best posted full bundle, which
    # the solve at max_bundles = 2 gives, for k = 1/2 and for k = 1
    dist = measure.from_table([[0.99, 0], [1.01, 0.9], [99.99, 0.9],
                               [100.01, 1]])
    for name, q1, menu in (("income_effect", 0.9025, 1.0314361601091206),
                           ("payment_param", 0.85, 1.0997547895228559)):
        dom = make_domain(name, 0.5, 101.0)
        posted = solve_finite(dom, dist, OptimizeOptions(max_bundles=2),
                              mode="expected_payment")
        assert abs(posted.revenue - 0.9999499987499373) <= 1e-15
        bind = dom.family.bind
        t1 = float(bind(0.99, 0.0, 0.0, q1))
        mech = from_range(dom, [Bundle(0.0, 0.0), Bundle(t1, q1),
                                Bundle(float(bind(99.99, t1, q1, 1.0)), 1.0)])
        assert mech.breakpoints == pytest.approx([0.99, 99.99], abs=1e-12)
        assert certify_step(dom, mech, dist.lo, dist.hi).ok
        revenue = measure.expected_revenue(dom, mech, dist, "expected_payment")
        assert abs(revenue - menu) <= 1e-12
        assert revenue > 1.03 * posted.revenue


def test_sweep_path_beats_the_posted_price_on_a_heavy_tail():
    # on the equal-revenue table, 1 - F = 0.1/sqrt(theta) on [0.01, 100],
    # a p = 2 family's posted price earns sqrt(theta) (1 - F(theta)), at
    # most 0.1002286; in expected payments no posted-price rule holds for
    # it, and a menu earns 16% (payment_param) or 9% (income_effect) more
    thetas = np.geomspace(0.01, 100.0, 60)
    er = measure.from_table([*([t, 1.0 - 0.1 / np.sqrt(t)] for t in thetas),
                             [100.1, 1.0]])
    grid = np.linspace(er.lo, er.hi, 1000001)
    posted = float(np.max(np.sqrt(grid) * (1.0 - er.cdf(grid))))
    assert abs(posted - 0.1002286) <= 1e-7
    for name, gain in (("payment_param", 1.15), ("income_effect", 1.08)):
        dom = make_domain(name, 0.0, 100.1)
        assert dom.family.posted_price_modes == ()
        sol = solve_finite(dom, er, OptimizeOptions(max_bundles=3),
                           mode="expected_payment")
        assert sol.diagnostics["method"] == "sweep"
        assert sol.revenue >= gain * posted


@settings(max_examples=300, deadline=None)
@given(name=st.sampled_from([*FACTORY_FAMILIES, "power_q"]),
       dus=st.lists(st.floats(0.01, 0.24), min_size=1, max_size=4),
       dqs=st.lists(st.floats(0.01, 0.25), min_size=4, max_size=4))
def test_breakpoints_round_trip_through_payments(name, dus, dqs):
    # payments pinned at strictly increasing entry types rebuild, through
    # from_range, a mechanism whose breakpoints are those types
    dom = make_domain(name)
    lo, hi = dom.lo, min(dom.hi, 3.0)
    thetas = [lo + (0.02 + u) * (hi - lo) for u in np.cumsum(dus)]
    qs = [min(float(q), 1.0) for q in np.cumsum(dqs[:len(thetas)])]
    pays = payments_from_breakpoints(dom, thetas, qs)
    mech = from_range(dom, [ZERO_BUNDLE, *map(Bundle, pays, qs)])
    assert mech.breakpoints == pytest.approx(thetas, rel=0, abs=1e-9)


SEPARABLE = [("quasilinear", "payment"), ("sqrt_quasilinear", "payment"),
             ("quasilinear", "expected_payment"),
             ("sqrt_quasilinear", "expected_payment"),
             ("myerson", "expected_payment")]


def _profile_mechanism_revenue(dom, dist, mode, thetas, qs):
    pays = payments_from_breakpoints(dom, thetas, qs)
    bundles = [ZERO_BUNDLE]
    for t, q in zip(pays, qs):
        if t > bundles[-1].t + 1e-12 and q > bundles[-1].q + 1e-12:
            bundles.append(Bundle(float(t), float(q)))
    return measure.expected_revenue(dom, from_range(dom, bundles), dist, mode)


@st.composite
def piecewise_linear_tables(draw):
    # flat pieces make bimodal, non-MHR CDFs; a zero increment is common
    n = draw(st.integers(1, 6))
    lo = draw(st.floats(0.0, 0.5))
    widths = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=n,
                                    max_size=n)))
    steps = np.array(draw(st.lists(st.just(0.0) | st.floats(0.0, 1.0),
                                   min_size=n, max_size=n)))
    if steps.sum() <= 0.0:
        steps[-1] = 1.0
    xs = lo + (1.0 - lo) * np.concatenate([[0.0], np.cumsum(widths)]) / widths.sum()
    cs = np.concatenate([[0.0], np.cumsum(steps)]) / steps.sum()
    xs[-1], cs[-1] = 1.0, 1.0
    keep = np.concatenate([[True], np.diff(xs) > 0.0])
    return measure.from_table(np.column_stack([xs[keep], cs[keep]]).tolist())


@settings(max_examples=200, deadline=None)
@given(dist=piecewise_linear_tables(), seed=st.integers(0, 2**32 - 1))
def test_separable_solve_is_the_best_posted_price(dist, seed):
    # binding indifference telescopes revenue into
    # sum_k theta_k (1 - F(theta_k)) dh_k with sum_k dh_k <= 1, so no
    # profile beats the best posted price, on any F; in expected payments
    # t q <= t bounds the classical families' revenue by that in payments
    grid = np.linspace(dist.lo, dist.hi, 100001)
    best = float(np.max(grid * (1.0 - dist.cdf(grid))))
    rng = np.random.default_rng(seed)
    for name, mode in SEPARABLE:
        dom = make_domain(name, 0.0, 1.0)
        calls = 0
        inner = optimize.payments_from_breakpoints

        def counted(*args):
            nonlocal calls
            calls += 1
            return inner(*args)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(optimize, "payments_from_breakpoints", counted)
            sol = solve_finite(dom, dist, OptimizeOptions(max_bundles=4),
                               mode=mode)
        assert calls <= 1
        assert sol.revenue >= best - 1e-12
        for _ in range(10):
            thetas = np.sort(rng.uniform(dist.lo, dist.hi, 3))
            qs = np.sort(rng.uniform(0.0, 1.0, 3))
            if rng.uniform() < 0.5:
                qs[-1] = 1.0
            rev = _profile_mechanism_revenue(dom, dist, mode, thetas, qs)
            assert rev <= sol.revenue + 1e-12


@pytest.mark.parametrize("name, mode", SEPARABLE)
def test_separable_optimum_at_a_kink(name, mode):
    # theta (1 - F) peaks at the kink 0.8 with 0.28; a sweep stops short
    sol = solve_finite(make_domain(name, 0.0, 1.0), KINKED,
                       OptimizeOptions(max_bundles=4), mode=mode)
    assert abs(sol.revenue - 0.28) <= 1e-15
    assert sol.mechanism.breakpoints == (0.8,)
    assert sol.mechanism.bundles[-1] == Bundle(0.8, 1.0)


@settings(max_examples=60, deadline=None)
@given(dist=piecewise_linear_tables(),
       name=st.sampled_from(["quasilinear", "sqrt_quasilinear", "myerson",
                             "risk_averse"]),
       mode=st.sampled_from(measure.REVENUE_MODES), l=st.integers(2, 4))
@example(dist=SLIVER, name="myerson", mode="payment", l=3)
@example(dist=SLIVER, name="risk_averse", mode="expected_payment", l=3)
def test_no_solve_ends_below_the_best_posted_price(dist, name, mode, l):
    # in these families the full bundle is worth exactly theta to type
    # theta, so the posted price p sells q = 1 at p to the types above it
    price = measure.monopoly_price(dist)
    sol = solve_finite(make_domain(name, 0.0, 1.0), dist,
                       OptimizeOptions(max_bundles=l), mode=mode)
    assert sol.revenue >= price * (1.0 - dist.cdf(price)) - 1e-12


@pytest.mark.parametrize("name, lo", [("myerson", 0.0), ("risk_averse", 0.1)])
def test_restricted_payment_mode_reaches_the_supremum(name, lo):
    # binding indifference makes each payment a weighted mean of the
    # breakpoints below it, so revenue stays below
    # sum_k theta_k (F(theta_k+1) - F(theta_k)), maximal at 1/(3(1 - lo))
    # (1/3 and 10/27) with breakpoints (1/3, 2/3), and reaches it only as
    # q_1/q_2 -> 0 (README, restricted families in payment mode)
    sup = 1.0 / (3.0 * (1.0 - lo))
    dom = make_domain(name, 0.0, 1.0)
    sol = solve_finite(dom, measure.uniform(lo, 1.0),
                       OptimizeOptions(max_bundles=3, seed=11))
    assert sup - 1e-9 <= sol.revenue <= sup
    assert verify_mechanism(dom, sol.mechanism,
                            np.linspace(lo, 1.0, 200)).ok


def test_restricted_payment_at_a_tiny_weight_is_pinned():
    # with w(q) = q**2 near 1e-16, the round trip through
    # r*(1 - w) + w*t lost w*(r - t) to the ulp of r; the binding step
    # (w*t + r*dw)/w' sums nonnegative terms, so each payment is feasible
    # and indifferent to the bundle below at its breakpoint
    dom = make_domain("risk_averse", 0.0, 1.0)
    thetas, qs = [0.4, 0.6], [1.2e-8, 1.6e-8]
    pays = payments_from_breakpoints(dom, thetas, qs)
    bundles = [ZERO_BUNDLE, *map(Bundle, pays, qs)]
    for theta, a, b in zip(thetas, bundles, bundles[1:]):
        assert 0.0 <= b.t <= theta
        assert abs(dom.family.special(a, b) - theta) <= 1e-12


def test_sup_b_on_the_uniform_closed_form():
    # on U[lo, 1] with lo <= 1/(m + 1), theta_k = k/(m + 1) and
    # sup B = m / (2 (m + 1) (1 - lo)); a grid point lies within 1/4000
    # of each, and B is flat to first order there
    for lo, m in ((0.0, 2), (0.0, 3), (0.1, 4)):
        want = m / (2.0 * (m + 1) * (1.0 - lo))
        assert abs(sup_b(measure.uniform(lo, 1.0), m) - want) <= 1e-6


@pytest.mark.parametrize("dist, l, floor", [(KINKED, 4, 0.4475 - 1e-8),
                                             (T3, 5, 0.41662)])
def test_risk_averse_in_payments_reaches_sup_b_on_a_table(dist, l, floor):
    # the revenue is below sup B and approaches it as the weight ratios
    # fall (README, restricted families in payment mode).  A sweep from the
    # chain DP's ranges and the posted price alone ended at 0.4463636 on
    # KINKED and 0.4138828 on T3; insertion and the polish from the best
    # result with one breakpoint fewer reach sup B
    bound = sup_b(dist, l - 1)
    assert bound - 1e-7 <= floor <= bound
    dom = make_domain("risk_averse", 0.0, 1.0)
    sol = solve_finite(dom, dist, OptimizeOptions(max_bundles=l))
    assert sol.diagnostics["method"] == "sweep"
    assert floor <= sol.revenue <= bound + 1e-7
    assert certify_step(dom, sol.mechanism, dist.lo, dist.hi).ok


@pytest.mark.parametrize("seed", [0, 1, 10])
def test_restricted_payment_mode_five_bundles(seed):
    # these seeds once ended in a range from_range rejects, built from
    # payments pinned at a tiny weight; the supremum with m breakpoints on
    # U[0.1, 1] is m / (2 (m + 1) 0.9): 0.4167 at m = 3, 0.4444 at m = 4
    dom = make_domain("risk_averse", 0.0, 1.0)
    sol = solve_finite(dom, measure.uniform(0.1, 1.0),
                       OptimizeOptions(max_bundles=5, seed=seed))
    assert 4.0 / 9.0 - 1e-8 <= sol.revenue <= 0.4 / 0.9
    assert verify_mechanism(dom, sol.mechanism,
                            np.linspace(0.1, 1.0, 200)).ok


PROFILE_DISTS = {"uniform": U01, "beta": measure.beta(2.0, 3.0),
                 "table": KINKED}


def _reference_revenue(dom, dist, mode, pays, thetas, qs):
    total = 0.0
    edges = [*thetas, dist.hi]
    for k, t in enumerate(pays):
        mass = dist.mass(edges[k], edges[k + 1])
        if mass > 0.0:
            total += measure.revenue_of(Bundle(t, qs[k]), mode) * mass
    return total


@st.composite
def profiles(draw):
    # ties and support ends are common; a few profiles are left unsorted
    m = draw(st.integers(1, 4))
    value = st.sampled_from([0.0, 0.35, 1.0]) | st.floats(0.0, 1.0)
    thetas = draw(st.lists(value, min_size=m, max_size=m))
    qs = draw(st.lists(value, min_size=m, max_size=m))
    if draw(st.integers(0, 4)):
        thetas, qs = sorted(thetas), sorted(qs)
    return thetas, qs


@settings(max_examples=400, deadline=None)
@given(name=st.sampled_from(FACTORY_FAMILIES),
       dist=st.sampled_from(sorted(PROFILE_DISTS)),
       mode=st.sampled_from(measure.REVENUE_MODES), profile=profiles())
def test_profile_revenue_is_exact(name, dist, mode, profile):
    # the objective (one CDF call) agrees bit for bit with the revenue of
    # its payments summed segment by segment with dist.mass
    dom, dist = make_domain(name, 0.0, 1.0), PROFILE_DISTS[dist]
    thetas, qs = profile
    rev = optimize._profile_revenue(dom, dist, mode, thetas, qs)
    try:
        pays = payments_from_breakpoints(dom, thetas, qs)
    except DomainError:
        assert rev == optimize._INFEASIBLE
        return
    ref = _reference_revenue(dom, dist, mode, pays, thetas, qs)
    assert float(rev).hex() == float(ref).hex()


# (kind, exponent of phi or w, exponent of h, a) of each factory family
FORMS = {
    "quasilinear": ("classical", 1, 1, lambda r: r),
    "sqrt_quasilinear": ("classical", 1, 0.5, lambda r: r),
    "income_effect": ("classical", 2, 0.5, lambda r: r),
    "payment_param": ("classical", 2, 1, lambda r: r),
    "two_param": ("classical", 2, 0.5,
                  lambda r: r if r <= 2 else 2 / (3 - r)),
    "myerson": ("restricted", 1, None, None),
    "risk_averse": ("restricted", 2, None, None),
}


def _telescoped_payments(name, thetas, qs):
    # the README's prefix sums from the anchor in 200-bit arithmetic:
    # phi(t_k) = sum_j a(theta_j) dh_j, or w_k t_k = sum_j theta_j dw_j; a
    # restricted quantity step up to STEP_FLOOR repeats the payment
    kind, p, k, a = FORMS[name]
    with mpmath.workprec(200):
        total, prev_t, prev_q, pays = mpmath.mpf(0), mpmath.mpf(0), 0.0, []
        for r, q in zip(thetas, qs):
            r, x = mpmath.mpf(r), mpmath.mpf(q)
            if kind == "restricted":
                w = x**p
                if q <= prev_q + optimize.STEP_FLOOR:
                    total = w * prev_t
                else:
                    total += r * (w - mpmath.mpf(prev_q)**p)
                prev_t = total / w
            else:
                total += a(r) * (x**k - mpmath.mpf(prev_q)**k)
                prev_t = total ** (mpmath.mpf(1) / p)
            prev_q = q
            pays.append(prev_t)
    return pays


@st.composite
def small_step_profiles(draw):
    # quantities from 1e-10 to 1, some steps a relative 1e-12 to 1e-3 of
    # the quantity; breakpoints in [0.1, 2.9], where a(theta) varies by a
    # factor 200 at most
    m = draw(st.integers(1, 4))
    thetas = sorted(draw(st.lists(st.floats(0.1, 2.9), min_size=m,
                                  max_size=m)))
    q, qs = 10.0 ** draw(st.floats(-10.0, 0.0)), []
    for _ in range(m):
        qs.append(q)
        if draw(st.booleans()):
            q = min(q * (1.0 + 10.0 ** draw(st.floats(-12.0, -3.0))), 1.0)
        else:
            q = 10.0 ** draw(st.floats(math.log10(q), 0.0))
    return thetas, qs


@settings(max_examples=1000, deadline=None)
@given(name=st.sampled_from(FACTORY_FAMILIES), profile=small_step_profiles())
def test_payments_match_the_telescoped_sums(name, profile):
    thetas, qs = profile
    pays = payments_from_breakpoints(make_domain(name, 0.0, 3.0), thetas, qs)
    for t, ref in zip(pays, _telescoped_payments(name, thetas, qs)):
        assert abs(t - ref) <= 1e-13 * ref


@settings(max_examples=400, deadline=None)
@given(name=st.sampled_from([*FACTORY_FAMILIES, "power_q"]),
       dist=st.sampled_from(sorted(PROFILE_DISTS)),
       mode=st.sampled_from(measure.REVENUE_MODES), profile=profiles())
# from a zero weight the anchor step once landed off its breakpoint: an ulp
# above it here, and 30 ulps above a subnormal one
@example(name="myerson", dist="uniform", mode="payment",
         profile=([0.7953465966926774], [0.3671875]))
@example(name="risk_averse", dist="beta", mode="payment",
         profile=([2.225073858507203e-309], [0.25]))
def test_revenue_never_falls_with_the_top_quantity(name, dist, mode, profile):
    # raising q_m raises only the top payment (README, no distortion at the
    # top), up to round-off: a restricted payment that equals its
    # breakpoint can land an ulp above it.  two_param's domain reaches
    # theta = 3, where a step pays infinity, and power_q's is [1/4, 1/3]
    dom = make_domain(name, *{"two_param": (0.0, 3.0),
                              "power_q": (0.25, 1 / 3)}.get(name, (0.0, 1.0)))
    dist, (thetas, qs) = PROFILE_DISTS[dist], profile
    thetas = [dom.lo + (dom.hi - dom.lo) * r for r in thetas]
    raised = [*qs[:-1], 1.0]
    rev = optimize._profile_revenue(dom, dist, mode, thetas, qs)
    try:
        payments_from_breakpoints(dom, thetas, raised)
    except DomainError:
        assert rev == optimize._INFEASIBLE or thetas[-1] == 3.0
        return
    raised_rev = optimize._profile_revenue(dom, dist, mode, thetas, raised)
    assert raised_rev >= rev - 4 * math.ulp(rev)


@pytest.mark.parametrize("name, dist, mode, l, method", [
    ("quasilinear", "table", "payment", 4, "posted_price"),
    ("myerson", "uniform", "expected_payment", 3, "posted_price"),
    ("income_effect", "table", "payment", 4, "exact_quantities"),
    ("two_param", "U[0,3]", "payment", 3, "exact_quantities"),
    ("risk_averse", "table", "expected_payment", 4, "exact_quantities"),
    ("myerson", "beta", "payment", 4, "sweep"),
    ("two_param", "U[0,3]", "expected_payment", 3, "sweep"),
    ("power_q", "U[0.26,0.33]", "payment", 3, "sweep"),
])
def test_every_path_sells_the_whole_good_at_the_top(name, dist, mode, l,
                                                    method):
    dists = {**PROFILE_DISTS, "U[0,3]": measure.uniform(0.0, 3.0),
             "U[0.26,0.33]": measure.uniform(0.26, 0.33)}
    dom = make_domain(name, 0.0, 1.0) if dist in PROFILE_DISTS else \
        make_domain(name)
    sol = solve_finite(dom, dists[dist], OptimizeOptions(max_bundles=l),
                       mode=mode)
    assert sol.diagnostics["method"] == method
    assert sol.mechanism.bundles[-1].q == 1.0
    # solve_finite certified it exactly; the grid check agrees
    support = dists[dist]
    assert verify_mechanism(dom, sol.mechanism,
                            np.linspace(support.lo, support.hi, 200)).ok


@pytest.mark.parametrize("name", ["myerson", "risk_averse"])
def test_restricted_anchor_step_lands_on_its_breakpoint(name):
    # a bundle bound to (0, 0) pays its breakpoint exactly, so it is
    # affordable there, subnormal breakpoints included
    dom = make_domain(name)
    for theta, q in ((0.7953465966926774, 0.3671875),
                     (2.225073858507203e-309, 0.25)):
        assert payments_from_breakpoints(dom, [theta], [q])[0] == theta


EXACT_FAMILIES = ["income_effect", "payment_param", "two_param"]


@pytest.mark.parametrize("m", [2, 3, 4])
@pytest.mark.parametrize("lo", [0.0, 0.1])
def test_exact_path_pins_income_effect_on_uniform(m, lo):
    # with a(r) = r and F uniform on [lo, 1], R(theta)**2 is
    # sum_k (theta_k+1 - theta_k) theta_k theta_k+1 / (1 - lo)**2, with
    # theta_m+1 = 1 in the last factor and 1 - theta_m in the first; it is
    # stationary at theta_k = k/(2m+1), where it equals
    # 2m(m+1) / (3 (2m+1)**2 (1 - lo)**2), when lo <= 1/(2m+1).  On
    # [lo w, w] the breakpoints scale by w and the revenue by sqrt(w): the
    # search must stop relative to the support, not at an absolute step
    dom = make_domain("income_effect", 0.0, 1.0)
    for w in (1.0, 1e-9):
        dist = measure.uniform(lo * w, w)
        exact = np.sqrt(2 * m * (m + 1) / 3 * w) / ((2 * m + 1) * (1 - lo))
        thetas = np.arange(1, m + 1) * w / (2 * m + 1)
        assert abs(optimize._exact_profile(dom.family.exact_quantities, dist,
                                           thetas)[0] - exact) <= 1e-15 * exact
        sol = solve_finite(dom, dist, OptimizeOptions(max_bundles=m + 1))
        assert sol.diagnostics["method"] == "exact_quantities"
        assert abs(sol.revenue - exact) <= 1e-14 * exact
        assert sol.active_bundles == m + 1
        assert sol.mechanism.breakpoints == pytest.approx(thetas, rel=0,
                                                          abs=1e-7 * w)


@pytest.mark.parametrize("dist", sorted(PROFILE_DISTS))
def test_exact_path_revenue_depends_only_on_a(dist):
    # R(theta) is built from a and F alone, and a(r) = r on [0, 1] for all
    # three families, so they earn the same
    dist = PROFILE_DISTS[dist]
    revs = [solve_finite(make_domain(name, 0.0, 1.0), dist,
                         OptimizeOptions(max_bundles=4)).revenue
            for name in EXACT_FAMILIES]
    assert max(revs) - min(revs) <= 1e-12


GRID_DISTS = {**PROFILE_DISTS, "uniform_0.1": measure.uniform(0.1, 1.0)}


@pytest.mark.parametrize("dist", sorted(GRID_DISTS))
@pytest.mark.parametrize("name", EXACT_FAMILIES)
def test_grid_dp_matches_the_best_subset(name, dist):
    # on 9 points and the knots, no set of at most m grid breakpoints earns
    # more than the DP's, and its own breakpoints earn what it reports
    form = make_domain(name, 0.0, 1.0).family.exact_quantities
    dist = GRID_DISTS[dist]
    grid = np.sort(np.append(np.linspace(dist.lo, dist.hi, 9),
                             dist.knots or ()))
    best = [max(optimize._exact_profile(form, dist, list(thetas))[0]
                for thetas in itertools.combinations(grid, k))
            for k in range(1, 5)]
    chains, _ = optimize._grid_dp(form, dist, 4, grid)
    assert len(chains) == 4
    for m, (thetas, revenue) in enumerate(chains, 1):
        assert 1 <= len(thetas) <= m
        assert abs(revenue - max(best[:m])) <= 1e-12
        assert abs(optimize._exact_profile(form, dist, thetas)[0]
                   - revenue) <= 1e-12


def test_exact_path_ignores_the_seed():
    dom = make_domain("two_param", 0.0, 1.0)
    a, b = (solve_finite(dom, KINKED, OptimizeOptions(max_bundles=4, seed=s))
            for s in (1, 2))
    assert a.mechanism.to_dict() == b.mechanism.to_dict()
    assert a.revenue == b.revenue
    assert a.diagnostics == b.diagnostics
    assert "seed" not in a.diagnostics
    assert a.diagnostics["dp_revenue"] <= a.revenue + 1e-12
    assert a.diagnostics["dp_grid"] >= optimize.DP_GRID
    assert a.diagnostics["ascent_evals"] >= 1
    assert "polish_evals" not in a.diagnostics


@pytest.mark.parametrize("name, dist, lo, hi, l", [
    ("income_effect", KINKED, 0.0, 1.0, 4), ("payment_param", T3, 0.0, 1.0, 6),
    ("two_param", measure.uniform(0.0, 3.0), 0.0, 3.0, 5)])
def test_exact_path_runs_one_grid_dp(monkeypatch, name, dist, lo, hi, l):
    # on a table, and for two_param with its kink 2 inside the support, the
    # ascent cell by cell finishes from the first DP: no zoomed grid DP
    calls = []
    grid_dp = optimize._grid_dp

    def counted(*args):
        calls.append(args)
        return grid_dp(*args)

    monkeypatch.setattr(optimize, "_grid_dp", counted)
    sol = solve_finite(make_domain(name, lo, hi), dist,
                       OptimizeOptions(max_bundles=l))
    assert sol.diagnostics["method"] == "exact_quantities"
    assert len(calls) == 1
    assert sol.revenue >= sol.diagnostics["dp_revenue"] - 1e-12


def test_exact_path_puts_a_breakpoint_on_a_kink():
    sol = solve_finite(make_domain("income_effect", 0.0, 1.0), KINKED,
                       OptimizeOptions(max_bundles=4))
    assert sol.revenue >= 0.47860771
    assert min(abs(b - 0.8) for b in sol.mechanism.breakpoints) <= 1e-12


def test_exact_path_beats_a_fine_grid_and_keeps_a_kink():
    # on 800 even points and the knots the DP earns 0.50605632; a local
    # polish of the 160-point optimum stopped below it, and 1 ulp short of
    # the knot 0.6
    dist = T3
    dom = make_domain("income_effect", 0.0, 1.0)
    form = dom.family.exact_quantities
    grid = np.sort(np.append(np.linspace(0.0, 1.0, 800), dist.knots))
    fine = optimize._grid_dp(form, dist, 5, grid)[0][-1][1]
    assert fine >= 0.50605631
    sol = solve_finite(dom, dist, OptimizeOptions(max_bundles=6))
    assert sol.revenue >= fine
    thetas, _, _ = optimize._search(dom, dist, 5, "payment")
    assert 0.6 in thetas
    assert min(abs(b - 0.6) for b in sol.mechanism.breakpoints) <= 1e-12


@settings(max_examples=40, deadline=None)
@given(dist=piecewise_linear_tables(), name=st.sampled_from(EXACT_FAMILIES),
       m=st.integers(1, 5))
# all the mass below 0.0052: 160 even points sold nothing, 0.0 against
# the 400-point DP's 0.0258
@example(dist=measure.from_table([[0, 0], [0.0051813471502590676, 1],
                                  [0.33678756476683935, 1],
                                  [0.6683937823834197, 1], [1, 1]]),
         name="income_effect", m=2)
# a piece with less mass than one quantile step got no point: the
# quantiles alone found only the breakpoint 0.8, 2.8e-7 short of the DP on
# 400 even points, which adds one near 0.07
@example(dist=measure.from_table([[0, 0], [0.2, 0.0038910505836575876],
                                  [0.4, 0.0038910505836575876],
                                  [0.6, 0.0038910505836575876],
                                  [0.8, 0.0038910505836575876], [1, 1]]),
         name="income_effect", m=2)
# the second breakpoint gains only in (0.45951, 0.4614), just above the
# first, where the first grid has no point: the DP placed one breakpoint,
# 3.8e-9 short of the 400-point DP's pair 0.45951, 0.46007
@example(dist=measure.from_table([[0.177734375, 0], [0.3732731516768293, 0],
                                  [0.4595107660060976, 0],
                                  [0.6911490091463415, 0.5019607843137255],
                                  [0.8596131859756098, 0.5019607843137255],
                                  [0.9157679115853659, 0.5019607843137255],
                                  [1, 1]]),
         name="income_effect", m=2)
# two nearly tied basins: the ascent from the DP's best four breakpoints
# ends at 0.5766492921540508, 6.5e-8 short of the 400-point DP's
# 0.5766493566880837; a split above 0.5685 of the best three reaches
# 0.5766495569300116
@example(dist=measure.from_table([[0.125, 0],
                                  [0.37610361131389775, 0.24833141003346143],
                                  [0.5684959576215424, 0.24833141003346143],
                                  [0.7850638515568947, 0.49666282006692286],
                                  [1, 1]]),
         name="payment_param", m=4)
def test_exact_path_beats_a_finer_grid(dist, name, m):
    # the ascent starts from the DP on 160 quantiles and 160 even points and
    # never falls, so it earns at least that; it also earns at least the
    # DP on 400 even points
    dom = make_domain(name, 0.0, 1.0)
    form = dom.family.exact_quantities
    grid = np.sort(np.append(np.linspace(dist.lo, dist.hi, 400), dist.knots))
    fine = optimize._grid_dp(form, dist, m, grid)[0][-1][1]
    sol = solve_finite(dom, dist, OptimizeOptions(max_bundles=m + 1))
    assert sol.revenue >= fine - 1e-12
    assert sol.revenue >= sol.diagnostics["dp_revenue"] - 1e-12


def test_exact_path_at_the_top_of_two_param():
    # a(3) is infinite: a breakpoint at 3 repeats the bundle below and no
    # step warns; a(r) = r below 2, so R = sqrt(3) * 2/5 at 0.6 and 1.2
    dom, dist = make_domain("two_param"), measure.uniform(0.0, 3.0)
    form = dom.family.exact_quantities
    rev, qs = optimize._exact_profile(form, dist, [0.6, 1.2, 3.0])
    below, qs_below = optimize._exact_profile(form, dist, [0.6, 1.2])
    assert rev == below and list(qs) == [*qs_below, 1.0]
    sol = solve_finite(dom, dist, OptimizeOptions(max_bundles=3))
    assert sol.diagnostics["method"] == "exact_quantities"
    assert abs(sol.revenue - 0.4 * np.sqrt(3.0)) <= 1e-12
    assert sol.mechanism.bundles[-1].q == 1.0


@st.composite
def breakpoints(draw):
    # ties, support ends and the point where a(theta) = 0 are common
    m = draw(st.integers(1, 4))
    value = st.sampled_from([0.0, 0.35, 1.0]) | st.floats(0.0, 1.0)
    return sorted(draw(st.lists(value, min_size=m, max_size=m)))


@settings(max_examples=300, deadline=None)
@given(name=st.sampled_from(EXACT_FAMILIES),
       dist=st.sampled_from(sorted(PROFILE_DISTS)), thetas=breakpoints(),
       qs=st.lists(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
                   min_size=4, max_size=4))
def test_exact_quantities_are_optimal_at_fixed_breakpoints(name, dist, thetas,
                                                           qs):
    dom, dist = make_domain(name, 0.0, 1.0), PROFILE_DISTS[dist]
    bound, exact_qs = optimize._exact_profile(dom.family.exact_quantities,
                                              dist, thetas)
    qs = sorted(qs[:len(thetas)])
    assert optimize._profile_revenue(dom, dist, "payment", thetas,
                                     qs) <= bound + 1e-12
    # built as solve_finite builds its mechanism
    mech = optimize._mechanism(dom, thetas, exact_qs)
    assert abs(measure.expected_revenue(dom, mech, dist) - bound) <= 1e-12
    assert verify_mechanism(dom, mech, np.linspace(0.0, 1.0, 200)).ok


# CDFs without a knot inside the support, on either side of two_param's
# kink at 2, where 1/a(r) turns from 1/r to (3 - r)/2: the exact path
# ascends there
EXACT_SMOOTH = {"U[0.1,1]": measure.uniform(0.1, 1.0), "U[0,1]": U01,
                "beta(2,3)": measure.beta(2.0, 3.0),
                "beta(0.5,0.5)": measure.beta(0.5, 0.5),
                "U[0.2,1.9]": measure.uniform(0.2, 1.9),
                "U[2.1,2.9]": measure.uniform(2.1, 2.9)}


@settings(max_examples=200, deadline=None)
@given(name=st.sampled_from(EXACT_FAMILIES),
       dist=st.sampled_from(sorted(EXACT_SMOOTH)),
       levels=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=7),
       ties=st.sets(st.integers(0, 5)))
def test_exact_gradient_matches_central_differences(name, dist, levels, ties):
    # breakpoints at least 0.01 apart and from the ends of the support,
    # some of them tied to the one below.  Moving a tied group together
    # keeps it one breakpoint, so its derivative is the sum of the group's
    # gradients: the lowest carries its block's, the others 0.  Random
    # breakpoints pool often, and a breakpoint inside a block has gradient
    # 0 too.  R is C1 but not C2 where the pooling changes, so the
    # difference is only O(h) there: 4000 examples stayed within 5.4e-9
    form, dist = make_domain(name).family.exact_quantities, EXACT_SMOOTH[dist]
    m, gap, h = len(levels), 1e-2, 1e-6
    width = dist.hi - dist.lo - (m + 1) * gap
    thetas = [dist.lo + gap * (k + 1) + width * v
              for k, v in enumerate(sorted(levels))]
    for k in sorted(ties):
        if k + 1 < m:
            thetas[k + 1] = thetas[k]
    revenue, grad = optimize._exact_gradient(form, dist, thetas)
    assert revenue == optimize._exact_profile(form, dist, thetas)[0]
    assert len(grad) == m
    for value in set(thetas):
        group = [k for k, t in enumerate(thetas) if t == value]
        assert all(grad[k] == 0.0 for k in group[1:])
        up = [t + h if t == value else t for t in thetas]
        down = [t - h if t == value else t for t in thetas]
        diff = (optimize._exact_profile(form, dist, up)[0]
                - optimize._exact_profile(form, dist, down)[0])
        assert abs(diff / (2 * h) - sum(grad[k] for k in group)) <= 1e-7


def test_exact_path_ascends_at_21_bundles():
    # on a smooth CDF the exact path ascends from its first DP instead of
    # zooming; the zoom took 28 rounds here and earned 0x1.a1ec00bfad410p-2,
    # 1 ulp from sqrt(280)/41 (README, "Classical families in payment
    # mode"), in about 0.65 s
    sol = solve_finite(make_domain("income_effect", 0.0, 1.0), U01,
                       OptimizeOptions(max_bundles=21))
    assert "zoom_rounds" not in sol.diagnostics
    assert 0 < sol.diagnostics["ascent_evals"] <= 60
    assert abs(sol.revenue - float.fromhex("0x1.a1ec00bfad410p-2")) <= 1e-12
    assert sol.active_bundles == 21
