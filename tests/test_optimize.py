import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import FACTORY_FAMILIES
from scmech import measure, optimize
from scmech.domain import Bundle, ZERO_BUNDLE, make_domain
from scmech.errors import DomainError
from scmech.mechanism import from_range
from scmech.optimize import (OptimizeOptions, payments_from_breakpoints,
                             solve_finite, stationarity_residuals)
from scmech.verify import verify_mechanism

QL = make_domain("quasilinear", 0.0, 1.0)
MY = make_domain("myerson", 0.0, 1.0)
U01 = measure.uniform(0.0, 1.0)
# bimodal and not MHR; theta (1 - F) peaks at the kink 0.8
KINKED = measure.from_table([[0, 0], [0.25, 0.05], [0.35, 0.6], [0.8, 0.65],
                             [1, 1]])


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


def test_solver_is_seed_deterministic():
    a = solve_finite(QL, U01, OptimizeOptions(max_bundles=3, seed=12))
    b = solve_finite(QL, U01, OptimizeOptions(max_bundles=3, seed=12))
    assert a.mechanism.to_dict() == b.mechanism.to_dict()
    assert a.revenue == b.revenue


@pytest.fixture
def payment_calls(monkeypatch):
    # the objective reaches payments through the module global, so this
    # counts every profile evaluation of a solve
    calls = []
    inner = optimize.payments_from_breakpoints

    def counted(*args):
        calls.append(args)
        return inner(*args)

    monkeypatch.setattr(optimize, "payments_from_breakpoints", counted)
    return calls


def test_solve_evaluation_budget(payment_calls):
    solve_finite(QL, U01, OptimizeOptions(max_bundles=4, seed=11))
    assert len(payment_calls) <= 8000


def test_sweep_evaluation_budget(payment_calls):
    # risk_averse in expected payments takes the sweep; each coordinate
    # search evaluates only the interval ends beyond Brent's own points
    dom = make_domain("risk_averse", 0.0, 1.0)
    solve_finite(dom, measure.uniform(0.1, 1.0),
                 OptimizeOptions(max_bundles=3, seed=11),
                 mode="expected_payment")
    assert len(payment_calls) <= 13800


@pytest.mark.parametrize("name", ["quasilinear", "income_effect"])
def test_unknown_revenue_mode_is_domain_error(name, payment_calls):
    with pytest.raises(DomainError, match="revenue mode"):
        solve_finite(make_domain(name, 0.0, 1.0), U01, mode="bid")
    assert payment_calls == []


def test_solver_rejects_mismatched_support():
    with pytest.raises(DomainError):
        solve_finite(QL, measure.uniform(0.0, 2.0), OptimizeOptions())


def test_options_validation():
    with pytest.raises(DomainError):
        OptimizeOptions(max_bundles=1)


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
    # the posted-price path is taken only in a family's separable mode;
    # income_effect takes the exact path in payments, the sweep otherwise
    dom = make_domain("income_effect", 0, 1)
    assert dom.family.separable_mode is None
    sol = solve_finite(dom, U01, OptimizeOptions(restarts=1))
    assert sol.diagnostics["method"] == "exact_quantities"
    sol = solve_finite(dom, U01, OptimizeOptions(restarts=1),
                       mode="expected_payment")
    assert sol.diagnostics["method"] == "sweep"
    sol = solve_finite(QL, U01, OptimizeOptions(restarts=1),
                       mode="expected_payment")
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


def test_randomization_helps_the_risk_averse_model():
    # deterministic benchmark: expected payment p*(1 - (p-0.1)/0.9)
    # maximized at p = 0.5 gives 0.2778
    dom = make_domain("risk_averse", 0.0, 1.0)
    sol = solve_finite(dom, measure.uniform(0.1, 1.0),
                       OptimizeOptions(max_bundles=3, seed=0),
                       mode="expected_payment")
    assert sol.revenue > 0.25 / 0.9 + 0.005
    assert sol.active_bundles == 3


@pytest.mark.parametrize("restarts", [0, -2])
def test_restarts_below_one_rejected(restarts):
    with pytest.raises(DomainError):
        OptimizeOptions(restarts=restarts)


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
    # profile beats the best posted price, on any F
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


def test_restricted_payment_at_a_tiny_weight_is_infeasible():
    # with w(q) = q**2 near 1e-16, r*(1 - w) + w*t loses w*(r - t) to the
    # ulp of r, and the round trip returns t = 0.6, indifferent to the
    # bundle below at theta 0.857 rather than 0.6
    with pytest.raises(DomainError, match="not pinned"):
        payments_from_breakpoints(make_domain("risk_averse", 0.0, 1.0),
                                  [0.4, 0.6], [1.2e-8, 1.6e-8])


@pytest.mark.parametrize("seed", [0, 1, 10])
def test_restricted_payment_mode_five_bundles(seed):
    # these seeds once ended in a range from_range rejects, built from
    # payments pinned at a tiny weight; the supremum with m breakpoints on
    # U[0.1, 1] is m / (2 (m + 1) 0.9): 0.4167 at m = 3, 0.4444 at m = 4
    dom = make_domain("risk_averse", 0.0, 1.0)
    sol = solve_finite(dom, measure.uniform(0.1, 1.0),
                       OptimizeOptions(max_bundles=5, seed=seed))
    assert 3.0 / 8.0 / 0.9 < sol.revenue <= 0.4 / 0.9
    assert verify_mechanism(dom, sol.mechanism,
                            np.linspace(0.1, 1.0, 200)).ok


PROFILE_DISTS = {"uniform": U01, "beta": measure.beta(2.0, 3.0),
                 "table": KINKED}


def _reference_payments(dom, thetas, qs):
    # the binding indifferences through the domain's checked wrappers
    prev, pays = ZERO_BUNDLE, []
    for r, q in zip(thetas, qs):
        t = prev.t
        if q > prev.q + (1e-15 if dom.restricted else 0.0):
            c = float(dom.canonical_payment_many(r, prev.t, prev.q))
            t = max(float(dom.curve_payment(r, c, q)), prev.t)
            bound = dom.payment_bound(r)
            t = t if bound is None else min(t, bound)
        prev = Bundle(t, float(q))
        pays.append(t)
    return pays


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
    # the objective (one CDF call, payments from the family's closed forms)
    # agrees bit for bit with payments through the domain's checked
    # wrappers, summed segment by segment with dist.mass
    dom, dist = make_domain(name, 0.0, 1.0), PROFILE_DISTS[dist]
    thetas, qs = profile
    rev = optimize._profile_revenue(dom, dist, mode, thetas, qs)
    try:
        pays = payments_from_breakpoints(dom, thetas, qs)
    except DomainError:
        assert rev == optimize._INFEASIBLE
        return
    assert [float(t).hex() for t in pays] == \
        [t.hex() for t in _reference_payments(dom, thetas, qs)]
    ref = _reference_revenue(dom, dist, mode, pays, thetas, qs)
    assert float(rev).hex() == float(ref).hex()


EXACT_FAMILIES = ["income_effect", "payment_param", "two_param"]


@pytest.mark.parametrize("m", [2, 3, 4])
@pytest.mark.parametrize("lo", [0.0, 0.1])
def test_exact_path_pins_income_effect_on_uniform(m, lo):
    # with a(r) = r and F uniform on [lo, 1], R(theta)**2 is
    # sum_k (theta_k+1 - theta_k) theta_k theta_k+1 / (1 - lo)**2, with
    # theta_m+1 = 1 in the last factor and 1 - theta_m in the first; it is
    # stationary at theta_k = k/(2m+1), where it equals
    # 2m(m+1) / (3 (2m+1)**2 (1 - lo)**2), when lo <= 1/(2m+1)
    dom = make_domain("income_effect", 0.0, 1.0)
    dist = measure.uniform(lo, 1.0)
    exact = np.sqrt(2 * m * (m + 1) / 3) / ((2 * m + 1) * (1 - lo))
    thetas = np.arange(1, m + 1) / (2 * m + 1)
    assert abs(optimize._exact_profile(dom.family.exact_quantities, dist,
                                       thetas)[0] - exact) <= 1e-15
    sol = solve_finite(dom, dist, OptimizeOptions(max_bundles=m + 1))
    assert sol.diagnostics["method"] == "exact_quantities"
    assert abs(sol.revenue - exact) <= 1e-12
    assert sol.active_bundles == m + 1
    assert sol.mechanism.breakpoints == pytest.approx(thetas, abs=1e-7)


@pytest.mark.parametrize("dist", sorted(PROFILE_DISTS))
def test_exact_path_revenue_depends_only_on_a(dist):
    # R(theta) is built from a and F alone, and a(r) = r on [0, 1] for all
    # three families, so they earn the same
    dist = PROFILE_DISTS[dist]
    revs = [solve_finite(make_domain(name, 0.0, 1.0), dist,
                         OptimizeOptions(max_bundles=4)).revenue
            for name in EXACT_FAMILIES]
    assert max(revs) - min(revs) <= 1e-12


def test_exact_path_ignores_the_seed():
    dom = make_domain("two_param", 0.0, 1.0)
    a, b = (solve_finite(dom, KINKED, OptimizeOptions(max_bundles=4, seed=s))
            for s in (1, 2))
    assert a.mechanism.to_dict() == b.mechanism.to_dict()
    assert a.revenue == b.revenue
    assert a.diagnostics == b.diagnostics
    assert "seed" not in a.diagnostics
    assert a.diagnostics["restarts_used"] == 0
    assert a.diagnostics["dp_revenue"] <= a.revenue + 1e-12
    assert a.diagnostics["dp_grid"] >= optimize.DP_GRID


def test_exact_path_puts_a_breakpoint_on_a_kink():
    sol = solve_finite(make_domain("income_effect", 0.0, 1.0), KINKED,
                       OptimizeOptions(max_bundles=4))
    assert sol.revenue >= 0.47860771
    assert min(abs(b - 0.8) for b in sol.mechanism.breakpoints) <= 1e-12


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
