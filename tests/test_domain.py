import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.optimize import brentq

from helpers import cubic_domain, same_bits
from scmech.domain import (Bundle, FAMILIES, Ordering, ZERO_BUNDLE,
                           _bisect_special, is_diagonal, make_domain,
                           validate_single_crossing)
from scmech.errors import DomainError, RichnessError
from scmech.mechanism import from_range

QL = make_domain("quasilinear")
IE = make_domain("income_effect")
PP = make_domain("payment_param")
TP = make_domain("two_param")
SQ = make_domain("sqrt_quasilinear")
MY = make_domain("myerson")
RA = make_domain("risk_averse")
PQ = make_domain("power_q")

RICH = [QL, IE, PP, TP, SQ, MY, RA]


# -- canonical payment ---------------------------------------------------------

def test_canonical_quasilinear():
    assert QL.canonical_payment(2.0, Bundle(1.0, 0.5)) == pytest.approx(2.0)


def test_canonical_identity_at_full_quantity():
    for dom in RICH:
        assert dom.canonical_payment(0.9, Bundle(0.7, 1.0)) == pytest.approx(0.7)


def test_canonical_risk_averse_with_utility_oracle():
    # oracle: the payment t' solving sqrt(r - t') = q*sqrt(r - t)
    r, z = 4.0, Bundle(0.0, 0.5)
    oracle = brentq(lambda tp: math.sqrt(r - tp) - z.q * math.sqrt(r - z.t),
                    0.0, r)
    assert oracle == pytest.approx(3.0, abs=1e-12)
    assert RA.canonical_payment(r, z) == pytest.approx(oracle, abs=1e-12)


def test_canonical_income_effect_with_utility_oracle():
    r, z = 3.0, Bundle(0.4, 0.3)
    oracle = brentq(
        lambda tp: (r * 1.0 - tp**2) - (r * math.sqrt(z.q) - z.t**2), 0.0, 10.0)
    assert IE.canonical_payment(r, z) == pytest.approx(oracle, abs=1e-10)


def test_canonical_errors():
    with pytest.raises(DomainError):
        TP.canonical_payment(3.5, Bundle(0.1, 0.5))  # parameter outside (0, 3)
    with pytest.raises(DomainError):
        RA.canonical_payment(1.0, Bundle(1.5, 0.5))  # above the payment bound
    with pytest.raises(DomainError):
        QL.canonical_payment(1.0, Bundle(-0.1, 0.5))
    with pytest.raises(DomainError):
        QL.canonical_payment(1.0, Bundle(0.1, 1.2))


# -- pairwise comparison -------------------------------------------------------

def test_prefers_quasilinear_strict():
    assert QL.prefers(1.0, Bundle(0.5, 0.8), Bundle(0.2, 0.4)) is Ordering.A_STRICT


def test_prefers_same_bundle_indifferent():
    for dom in RICH:
        z = Bundle(0.3, 0.4)
        assert dom.prefers(0.8, z, z) is Ordering.INDIFFERENT


def test_prefers_knife_edge_indifference():
    # 5*0.2 - 1 = 5*0.6 - 3 = 0
    assert QL.prefers(5.0, Bundle(1.0, 0.2), Bundle(3.0, 0.6)) is Ordering.INDIFFERENT


def test_restricted_zero_equivalence():
    for dom in (MY, RA):
        for q in (0.0, 0.3, 0.7, 1.0):
            assert dom.prefers(2.0, ZERO_BUNDLE, Bundle(2.0, q)) is Ordering.INDIFFERENT
        # free disposal of payment at q = 0
        assert dom.prefers(2.0, ZERO_BUNDLE, Bundle(1.2, 0.0)) is Ordering.INDIFFERENT


# -- special preference --------------------------------------------------------

def test_special_quasilinear_slope():
    assert QL.special_preference(Bundle(1, 0.2), Bundle(3, 0.6)) == pytest.approx(5.0)


def test_special_income_effect():
    r = IE.special_preference(Bundle(0, 0), Bundle(2, 1))
    assert r == pytest.approx(4.0)
    assert IE.prefers(r, Bundle(0, 0), Bundle(2, 1)) is Ordering.INDIFFERENT


def test_special_non_diagonal_rejected():
    with pytest.raises(DomainError):
        QL.special_preference(Bundle(1, 0.5), Bundle(1, 0.8))


def test_special_outside_interval_rejected():
    narrow = make_domain("quasilinear", 0.5, 1.5)
    with pytest.raises(RichnessError):
        narrow.special_preference(Bundle(1, 0.2), Bundle(3, 0.6))  # slope 5
    # every power_q preference strictly prefers (0.3, 1) to (0, 0), whose
    # canonical payment is above 0.51 on [1/4, 1/3]: the root is far below
    with pytest.raises(RichnessError):
        PQ.special_preference(ZERO_BUNDLE, Bundle(0.3, 1.0))


def test_special_by_bisection_power_q():
    # payment gap 0.2 lies between the quantity-power gaps at the two ends
    # of the exponent interval, so the indifference parameter is interior
    a, b = Bundle(0.2, 0.4), Bundle(0.4, 0.9)
    r = PQ.special_preference(a, b)
    assert 0.25 < r < 1 / 3
    assert PQ.prefers(r, a, b, tol=1e-8) is Ordering.INDIFFERENT


@settings(max_examples=300, deadline=None)
@given(t=st.lists(st.floats(0.0, 2.0), min_size=2, max_size=2),
       q=st.lists(st.floats(0.0, 1.0), min_size=2, max_size=2))
def test_scalar_bisection_takes_the_array_steps(t, q):
    # one pair of floats bisects on floats, bit for bit as in an array
    za, zb = (min(t), min(q)), (max(t), max(q))
    scalar = _bisect_special(PQ.family, za, zb, PQ.lo, PQ.hi)
    array = _bisect_special(PQ.family, tuple(np.array([x]) for x in za),
                            tuple(np.array([x]) for x in zb), PQ.lo, PQ.hi)
    assert isinstance(scalar, float)
    assert same_bits([scalar], array)


def test_bisection_expands_an_unbounded_interval():
    # on [0, inf) the upper end doubles from 1 until the canonical-payment
    # gap -0.4 + 0.189 r turns positive, then the bisection runs on [0, 4]
    dom = cubic_domain(closed_form=False)
    r = dom.special_preference(Bundle(0.1, 0.3), Bundle(0.5, 0.6))
    assert abs(r - 0.4 / 0.189) <= 1e-9


def test_bisected_breakpoint_at_the_bottom_of_the_interval():
    # the posted price that makes (t, 1) indifferent to (0, 0) at 1/4, with
    # t computed by the family: t + 1 - 1**r does not give t back, so the
    # root lies an ulp outside the interval and is placed on its end
    t = PQ.canonical_payment(0.25, ZERO_BUNDLE)
    assert t == 0.5129898720969176
    mech = from_range(PQ, [ZERO_BUNDLE, Bundle(t, 1.0)])
    assert abs(mech.breakpoints[0] - 0.25) <= 1e-12


def test_a_root_within_round_off_of_the_interval_is_its_end():
    # the canonical-payment gap at 1/4 is 5e-13 > 0, so the root lies just
    # below the interval: within 1e-12 it is placed on the end, beyond it
    # there is none
    t = PQ.canonical_payment(0.25, ZERO_BUNDLE)
    r = PQ.special_preference(ZERO_BUNDLE, Bundle(t - 5e-13, 1.0))
    assert abs(r - 0.25) <= 1e-12
    with pytest.raises(RichnessError):
        PQ.special_preference(ZERO_BUNDLE, Bundle(t - 1e-9, 1.0))


def test_special_two_param_spans_both_branches():
    # low coefficient lands on the first branch, high on the second
    r1 = TP.special_preference(Bundle(0.0, 0.0), Bundle(1.0, 1.0))
    assert 0 < r1 <= 2.0
    r2 = TP.special_preference(Bundle(0.0, 0.25), Bundle(2.0, 1.0))
    assert 2.0 < r2 < 3.0
    for r, pair in ((r1, (Bundle(0, 0), Bundle(1, 1))),
                    (r2, (Bundle(0, 0.25), Bundle(2, 1)))):
        assert TP.prefers(r, *pair) is Ordering.INDIFFERENT


# -- payment bound -------------------------------------------------------------

def test_payment_bound():
    assert RA.payment_bound(3.0) == 3.0
    assert MY.payment_bound(0.7) == 0.7
    assert QL.payment_bound(3.0) is None
    with pytest.raises(DomainError):
        TP.payment_bound(5.0)


# -- family structure ----------------------------------------------------------

def test_two_param_chart_continuous_at_junction():
    z = Bundle(0.4, 0.3)
    below = TP.canonical_payment(2.0 - 1e-9, z)
    above = TP.canonical_payment(2.0 + 1e-9, z)
    assert below == pytest.approx(above, abs=1e-8)


def test_two_param_scores_a_parameter_array_as_each_float():
    # from 3 on the coefficient is infinite for a float and an array alike,
    # so a grid check beyond the interval agrees with one point at a time
    rs = np.array([1.0, 2.5, 2.999, 3.0, 3.5, 10.0])
    ts, qs = np.array([0.0, 0.4, 1.2]), np.array([0.0, 0.3, 1.0])
    rows = TP.canonical_payment_many(rs[:, None], ts, qs)
    for r, row in zip(rs, rows):
        assert same_bits(row, TP.canonical_payment_many(float(r), ts, qs))


def test_power_q_canonical_continuous_at_splice():
    from scmech.domain import POWER_Q_SPLICE

    qs = POWER_Q_SPLICE
    for r in (0.25, 0.3, 1 / 3):
        lo = PQ.canonical_payment(r, Bundle(0.3, qs - 1e-10))
        hi = PQ.canonical_payment(r, Bundle(0.3, qs + 1e-10))
        assert lo == pytest.approx(hi, abs=1e-8)


def test_power_q_rounds_a_float_parameter_as_an_array():
    # below the splice quantity the term POWER_Q_SPLICE**r takes the same
    # bits for a float r and for an array of them, so the grid checks see
    # the canonical payments canonical_payment sees.  With the C library's
    # pow for a float r, 1,568 of these canonical payments differed in the
    # last bit (numpy 2.4.6 on an AVX-512 CPU)
    fam = PQ.family
    rs = np.linspace(0.25, 1 / 3, 100001)
    floats = [PQ.canonical_payment(r, Bundle(0.5, 0.03)) for r in rs.tolist()]
    assert same_bits(fam.canonical(rs, 0.5, 0.03), floats)
    # the curve inverse, the utility and the power piece above the splice
    rs = rs[::50]
    for f in (fam.canonical, fam.curve_payment, fam.utility):
        for q in (0.03, 0.5):
            floats = [f(r, 0.5, q) for r in rs.tolist()]
            assert same_bits(f(rs, 0.5, q), floats)


def test_power_q_term_of_one_bundle_matches_the_array_path():
    # a float (r, q) evaluates only its own piece; each value keeps the
    # bits of the array path's np.where, also at the splice and beside it
    from scmech.domain import POWER_Q_SPLICE, _spliced_power_term as term

    s = POWER_Q_SPLICE
    qs = [0.0, 1.0, s, math.nextafter(s, 0.0), math.nextafter(s, 1.0)]
    rs = [0.25, 0.3, 1 / 3]
    rng = np.random.default_rng(11)
    pairs = [(r, q) for r in rs for q in qs] + list(zip(
        rng.uniform(0.25, 1 / 3, 2000).tolist(),
        rng.uniform(0.0, 1.0, 2000).tolist()))
    floats = [term(r, q) for r, q in pairs]
    assert all(type(v) is float for v in floats)
    r_arr, q_arr = np.array(pairs).T
    assert same_bits(term(r_arr, q_arr), floats)
    for r in rs:  # a float parameter against an array of quantities
        assert same_bits(term(r, np.array(qs)), [term(r, q) for q in qs])


def test_income_effect_payment_increments_shrink():
    # two chords of one preference: the increment needed to move to the
    # higher quantity falls as the starting payment rises
    rng = np.random.default_rng(5)
    for _ in range(50):
        r = float(rng.uniform(0.5, 6.0))
        q_lo, q_hi = np.sort(rng.uniform(0.05, 1.0, 2))
        if q_hi - q_lo < 1e-3:
            continue
        t1, t2 = np.sort(rng.uniform(0.0, 2.0, 2))
        if t2 - t1 < 1e-3:
            continue
        inc1 = float(IE.curve_payment(r, IE.canonical_payment(r, Bundle(t1, q_lo)), q_hi)) - t1
        inc2 = float(IE.curve_payment(r, IE.canonical_payment(r, Bundle(t2, q_lo)), q_hi)) - t2
        assert inc2 < inc1


# -- property tests ------------------------------------------------------------

DOMAIN_NAMES = ["quasilinear", "sqrt_quasilinear", "income_effect",
                "payment_param", "two_param", "myerson", "risk_averse"]


def _admissible(dom, r, t, q):
    return Bundle(min(t, 0.999 * r), q) if dom.restricted else Bundle(t, q)


@settings(max_examples=150, deadline=None)
@given(name=st.sampled_from(DOMAIN_NAMES),
       r=st.floats(0.2, 2.8), t=st.floats(0.0, 3.0), q=st.floats(0.0, 1.0))
def test_canonical_consistency(name, r, t, q):
    dom = make_domain(name)
    z = _admissible(dom, r, t, q)
    tp = dom.canonical_payment(r, z)
    assert dom.prefers(r, Bundle(tp, 1.0), z) is Ordering.INDIFFERENT


@settings(max_examples=150, deadline=None)
@given(name=st.sampled_from(DOMAIN_NAMES),
       t=st.floats(0.05, 1.5), q=st.floats(0.05, 0.95),
       dt=st.floats(0.05, 1.0), dq=st.floats(0.05, 0.9))
def test_order_preserved_around_special_preference(name, t, q, dt, dq):
    dom = make_domain(name)
    a = Bundle(t, q)
    b = Bundle(t + dt, min(q + dq, 1.0))
    if b.q - a.q < 1e-4:
        return
    try:
        r0 = dom.special_preference(a, b)
    except DomainError:
        return
    for r, want in ((0.9 * r0, Ordering.A_STRICT), (1.1 * r0, Ordering.B_STRICT)):
        if not dom.lo <= r <= dom.hi:
            continue
        if dom.restricted and b.t > r:
            continue
        got = dom.prefers(r, a, b)
        if got is not Ordering.INDIFFERENT:  # razor-thin gaps stay within tol
            assert got is want


@settings(max_examples=150, deadline=None)
@given(name=st.sampled_from(DOMAIN_NAMES),
       t=st.floats(0.0, 1.4), q=st.floats(0.0, 0.99))
def test_canonical_strictly_increasing_in_parameter(name, t, q):
    dom = make_domain(name)
    rs = [0.5, 1.0, 1.8, 2.6]
    z = _admissible(dom, min(rs), t, q)
    vals = [dom.canonical_payment(r, z) for r in rs]
    assert all(b > a for a, b in zip(vals, vals[1:]))


@settings(max_examples=300, deadline=None)
@given(name=st.sampled_from(DOMAIN_NAMES + ["power_q"]), u=st.floats(0.0, 1.0),
       t=st.floats(0.0, 3.0), q=st.floats(0.0, 1.0),
       dt=st.floats(0.01, 1.0), dq=st.floats(0.01, 1.0))
def test_closed_forms_agree_with_utility_oracle(name, u, t, q, dt, dq):
    dom = make_domain(name)
    # As w(q) -> 0 on a restricted family, every bundle nears the payment
    # bound in canonical units, where both the utility and the inverse in t
    # are ill-conditioned (slopes 1/sqrt(r - c) and 1/w).
    assume(not (dom.restricted and q < 0.05))
    util = dom.family.utility
    r = dom.lo + (0.02 + 0.96 * u) * (min(dom.hi, 3.0) - dom.lo)
    z = _admissible(dom, r, t, q)
    c = dom.canonical_payment(r, z)
    assert util(r, c, 1.0) == pytest.approx(util(r, z.t, z.q), rel=1e-9, abs=1e-9)
    # a squared payment makes the inverse ill-conditioned near t = 0 (c/t)
    back = float(dom.curve_payment(r, c, z.q))
    assert back == pytest.approx(z.t, rel=1e-9, abs=1e-7)

    a, b = z, Bundle(z.t + dt, min(z.q + dq, 1.0))
    if dom.family.special is None or not is_diagonal(a, b):
        return
    rs = dom.special_preference(a, b)
    assert util(rs, *a) == pytest.approx(util(rs, *b), rel=1e-9, abs=1e-9)


@pytest.mark.parametrize("name", DOMAIN_NAMES)
def test_special_on_arrays_is_special_elementwise(name):
    # the solver's chain DP takes the indifference parameters of all its
    # grid pairs in one call; pairs from the anchor and to q = 1 included
    fam = make_domain(name).family
    rng = np.random.default_rng(4)
    ta, qa = rng.uniform(0.0, 2.0, 500), rng.uniform(0.0, 0.95, 500)
    ta[:50] = qa[:50] = 0.0
    tb = ta + rng.uniform(1e-3, 1.0, 500)
    qb = qa + (1.0 - qa) * rng.uniform(1e-3, 1.0, 500)
    qb[-50:] = 1.0
    many = fam.special((ta, qa), (tb, qb))
    one = [fam.special((a, b), (c, d)) for a, b, c, d in zip(ta, qa, tb, qb)]
    assert same_bits(many, one)
    if name == "two_param":  # both branches of the coefficient's inverse
        assert many.min() < 2.0 < many.max()


@pytest.mark.parametrize("name", ["income_effect", "payment_param",
                                  "two_param"])
def test_scalar_curve_payment_is_the_array_one(name):
    # the p = 2 curve payment takes a float path on scalars, around
    # np.errstate; it keeps the bits of the array path on 10k points with
    # the ends of r, c and q, a NaN and curves that leave the bundle space
    fam = make_domain(name).family
    rng = np.random.default_rng(6)
    r = rng.uniform(0.0, 3.0, 10_000)
    c = rng.uniform(-0.5, 2.5, 10_000)
    q = rng.uniform(0.0, 1.0, 10_000)
    r[:4], c[4:8], q[8:12] = (0.0, 3.0, 2.0, np.nan), (0.0, -0.0, 3.0, np.nan), \
        (0.0, 1.0, 1e-300, np.nan)
    many = fam.curve_payment(r, c, q)
    one = [fam.curve_payment(float(a), float(b), float(d))
           for a, b, d in zip(r, c, q)]
    assert np.isnan(many).any() and not np.isnan(many).all()
    assert same_bits(many, one)


# -- single-crossing validation ------------------------------------------------

ANCHORS = [Bundle(t, q) for t in (0.25, 0.8, 1.4) for q in (0.2, 0.5, 0.85)]


def test_validator_passes_quasilinear():
    report = validate_single_crossing(QL, ANCHORS, np.linspace(0.4, 4.0, 10))
    assert report.ok


def test_validator_passes_income_effect():
    report = validate_single_crossing(IE, ANCHORS, np.linspace(0.4, 4.0, 10))
    assert report.ok


def test_validator_single_preference_trivially_ok():
    report = validate_single_crossing(QL, ANCHORS, [1.0])
    assert report.ok and report.n_params == 1


def test_validator_flags_power_q_raw_tangency():
    raw = make_domain("power_q_raw", 0.05, 0.95)
    anchors = [Bundle(1.0, 0.125), Bundle(1.0, 0.5), Bundle(0.5, 0.3)]
    report = validate_single_crossing(raw, anchors, [1 / 3, 2 / 3],
                                      q_grid=np.linspace(1e-3, 1.0, 401))
    assert not report.ok
    tangent = [w for w in report.tangency_witnesses
               if abs(w.location.t - 1.0) < 0.05 and abs(w.location.q - 0.125) < 0.05]
    assert tangent, "tangency near (1, 1/8) not reported"


def test_validator_passes_spliced_power_q_above_splice():
    from scmech.domain import POWER_Q_SPLICE

    anchors = [Bundle(t, q) for t in (0.2, 0.6, 1.0)
               for q in (POWER_Q_SPLICE + 0.01, 0.3, 0.7, 0.95)]
    report = validate_single_crossing(
        PQ, anchors, np.linspace(0.25, 1 / 3, 7),
        q_grid=np.linspace(POWER_Q_SPLICE, 1.0, 301))
    assert report.ok


def test_validator_empty_grid_rejected():
    with pytest.raises(DomainError):
        validate_single_crossing(QL, [], [1.0, 2.0])


@pytest.mark.parametrize("params, bad", [([3.0, 4.0], "3.0"),
                                         ([1 / 3, math.nan], "nan")],
                         ids=["outside", "nan"])
def test_validator_rejects_a_parameter_it_cannot_check(params, bad):
    # a parameter outside the domain interval is an error, not a pair that
    # passes unchecked
    raw = make_domain("power_q_raw", 0.05, 0.95)
    with pytest.raises(DomainError, match=f"parameter {bad} outside"):
        validate_single_crossing(raw, [Bundle(1.0, 0.125), Bundle(1.0, 0.5)],
                                 params)


def test_validator_skips_an_anchor_a_restricted_type_cannot_afford():
    # (2, 0.5) is out of reach of the types 0.5 and 1, so only the pairs
    # with 3.0 compare curves through it
    report = validate_single_crossing(make_domain("myerson"),
                                      [Bundle(2.0, 0.5), Bundle(0.2, 0.5)],
                                      [0.5, 1.0, 3.0])
    assert report.ok and report.n_params == 3


# -- registry extension point ----------------------------------------------------

def test_registering_a_new_family_plugs_into_everything():
    from scmech.domain import register_family
    from scmech.verify import check_strategy_proof

    dom = cubic_domain()
    assert dom.canonical_payment(2.0, Bundle(0.5, 1.0)) == pytest.approx(0.5)
    mech = from_range(dom, [ZERO_BUNDLE, Bundle(0.1, 0.6), Bundle(1.0, 1.0)])
    grid = np.linspace(0.2, 3.0, 150)
    assert check_strategy_proof(dom, mech.evaluate, grid).ok
    report = validate_single_crossing(
        dom, [Bundle(0.4, 0.5)], [0.7, 1.3, 2.1])
    assert report.ok
    with pytest.raises(ValueError):
        register_family(FAMILIES[dom.family.name])  # duplicate names are rejected
