import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import (FACTORY_FAMILIES, grid_around, random_feasible_range,
                     reference_countable_evaluate, reference_evaluate,
                     same_bits)
from scmech import measure, serialize
from scmech.domain import Bundle, Ordering, ZERO_BUNDLE, make_domain
from scmech.errors import DomainError, InfeasibleRangeError, TractabilityError
from scmech.mechanism import (AnchorLine, CountableMechanism, FiniteMechanism,
                              TailRule, _search_best_on_line, constant_sequence,
                              countable_geometric, epsilon_truncate, from_range,
                              harmonic_sequence)
from scmech.verify import verify_mechanism

QL = make_domain("quasilinear")
SQ = make_domain("sqrt_quasilinear")

# Example-7 geometry: best bundle on the line q = 3t under r*sqrt(q) - t,
# parameters 2/3 - 1/n rising to 2/3.
LINE = AnchorLine(3.0, 1 / 12, 1 / 3)
SEQ = harmonic_sequence(2 / 3, 1.0, start=3)
UNIF = measure.uniform(0.2, 1.0)


@pytest.fixture(scope="module")
def example7():
    return countable_geometric(SQ, LINE, SEQ)


# -- finite construction -------------------------------------------------------

def test_from_range_breakpoints():
    mech = from_range(QL, [ZERO_BUNDLE, Bundle(1, 0.5), Bundle(3, 1)])
    assert mech.breakpoints == pytest.approx((2.0, 4.0))


def test_singleton_range_has_no_breakpoints():
    mech = from_range(QL, [Bundle(0.4, 0.3)])
    assert mech.breakpoints == ()
    assert mech.evaluate(1.7) == Bundle(0.4, 0.3)


def test_three_bundle_case_rule():
    low, mid, high = ZERO_BUNDLE, Bundle(1, 0.5), Bundle(3, 1)
    mech = from_range(QL, [low, mid, high])
    r1, r2 = mech.breakpoints
    assert mech.evaluate(0.5 * r1) == low
    assert mech.evaluate(0.5 * (r1 + r2)) == mid
    assert mech.evaluate(r2 + 1.0) == high


def test_breakpoint_tie_goes_to_higher_bundle():
    mech = from_range(QL, [ZERO_BUNDLE, Bundle(1, 0.5), Bundle(3, 1)])
    assert mech.evaluate(2.0) == Bundle(1, 0.5)
    assert mech.evaluate(4.0) == Bundle(3, 1)
    # both neighbors are genuinely indifferent there
    assert QL.prefers(2.0, ZERO_BUNDLE, Bundle(1, 0.5)) is Ordering.INDIFFERENT


def test_evaluate_outside_interval_rejected():
    dom = make_domain("quasilinear", 0.5, 6.0)
    mech = from_range(dom, [ZERO_BUNDLE, Bundle(1, 0.5)])
    with pytest.raises(DomainError):
        mech.evaluate(0.2)


def assert_evaluate_many_matches(mech, rs):
    """evaluate_many equals evaluate at each type, and the breakpoint scan
    of the reference, bit for bit."""
    ts, qs = mech.evaluate_many(rs)
    one_by_one = [mech.evaluate(r) for r in rs]
    assert same_bits(ts, [z.t for z in one_by_one])
    assert same_bits(qs, [z.q for z in one_by_one])
    assert one_by_one == [reference_evaluate(mech, r) for r in rs]


def test_evaluate_many_on_decreasing_breakpoints():
    # the teaser mechanism, and breakpoints that fall: a type gets the
    # bundle after the leading breakpoints at or below it, so the types
    # between 0.5 and 2.0 get the first bundle
    dom = make_domain("quasilinear", 0.5, 3.0)
    teaser = FiniteMechanism(
        dom, (Bundle(1.0, 1.0), ZERO_BUNDLE, Bundle(2.0, 1.0)), (1.0, 2.0))
    falling = FiniteMechanism(
        dom, (Bundle(0.2, 0.2), Bundle(1.0, 0.6), Bundle(1.2, 1.0)), (2.0, 0.5))
    rs = np.linspace(0.5, 3.0, 51)
    for mech in (teaser, falling):
        assert_evaluate_many_matches(mech, rs)
    assert falling.evaluate(1.0) == Bundle(0.2, 0.2)
    assert falling.evaluate(2.0) == Bundle(1.2, 1.0)


def test_evaluate_many_at_breakpoints_and_domain_ends():
    dom = make_domain("quasilinear", 0.5, 6.0)
    mech = from_range(dom, [ZERO_BUNDLE, Bundle(1, 0.5), Bundle(3, 1)])
    rs = [0.5, *mech.breakpoints, 3.0, 6.0, 2.0, 0.5]
    assert_evaluate_many_matches(mech, rs)
    ts, _ = mech.evaluate_many(mech.breakpoints)
    assert ts.tolist() == [1.0, 3.0]  # the tie goes to the higher bundle
    # a repeated breakpoint skips the bundle between its two copies
    twice = FiniteMechanism(
        dom, (ZERO_BUNDLE, Bundle(1, 0.5), Bundle(3, 1)), (2.0, 2.0))
    assert_evaluate_many_matches(twice, [0.5, 1.9, 2.0, 2.1, 6.0])
    assert twice.evaluate_many([1.9, 2.0])[0].tolist() == [0.0, 3.0]
    # and a mechanism with one bundle has no breakpoint
    single = from_range(dom, [Bundle(0.4, 0.3)])
    assert_evaluate_many_matches(single, [0.5, 6.0])
    assert [a.shape for a in mech.evaluate_many([])] == [(0,), (0,)]


@pytest.mark.parametrize("bad", [0.2, 6.5, math.nan, math.inf])
def test_evaluate_many_rejects_what_evaluate_rejects(bad):
    dom = make_domain("quasilinear", 0.5, 6.0)
    mech = from_range(dom, [ZERO_BUNDLE, Bundle(1, 0.5)])
    with pytest.raises(DomainError) as one:
        mech.evaluate(bad)
    with pytest.raises(DomainError) as many:
        mech.evaluate_many([1.0, bad, 0.1])  # the first bad type is named
    assert str(many.value) == str(one.value)


def test_non_diagonal_range_rejected():
    with pytest.raises(DomainError):
        from_range(QL, [Bundle(1, 0.5), Bundle(1, 0.8)])


def test_unsupportable_range_reports_offending_triple():
    # middle bundle is dominated: its entry breakpoint exceeds its exit one
    with pytest.raises(InfeasibleRangeError) as err:
        from_range(QL, [ZERO_BUNDLE, Bundle(1.0, 0.9), Bundle(1.05, 1.0)])
    assert "0.9" in str(err.value)


def test_restricted_range_must_start_at_zero():
    ra = make_domain("risk_averse")
    with pytest.raises(DomainError):
        from_range(ra, [Bundle(1.0, 0.5), Bundle(2.0, 1.0)])


def test_restricted_range_without_zero_allowed_when_bound_exceeds_it():
    ra = make_domain("risk_averse", 5.0, 50.0)
    mech = from_range(ra, [Bundle(4.8, 0.5), Bundle(5.2, 1.0)])
    assert mech.evaluate(5.0) == Bundle(4.8, 0.5)


def test_restricted_construction_yields_affordable_allocations():
    ra = make_domain("risk_averse")
    mech = from_range(ra, [ZERO_BUNDLE, Bundle(1.0, 0.4), Bundle(3.0, 0.9)])
    for r in grid_around(mech, 50):
        z = mech.evaluate(r)
        assert z.t <= r + 1e-9


def test_monotone_evaluation_and_breakpoint_indifference():
    rng = np.random.default_rng(42)
    for name in ("quasilinear", "income_effect", "two_param", "risk_averse"):
        dom = make_domain(name) if name != "two_param" else make_domain(name)
        mech = random_feasible_range(dom, rng, t_hi=1.2 if name == "two_param" else 2.5)
        grid = grid_around(mech, 120)
        prev = None
        for r in grid:
            z = mech.evaluate(r)
            if prev is not None:
                assert z.t >= prev.t - 1e-12 and z.q >= prev.q - 1e-12
            prev = z
        assert mech.is_well_formed()


def test_well_formed_is_the_shape_verdict():
    # a breakpoint at 1 cannot afford (2, 0.5): check_shape reports an
    # infinite CONT gap there, and the range is not well formed
    my = make_domain("myerson")
    mech = FiniteMechanism(my, (ZERO_BUNDLE, Bundle(2.0, 0.5)), (1.0,))
    assert not mech.is_well_formed()
    # breakpoints that fall fail within 1e-12, as in from_range, whatever
    # the indifference tolerance
    mech = from_range(QL, [ZERO_BUNDLE, Bundle(1.0, 0.5), Bundle(3.0, 1.0)])
    assert not FiniteMechanism(QL, mech.bundles,
                               mech.breakpoints[::-1]).is_well_formed(tol=10.0)


# -- serialization -------------------------------------------------------------

def test_mechanism_json_round_trip_is_bit_exact():
    mech = from_range(QL, [ZERO_BUNDLE, Bundle(1 / 3, 0.7123456789012345),
                           Bundle(0.9876543210987654, 0.9)])
    text = serialize.dumps(mech.to_dict())
    back = FiniteMechanism.from_dict(json.loads(text))
    assert back.bundles == mech.bundles
    assert back.breakpoints == mech.breakpoints
    assert serialize.dumps(back.to_dict()) == text


# -- countable ranges ----------------------------------------------------------

def test_example7_first_bundle_and_limit(example7):
    assert example7.increasing.bundle(3).t == pytest.approx(1 / 12, abs=1e-8)
    assert example7.increasing.bundle(3).q == pytest.approx(1 / 4, abs=1e-7)
    assert example7.limit_bundle.t == pytest.approx(1 / 3, abs=1e-7)
    assert example7.limit_bundle.q == pytest.approx(1.0, abs=1e-7)


def test_example7_evaluation(example7):
    assert example7.evaluate(1 / 3) == example7.increasing.bundle(3)
    assert example7.evaluate(0.7) == example7.limit_bundle
    assert example7.evaluate(0.9) == example7.limit_bundle
    # breakpoints interleave midway between consecutive parameters here
    assert example7.inc_breakpoint(4) == pytest.approx(
        0.5 * ((2 / 3 - 1 / 3) + (2 / 3 - 1 / 4)), abs=1e-7)


def test_countable_revenue_matches_series_oracle(example7):
    # independent closed-form staircase sum, frozen
    assert measure.expected_revenue(SQ, example7, UNIF) == pytest.approx(
        0.2339159790, abs=2e-6)


def test_constant_sequence_degenerates():
    cm = countable_geometric(SQ, LINE, constant_sequence(0.5))
    want = cm.limit_bundle
    for r in (0.3, 0.5, 0.9):
        assert cm.evaluate(r) == want
    assert cm.increasing is None and cm.decreasing is None


def test_nonmonotone_sequence_rejected():
    from scmech.mechanism import ParamSequence

    wobble = ParamSequence(lambda n: 0.5 + (-0.1) ** n, 0.5, 3)
    with pytest.raises(DomainError):
        countable_geometric(SQ, LINE, wobble)


def test_epsilon_truncate_gap_within_eps(example7):
    e_full = measure.expected_revenue(SQ, example7, UNIF)
    prev_dist = None
    for eps in (0.1, 0.05, 0.025):
        finite = epsilon_truncate(example7, eps, UNIF)
        e_fin = measure.expected_revenue(SQ, finite, UNIF)
        assert abs(e_full - e_fin) <= eps
        # distance shrinks as the cut moves deeper into the tail
        dist = abs(e_full - e_fin)
        if prev_dist is not None:
            assert dist <= prev_dist + 1e-12
        prev_dist = dist
        assert finite.is_well_formed(tol=1e-6)


def test_epsilon_truncate_frozen_values(example7):
    # oracle values from the closed-form staircase (exact midpoint
    # breakpoints t_n = 3/4 (2/3 - 1/n)^2)
    finite = epsilon_truncate(example7, 0.1, UNIF)
    assert len(finite.bundles) == 8  # z_3..z_9 plus the limit bundle
    assert measure.expected_revenue(SQ, finite, UNIF) == pytest.approx(
        0.234129789, abs=2e-6)


def test_epsilon_truncate_huge_eps_gives_skeleton(example7):
    finite = epsilon_truncate(example7, 10.0, UNIF)
    assert len(finite.bundles) == 2
    assert finite.bundles[0].t == pytest.approx(1 / 12, abs=1e-7)
    assert finite.bundles[1] == example7.limit_bundle


def test_epsilon_truncate_rejects_nonpositive_eps(example7):
    with pytest.raises(DomainError):
        epsilon_truncate(example7, 0.0, UNIF)


@pytest.mark.parametrize("eps", [math.inf, math.nan])
def test_epsilon_truncate_rejects_non_finite_eps(example7, eps):
    with pytest.raises(DomainError):
        epsilon_truncate(example7, eps, UNIF)


def test_epsilon_truncate_stops_at_the_tails_resolution(example7):
    # the switching parameters first fall at tail index 10,648, by round-off;
    # eps = 1e-5 would cut at 81,125
    assert len(epsilon_truncate(example7, 1e-4, UNIF).bundles) == 8333
    with pytest.raises(TractabilityError, match="numerical resolution"):
        epsilon_truncate(example7, 1e-5, UNIF)


# -- two-sided countable mechanism ----------------------------------------------

def _two_sided():
    # staircase on the curve t = 0.78125 q^2 through (0.5, 0.8); slopes
    # increase along it, so adjacent special preferences are ordered
    def rising(n):
        q = 0.8 - 1.0 / n
        return Bundle(0.78125 * q * q, q)

    def falling(k):
        q = 0.8 + 1.0 / k
        return Bundle(0.78125 * q * q, q)

    limit = Bundle(0.78125 * 0.64, 0.8)
    r_limit = 1.5625 * 0.8  # local slope of the curve at the limit bundle
    return CountableMechanism(
        QL, limit,
        increasing=TailRule(rising, start=3),
        decreasing=TailRule(falling, start=6),
        limit_lo=r_limit, limit_hi=r_limit,
    )


def test_two_sided_evaluation_is_monotone():
    cm = _two_sided()
    grid = np.linspace(0.3, 2.5, 300)
    prev = None
    for r in grid:
        z = cm.evaluate(r)
        if prev is not None:
            assert z.t >= prev.t - 1e-12 and z.q >= prev.q - 1e-12
        prev = z


def test_two_sided_truncation_cuts_both_tails():
    cm = _two_sided()
    dist = measure.uniform(0.3, 2.5)
    e_full = measure.expected_revenue(QL, cm, dist)
    for eps in (0.2, 0.05):
        finite = epsilon_truncate(cm, eps, dist)
        assert finite.is_well_formed(tol=1e-9)
        qs = [z.q for z in finite.bundles]
        assert min(qs) < 0.8 < max(qs)  # kept bundles from both sides
        e_fin = measure.expected_revenue(QL, finite, dist)
        assert abs(e_full - e_fin) <= eps


@pytest.mark.parametrize("kwargs", [
    {"limit_lo": 0.5},
    {"limit_hi": 0.5},
    {"decreasing": TailRule(lambda k: Bundle(0.1 + 1 / k, 0.3 + 1 / k), 3),
     "limit_lo": 0.5, "limit_hi": 0.5},
], ids=["lo-alone", "hi-alone", "lo-without-its-tail"])
def test_limit_edge_needs_its_tail(kwargs):
    with pytest.raises(DomainError):
        CountableMechanism(QL, Bundle(0.1, 0.3), **kwargs)


# -- decreasing tail -----------------------------------------------------------

def test_decreasing_tail_geometric():
    # best bundle on q = t under r*sqrt(q) - t is t = r^2/4; parameters
    # 0.5 + 1/n fall to 0.5, so the staircase descends to (1/16, 1/16)
    dom = make_domain("sqrt_quasilinear", 0.26, 1.0)
    dist = measure.uniform(0.26, 1.0)
    cm = countable_geometric(dom, AnchorLine(1.0, 0.01, 0.9),
                             harmonic_sequence(0.5, -1.0, 3))
    assert cm.increasing is None and cm.limit_hi == 0.5
    assert cm.limit_bundle.t == pytest.approx(1 / 16, abs=1e-7)
    assert cm.limit_bundle.q == pytest.approx(1 / 16, abs=1e-7)
    for k in (3, 4, 10, 50):
        assert cm.decreasing.bundle(k).t == pytest.approx(
            (0.5 + 1 / k) ** 2 / 4, abs=1e-7)
    prev = None
    # nearest point above the limit is 0.5042, about 240 bundles deep
    for r in np.linspace(0.26, 1.0, 101):
        z = cm.evaluate(r)
        if prev is not None:
            assert z.t >= prev.t - 1e-12 and z.q >= prev.q - 1e-12
        prev = z
    e_full = measure.expected_revenue(dom, cm, dist)
    for eps in (0.1, 0.01):
        finite = epsilon_truncate(cm, eps, dist)
        assert abs(e_full - measure.expected_revenue(dom, finite, dist)) <= eps
        assert finite.is_well_formed()
        assert verify_mechanism(dom, finite, np.linspace(0.26, 1.0, 200)).ok


def test_truncation_of_tail_clamped_at_line_end():
    # example 7 with the line ending at t = 0.3: the best bundles reach the
    # line's end (0.3, 0.9) before the limit parameter, so the tail repeats
    # the limit bundle and is finite
    line = AnchorLine(3.0, 1 / 12, 0.3)
    cm = countable_geometric(SQ, line, SEQ)
    assert cm.limit_bundle == line.bundle(0.3)
    e_full = measure.expected_revenue(SQ, cm, UNIF)
    for eps in (0.1, 0.01, 0.001):
        finite = epsilon_truncate(cm, eps, UNIF)
        assert abs(e_full - measure.expected_revenue(SQ, finite, UNIF)) <= eps
        assert finite.is_well_formed()
        assert verify_mechanism(SQ, finite, np.linspace(0.2, 1.0, 200)).ok


@pytest.mark.parametrize("side, eps, tol, index", [
    ("rising", 1e-5, 1e-8, 10648),
    ("falling", 1e-4, 1e-9, 12351),
])
def test_truncation_and_revenue_stop_at_the_tails_resolution(side, eps, tol,
                                                              index):
    # example 7's rising tail and the falling tail above: truncation and
    # revenue walk a tail alike, so both name the first falling switch
    if side == "rising":
        cm, dist = countable_geometric(SQ, LINE, SEQ), UNIF
    else:
        dom = make_domain("sqrt_quasilinear", 0.26, 1.0)
        cm = countable_geometric(dom, AnchorLine(1.0, 0.01, 0.9),
                                 harmonic_sequence(0.5, -1.0, 3))
        dist = measure.uniform(0.26, 1.0)
    reason = f"its switching parameters fall at tail index {index}"
    with pytest.raises(TractabilityError) as info:
        epsilon_truncate(cm, eps, dist)
    assert str(info.value) == (
        f"eps={eps} is below the tail's numerical resolution: {reason}")
    with pytest.raises(TractabilityError) as info:
        list(cm.revenue_segments(dist, tol=tol))
    assert str(info.value) == reason


def test_truncation_and_revenue_stop_at_a_switch_that_fails():
    # bundle 5 costs less than bundle 4 and gives more, so no preference
    # makes the two indifferent
    def rising(n):
        q = 0.8 - 1.0 / n
        return Bundle(0.0 if n == 5 else 0.78125 * q * q, q)

    cm = CountableMechanism(QL, Bundle(0.5, 0.8),
                            increasing=TailRule(rising, start=3), limit_lo=1.25)
    dist = measure.uniform(0.3, 2.5)
    # a malformed tail, not a limit of the tail's resolution
    reason = "malformed tail at index 5: its payment falls below index 4's"
    with pytest.raises(DomainError) as info:
        epsilon_truncate(cm, 1e-3, dist)
    assert str(info.value) == reason
    with pytest.raises(DomainError) as info:
        list(cm.revenue_segments(dist))
    assert str(info.value) == reason
    # the same above the limit, where bundle 5's payment rises
    def falling(n):
        return Bundle(0.9 if n == 5 else 0.5 + 0.2 / n, 0.8 + 0.1 / n)

    above = CountableMechanism(QL, Bundle(0.5, 0.8),
                               decreasing=TailRule(falling, start=3),
                               limit_hi=1.25)
    with pytest.raises(DomainError) as info:
        list(above.revenue_segments(dist))
    assert str(info.value) == ("malformed tail at index 5: its payment "
                               "rises above index 4's")
    # a quantity that only stalls leaves the switch to fail, a limit of
    # resolution
    def stalling(n):
        return Bundle(0.5 + 0.2 / n, 1.0)

    above = CountableMechanism(QL, Bundle(0.5, 0.8),
                               decreasing=TailRule(stalling, start=3),
                               limit_hi=1.25)
    with pytest.raises(TractabilityError, match="^its switching parameter "
                       "at tail index 3 fails: bundles must satisfy a < b"):
        list(above.revenue_segments(dist))


def _stalled_tail(n):
    # rises to (0.2304, 0.48) at index 5 and repeats it, short of the limit
    q = 0.6 - 0.6 / min(n, 5)
    return Bundle(q * q, q)


@pytest.mark.parametrize("case", ["stalled", "example7", "line-end"])
def test_evaluate_allocates_each_revenue_segment(case):
    # revenue is summed on the intervals where evaluate allocates each
    # bundle; a clamped tail's repeated bundle holds up to the limit edge
    if case == "stalled":
        cm = CountableMechanism(QL, Bundle(0.5, 0.8), limit_lo=1.25,
                                increasing=TailRule(_stalled_tail, start=3))
        dist, tol = measure.uniform(0.3, 2.5), 1e-7
    else:
        end = 1 / 3 if case == "example7" else 0.3
        cm = countable_geometric(SQ, AnchorLine(3.0, 1 / 12, end), SEQ)
        dist, tol = UNIF, 1e-5
    segments = list(cm.revenue_segments(dist, tol=tol))
    if case == "example7":
        # the tol cut: the limit bundle stands in for the rest of the tail
        del segments[-2]
    for a, b, z in segments:
        assert cm.evaluate((a + b) / 2) == z
    if case == "stalled":
        assert segments[-2] == (pytest.approx(0.93), 1.25, Bundle(0.2304, 0.48))
        by_segments = measure.expected_revenue(QL, cm, dist)
        assert by_segments == pytest.approx(0.36496727272727275, abs=1e-12)
        assert measure.expected_revenue(QL, cm.evaluate, dist) == pytest.approx(
            by_segments, abs=1e-9)


def test_tail_index_cap_bounds_every_walk(monkeypatch):
    from scmech import mechanism

    monkeypatch.setattr(mechanism, "TAIL_INDEX_CAP", 5)
    cm = countable_geometric(SQ, LINE, SEQ)
    # a type past the cap gets the limit bundle, as one within resolution
    assert cm.evaluate(2 / 3 - 1e-4) == cm.limit_bundle
    with pytest.raises(TractabilityError, match="beyond cap 5$"):
        epsilon_truncate(cm, 1e-3, UNIF)
    with pytest.raises(TractabilityError, match="beyond cap 5$"):
        list(cm.revenue_segments(UNIF))


def _malformed_tail(n):
    # bundle 5 costs less than bundle 4 and gives more
    q = 0.8 - 1.0 / n
    return Bundle(0.0 if n == 5 else 0.78125 * q * q, q)


def _countable(case):
    """The six countable mechanisms whose ``evaluate`` is checked against
    the linear walk, and a distribution over their types."""
    ql_dist = measure.uniform(0.3, 2.5)
    if case == "example7":
        return countable_geometric(SQ, LINE, SEQ), UNIF
    if case == "line-end":
        return countable_geometric(SQ, AnchorLine(3.0, 1 / 12, 0.3), SEQ), UNIF
    if case == "decreasing":
        dom = make_domain("sqrt_quasilinear", 0.26, 1.0)
        return (countable_geometric(dom, AnchorLine(1.0, 0.01, 0.9),
                                    harmonic_sequence(0.5, -1.0, 3)),
                measure.uniform(0.26, 1.0))
    if case == "two-sided":
        return _two_sided(), ql_dist
    tail = _stalled_tail if case == "stalled" else _malformed_tail
    return (CountableMechanism(QL, Bundle(0.5, 0.8), limit_lo=1.25,
                               increasing=TailRule(tail, start=3)), ql_dist)


COUNTABLE = ["example7", "line-end", "decreasing", "two-sided", "stalled",
             "malformed"]


def _types_and_switches(cm, dist):
    """A grid over the support, types a little inside each limit edge (on
    example 7 the last two lie past the tail's resolution, at index 10,648,
    and the last past its 20,000th bundle), and, as types, the switches
    out of each tail's first 300 bundles and out of those 2**k further on,
    up to 2**15.  The reference walks each type from the tail's start, so
    the deep switches are sampled.  A switch that cannot be computed, or
    out of a bundle past the cap, is left out."""
    edges = [e for e in (cm.limit_lo, cm.limit_hi) if e is not None]
    types = [*np.linspace(dist.lo, dist.hi, 201),
             *(e + s * d for e in edges for s in (-1, 1)
               for d in (1e-3, 1e-4, 9e-5, 4e-5))]
    for below, tail in ((True, cm.increasing), (False, cm.decreasing)):
        for i in [*range(300), *(2**k for k in range(9, 16))] if tail else ():
            n = tail.start + i
            try:
                pair = (tail.bundle(n), tail.bundle(n + 1))
                types.append(cm.domain.special_preference(
                    *(pair if below else pair[::-1])))
            except (DomainError, TractabilityError):
                break
    return [float(r) for r in types if dist.lo <= r <= dist.hi]


@pytest.mark.parametrize("case", COUNTABLE)
def test_evaluate_matches_the_linear_walk(case):
    # evaluate bisects the running maximum of the memoized switches; the
    # reference walks each tail from its start for every type.  The types
    # are visited in a shuffled order, so the walk grows out of order
    cm, dist = _countable(case)
    types = _types_and_switches(cm, dist)
    np.random.default_rng(40).shuffle(types)
    got = [cm.evaluate(r) for r in types]
    assert same_bits(got, reference_countable_evaluate(cm, types))
    if case == "malformed":
        # past the switch that cannot be computed, the limit bundle
        assert cm.evaluate(1.2) == Bundle(0.5, 0.8)


def test_evaluate_matches_the_linear_walk_beyond_the_cap(monkeypatch):
    from scmech import mechanism

    monkeypatch.setattr(mechanism, "TAIL_INDEX_CAP", 5)
    cm, dist = _countable("example7")
    types = _types_and_switches(cm, dist)
    assert same_bits([cm.evaluate(r) for r in types],
                     reference_countable_evaluate(cm, types))


def test_evaluate_computes_each_tail_bundle_once(monkeypatch):
    # the midpoints of example 7's revenue segments at tol=1e-5, evaluated
    # on a fresh mechanism: each call bisects one memoized walk, which asks
    # the tail rule for each bundle it reaches once.  The midpoint of the
    # tol cut's stand-in segment gets bundle 707, so the walk reaches 708
    segments = list(_countable("example7")[0].revenue_segments(UNIF, tol=1e-5))
    assert len(segments) == 353
    cm, _ = _countable("example7")
    calls = []
    rule = TailRule.bundle
    monkeypatch.setattr(TailRule, "bundle",
                        lambda self, n: calls.append(n) or rule(self, n))
    for a, b, _ in segments:
        cm.evaluate((a + b) / 2)
    assert sorted(calls) == list(range(3, 3 + 706))


def test_inc_breakpoint_reads_the_walk():
    # the stalled tail repeats bundle 5, so no switch enters bundle 6, and
    # the tail has no bundle 2 to switch from
    cm, _ = _countable("stalled")
    rule = cm.increasing
    assert cm.inc_breakpoint(4) == QL.special_preference(rule.bundle(3),
                                                         rule.bundle(4))
    for n in (3, 6):
        with pytest.raises(DomainError, match=f"tail bundle {n}$"):
            cm.inc_breakpoint(n)


@pytest.mark.parametrize("edges", [
    {"limit_lo": math.nan}, {"limit_lo": math.inf}, {"limit_lo": -5.0},
    {"limit_lo": 1.6, "limit_hi": 1.25},
], ids=["nan", "inf", "outside", "crossed"])
def test_limit_edges_are_ordered_parameters_of_the_domain(edges):
    # each once failed late or not at all: nan raised an AttributeError in
    # evaluate, the crossed edges a TractabilityError in revenue_segments,
    # and -5.0 earned 0.5 from uniform(0.3, 2.5)
    tails = _two_sided()
    kwargs = {"increasing": tails.increasing, **edges}
    if "limit_hi" in edges:
        kwargs["decreasing"] = tails.decreasing
    with pytest.raises(DomainError):
        CountableMechanism(QL, Bundle(0.5, 0.8), **kwargs)


# -- best bundle on a line ----------------------------------------------------

@settings(max_examples=300, deadline=None)
@given(name=st.sampled_from(FACTORY_FAMILIES), u=st.floats(0.0, 1.0),
       slope=st.floats(0.1, 10.0), a=st.floats(0.0, 1.0), b=st.floats(0.0, 1.0))
def test_best_on_line_closed_form_is_optimal(name, u, slope, a, b):
    dom = make_domain(name)
    r = dom.lo + (0.02 + 0.96 * u) * (min(dom.hi, 3.0) - dom.lo)
    t_lo, t_hi = min(a, b) / slope, max(a, b) / slope
    if t_hi - t_lo < 1e-6:
        return

    def payment(t):
        t = np.asarray(t, dtype=float)
        return dom.canonical_payment_many(r, t, np.minimum(slope * t, 1.0))

    t = dom.family.best_on_line(r, slope, t_lo, t_hi)
    assert t_lo <= t <= t_hi
    searched = _search_best_on_line(dom, r, slope, t_lo, t_hi)
    assert payment(t) <= payment(searched) + 1e-12
    assert payment(t) <= payment(np.linspace(t_lo, t_hi, 100001)).min() + 1e-12


def test_closed_form_families_build_without_search(monkeypatch):
    import scipy.optimize

    def refuse(*args, **kwargs):
        raise AssertionError("bounded search called")

    monkeypatch.setattr(scipy.optimize, "minimize_scalar", refuse)
    line = AnchorLine(1.0, 0.01, 0.9)
    for name in FACTORY_FAMILIES:
        countable_geometric(make_domain(name), line, constant_sequence(0.5))
    cm = countable_geometric(SQ, LINE, SEQ)
    # breakpoints 2/3 - (1/n + 1/(n+1))/2 put this type on bundle 10000
    assert cm.evaluate(2 / 3 - 1e-4) == cm.increasing.bundle(10000)
    with pytest.raises(AssertionError, match="bounded search"):
        countable_geometric(make_domain("power_q"), AnchorLine(3.0, 0.05, 0.33),
                            constant_sequence(0.3))


def test_power_q_truncation_by_search():
    # power_q has no closed-form best bundle, so the bounded search builds
    # every bundle of this range
    dom = make_domain("power_q")
    dist = measure.uniform(0.26, 0.33)
    cm = countable_geometric(dom, AnchorLine(3.0, 0.05, 0.33),
                             harmonic_sequence(0.3, 0.01, 3))
    e_full = measure.expected_revenue(dom, cm, dist)
    for eps, size in ((0.1, 3), (0.01, 8), (0.001, 82)):
        finite = epsilon_truncate(cm, eps, dist)
        assert len(finite.bundles) == size
        assert abs(e_full - measure.expected_revenue(dom, finite, dist)) <= eps
        assert finite.is_well_formed()
        assert verify_mechanism(dom, finite, np.linspace(0.25, 1 / 3, 200)).ok


def test_anchor_line_validation():
    with pytest.raises(DomainError):
        AnchorLine(3.0, 0.2, 0.4)  # q would exceed 1
    with pytest.raises(DomainError):
        AnchorLine(-1.0, 0.1, 0.2)


def test_at_most_one_extra_bundle_indifferent_at_breakpoints():
    rng = np.random.default_rng(99)
    for name in ("quasilinear", "income_effect", "risk_averse"):
        dom = make_domain(name)
        for _ in range(10):
            mech = random_feasible_range(dom, rng)
            for k, bp in enumerate(mech.breakpoints):
                ref = dom.canonical_payment(bp, mech.bundles[k])
                tied = sum(
                    1 for z in mech.bundles
                    if z.t <= (dom.payment_bound(bp) or np.inf)
                    and abs(dom.canonical_payment(bp, z) - ref) <= 1e-9)
                assert tied <= 3  # the adjacent pair plus at most one more
