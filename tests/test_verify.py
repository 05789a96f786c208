import hashlib
import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from helpers import (FACTORY_FAMILIES, cubic_domain, grid_around,
                     random_feasible_range, reference_individual_rationality,
                     reference_shape, reference_strategy_proof,
                     reference_verify)
from scmech import measure, serialize, verify
from scmech.domain import Bundle, PreferenceDomain, ZERO_BUNDLE, make_domain
from scmech.errors import DomainError, ScmechError, TractabilityError
from scmech.mechanism import (AnchorLine, FiniteMechanism, countable_geometric,
                              epsilon_truncate, from_range, harmonic_sequence)
from scmech.verify import (brute_force_optimal, certify_step,
                           check_individual_rationality, check_shape,
                           check_strategy_proof, verify_mechanism)

QL = make_domain("quasilinear")
QL12 = make_domain("quasilinear", 1.0, 2.0)


def linear_continuum_mech(r):
    """Continuum-range rule on [1, 2]: monotone, continuous indirect
    utility, individually rational, and not strategy-proof."""
    return Bundle(r / 3 - 1 / 3, r - 1)


def test_linear_continuum_mechanism_fails_ic():
    grid = np.linspace(1.0, 2.0, 101)
    report = check_strategy_proof(QL12, linear_continuum_mech, grid)
    assert not report.ok
    by_pair = {(v.truthful_r, v.deviant_r): v.gain for v in report.violations}
    # the buyer at 1.5 gains by reporting the top type
    assert by_pair[(1.5, 2.0)] == pytest.approx(7 / 12, abs=1e-9)


def test_linear_continuum_violation_persists_under_refinement():
    for n in (101, 1001):
        report = check_strategy_proof(QL12, linear_continuum_mech,
                                      np.linspace(1.0, 2.0, n))
        assert not report.ok
        assert report.worst().gain > 0.5


def test_linear_continuum_mechanism_is_individually_rational():
    report = check_individual_rationality(QL12, linear_continuum_mech,
                                          np.linspace(1.0, 2.0, 101))
    assert report.ok


def test_constructed_mechanism_passes_everything():
    mech = from_range(QL, [ZERO_BUNDLE, Bundle(1, 0.5), Bundle(3, 1)])
    grid = grid_around(mech, 200)
    assert check_strategy_proof(QL, mech.evaluate, grid).ok
    assert check_individual_rationality(QL, mech.evaluate, grid).ok
    assert check_shape(QL, mech, grid).ok
    assert verify_mechanism(QL, mech, grid).ok


def test_constant_mechanism_trivially_strategy_proof():
    mech = from_range(QL, [Bundle(0.2, 0.6)])
    grid = np.linspace(0.1, 3.0, 100)
    assert check_strategy_proof(QL, mech.evaluate, grid).ok
    # but charging for nothing is not individually rational
    broke = from_range(QL, [Bundle(1.0, 0.0)])
    report = check_individual_rationality(QL, broke.evaluate, grid)
    assert not report.ok and all(v.kind == "IR" for v in report.violations)


def test_ir_check_raises_what_a_loop_over_the_grid_meets_first():
    # the payment above the bound at 1.0 comes before the NaN in the grid's
    # order, whether the rule is the step mechanism or its evaluate
    dom = make_domain("myerson")
    mech = FiniteMechanism(dom, (Bundle(2.0, 0.0), ZERO_BUNDLE), (2.0,))
    for rule in (mech, mech.evaluate):
        with pytest.raises(DomainError, match="above the bound t_R=1.0"):
            check_individual_rationality(dom, rule, [1.0, math.nan])
        with pytest.raises(DomainError, match="parameter nan"):
            check_strategy_proof(dom, rule, [1.0, math.nan])


def test_zero_purchase_mechanism_flagged_by_ir():
    # allocating (t, 0) with t > 0 is strictly worse than walking away
    report = check_individual_rationality(
        QL, lambda r: Bundle(1.0, 0.0), np.linspace(0.5, 2.0, 20))
    assert len(report.violations) == 20


def test_teaser_mechanism_fails_monotonicity_only():
    # full bundle below the cheap threshold, nothing in the middle, full
    # bundle again on top; indirect utility stays continuous
    mech = FiniteMechanism(QL12, (Bundle(1.0, 1.0), ZERO_BUNDLE, Bundle(2.0, 1.0)),
                           (1.0, 2.0))
    dom = make_domain("quasilinear", 0.5, 3.0)
    mech = FiniteMechanism(dom, mech.bundles, mech.breakpoints)
    report = check_shape(dom, mech, np.linspace(0.5, 3.0, 200))
    kinds = {v.kind for v in report.violations}
    assert kinds == {"MONO"}


def test_jump_without_indifference_fails_continuity_only():
    lo, hi = Bundle(0.2, 0.3), Bundle(1.2, 0.8)
    indiff = QL.special_preference(lo, hi)  # 2.0
    mech = FiniteMechanism(QL, (lo, hi), (indiff - 0.5,))
    report = check_shape(QL, mech, np.linspace(0.5, 3.0, 200))
    kinds = {v.kind for v in report.violations}
    assert kinds == {"CONT"}
    assert report.violations[0].truthful_r == pytest.approx(indiff - 0.5)


def test_ic_pass_implies_shape_pass():
    rng = np.random.default_rng(7)
    for name in ("quasilinear", "income_effect", "payment_param", "risk_averse"):
        dom = make_domain(name)
        for _ in range(5):
            mech = random_feasible_range(dom, rng)
            grid = grid_around(mech, 200)
            assert check_strategy_proof(dom, mech.evaluate, grid).ok
            assert check_shape(dom, mech, grid).ok


def test_restricted_ic_skips_unaffordable_deviations():
    ra = make_domain("risk_averse")
    mech = from_range(ra, [ZERO_BUNDLE, Bundle(1.0, 0.5), Bundle(2.5, 1.0)])
    grid = np.linspace(0.2, 5.0, 150)
    assert check_strategy_proof(ra, mech.evaluate, grid).ok


def test_incentive_check_runs_in_blocks_of_pairs():
    # 300 points make 90000 pairs: no call of the canonical payment sees
    # more than PAIR_BLOCK of them, and with a block below one row of the
    # grid the check goes a row at a time
    real = PreferenceDomain.canonical_payment_many
    for block, sizes in ((verify.PAIR_BLOCK, [218 * 300, 82 * 300]),
                         (100, [300] * 300)):
        seen = []

        def spy(self, r, t, q):
            out = real(self, r, t, q)
            seen.append(np.size(out))
            return out

        with mock.patch.object(verify, "PAIR_BLOCK", block), \
                mock.patch.object(PreferenceDomain, "canonical_payment_many",
                                  spy):
            report = check_strategy_proof(QL12, linear_continuum_mech,
                                          np.linspace(1.0, 2.0, 300))
        assert seen == sizes
        assert len(report.violations) == 300 * 299 // 2


def test_incentive_check_pays_for_distinct_bundles():
    # a 5-bundle step mechanism on 300 points: each point's type against
    # each of the 5 bundles, not against each of the 300 points, whether
    # the rule is the mechanism, its evaluate or a callable around it
    mech = from_range(QL, [ZERO_BUNDLE, Bundle(0.2, 0.2), Bundle(0.6, 0.4),
                           Bundle(1.2, 0.6), Bundle(2.0, 0.8)])
    assert mech.breakpoints == pytest.approx((1.0, 2.0, 3.0, 4.0))
    grid = np.linspace(0.5, 5.0, 300)
    real = PreferenceDomain.canonical_payment_many
    for rule in (mech, mech.evaluate, lambda r: mech.evaluate(r)):
        seen = []

        def spy(self, r, t, q):
            out = real(self, r, t, q)
            seen.append(np.size(out))
            return out

        with mock.patch.object(PreferenceDomain, "canonical_payment_many",
                               spy):
            report = check_strategy_proof(QL, rule, grid)
        assert report.ok
        assert sum(seen) <= 300 * 5


def test_incentive_check_prices_only_the_bundles_the_grid_holds():
    # a 41-bundle range on 5 points: the points hold 5 of its bundles, so
    # the check prices 5 x 5 payments, not 5 x 41
    mech = from_range(QL, [ZERO_BUNDLE, *(Bundle(k * (k + 1) / 80, k / 40)
                                          for k in range(1, 41))])
    grid = np.linspace(0.5, 4.5, 5)
    assert len({mech.evaluate(r) for r in grid}) == 5
    real = PreferenceDomain.canonical_payment_many
    seen = []

    def spy(self, r, t, q):
        out = real(self, r, t, q)
        seen.append(np.size(out))
        return out

    with mock.patch.object(PreferenceDomain, "canonical_payment_many", spy):
        assert check_strategy_proof(QL, mech, grid).ok
    assert seen == [5 * 5]


def test_incentive_check_reports_a_step_rule_alike_in_every_form():
    # the teaser fails incentives; as a mechanism its table is its range,
    # as a callable its distinct allocations, and the grid repeats points,
    # so a hit against one bundle stands for several deviant points
    dom = make_domain("quasilinear", 0.5, 3.0)
    mech = FiniteMechanism(
        dom, (Bundle(1.0, 1.0), ZERO_BUNDLE, Bundle(2.0, 1.0)), (1.0, 2.0))
    grid = np.linspace(0.5, 3.0, 200)
    grid = np.concatenate([grid, grid[::7]])
    texts = {serialize.dumps(check_strategy_proof(dom, rule, grid).to_dict())
             for rule in (mech, mech.evaluate, lambda r: mech.evaluate(r))}
    assert len(texts) == 1
    report = check_strategy_proof(dom, mech, grid)
    assert {v.kind for v in report.violations} == {"IC"}
    assert_same_outcome(report.to_dict(),
                        reference_strategy_proof(dom, mech.evaluate,
                                                 grid).to_dict(), True)


def test_report_ordering_is_deterministic():
    report = check_strategy_proof(QL12, linear_continuum_mech,
                                  np.linspace(1.0, 2.0, 41))
    keys = [(v.truthful_r, v.deviant_r) for v in report.violations]
    assert keys == sorted(keys)


def test_report_serialization_round_trip():
    report = check_strategy_proof(QL12, linear_continuum_mech,
                                  np.linspace(1.0, 2.0, 11))
    data = report.to_dict()
    assert data["ok"] is False
    assert len(data["violations"]) == len(report.violations)
    rows = report.to_csv_rows()
    assert rows[0].keys() == {"kind", "truthful_r", "deviant_r", "gain"}


# -- exact certification of step mechanisms ------------------------------------


def _outcome(check):
    """A report's verdict and violation kinds, or the error it raised."""
    try:
        report = check()
    except DomainError as exc:
        return type(exc).__name__
    return report.ok, {v.kind for v in report.violations}


def assert_certify_agrees(mech, grid):
    """``certify_step`` on the grid's span and ``verify_mechanism`` on the
    grid give the same verdict and the same violation kinds."""
    dom, grid = mech.domain, np.asarray(grid, dtype=float)
    exact = _outcome(lambda: certify_step(dom, mech, grid[0], grid[-1]))
    on_grid = _outcome(lambda: verify_mechanism(dom, mech, grid))
    assert exact == on_grid, (mech, exact, on_grid)
    return exact


# single-crossing families: the factory ones and power_q, which bisects
CERTIFY_FAMILIES = [*FACTORY_FAMILIES, "power_q"]


CUBIC = cubic_domain()


@st.composite
def candidate_ranges(draw, names=st.sampled_from(CERTIFY_FAMILIES)):
    """Ranges as a benchmark draws them: built to switch at drawn types
    (each bundle binds with the one below at its type), or random sorted
    bundles.  Restricted families start at (0, 0)."""
    dom = make_domain(draw(names))
    fam = dom.family
    k = draw(st.integers(1, 4))
    qs = sorted(draw(st.lists(st.floats(0.05, 1.0), min_size=k + 1,
                              max_size=k + 1, unique=True)))
    if draw(st.booleans()):
        lo, hi = max(dom.lo, 0.2), min(dom.hi, 4.0)
        lo, hi = lo + 0.02 * (hi - lo), hi - 0.02 * (hi - lo)
        rs = sorted(draw(st.lists(st.floats(lo, hi), min_size=k, max_size=k,
                                  unique=True)))
        zs = [ZERO_BUNDLE if dom.restricted
              else Bundle(draw(st.floats(0.05, 0.5)), qs[0])]
        for r, q in zip(rs, qs[1:]):
            c = fam.canonical(r, *zs[-1])
            zs.append(Bundle(float(fam.curve_payment(r, c, q)), q))
    else:
        ts = sorted(draw(st.lists(st.floats(0.05, 2.5), min_size=k + 1,
                                  max_size=k + 1, unique=True)))
        zs = [*([ZERO_BUNDLE] if dom.restricted else []), *map(Bundle, ts, qs)]
    return dom, zs


@settings(max_examples=300, deadline=None)
@given(candidate=candidate_ranges())
def test_certify_step_agrees_with_the_grid(candidate):
    dom, zs = candidate
    try:
        mech = from_range(dom, zs)
    except ScmechError:
        return  # unsupportable, or not diagonal: nothing to certify
    assert_certify_agrees(mech, grid_around(mech, 200))


def test_certify_step_agrees_on_the_random_ranges(random_mechanisms):
    # the ranges of criteria 4 and 5, and a few for the other families.
    # Those criteria check incentives and shape: a classical range that
    # does not start at (0, 0) can fail only individual rationality
    rng = np.random.default_rng(7)
    mechs = [*(m for ms in random_mechanisms.values() for m in ms),
             *(random_feasible_range(make_domain(name), rng, t_hi=0.9)
               for name in ("sqrt_quasilinear", "myerson", "power_q")
               for _ in range(5))]
    for mech in mechs:
        _, kinds = assert_certify_agrees(mech, grid_around(mech, 200))
        assert kinds <= {"IR"}


def test_certify_step_agrees_on_the_mechanisms_the_tests_build():
    dom = make_domain("quasilinear", 0.5, 3.0)
    teaser = FiniteMechanism(
        dom, (Bundle(1.0, 1.0), ZERO_BUNDLE, Bundle(2.0, 1.0)), (1.0, 2.0))
    jumpy = FiniteMechanism(QL, (Bundle(0.2, 0.3), Bundle(1.2, 0.8)), (1.5,))
    built = from_range(QL, [ZERO_BUNDLE, Bundle(1, 0.5), Bundle(3, 1)])
    ra = make_domain("risk_averse")
    restricted = from_range(ra, [ZERO_BUNDLE, Bundle(1.0, 0.5),
                                 Bundle(2.5, 1.0)])
    sq = make_domain("sqrt_quasilinear", 0.2, 1.0)
    cmech = countable_geometric(sq, AnchorLine(3.0, 1 / 12, 1 / 3),
                                harmonic_sequence(2 / 3, 1.0, start=3))
    # criterion 6's rule as a step mechanism switching at each grid point
    affine_grid = np.linspace(1.0, 2.0, 101)
    affine = FiniteMechanism(QL12, tuple(map(linear_continuum_mech,
                                             affine_grid)),
                             tuple(affine_grid[1:]))
    cases = [
        (teaser, np.linspace(0.5, 3.0, 200), {"MONO", "IC", "IR"}),
        (jumpy, np.linspace(0.5, 3.0, 200), {"CONT", "IC", "IR"}),
        (built, grid_around(built, 200), set()),
        (from_range(QL, [Bundle(0.2, 0.6)]), np.linspace(0.1, 3.0, 100),
         {"IR"}),
        (from_range(QL, [Bundle(1.0, 0.0)]), np.linspace(0.1, 3.0, 100),
         {"IR"}),
        (restricted, np.linspace(0.2, 5.0, 150), set()),
        (affine, affine_grid, {"CONT", "IC"}),
        *[(epsilon_truncate(cmech, eps, measure.uniform(0.2, 1.0)),
           np.linspace(0.2, 1.0, 200), set()) for eps in (0.1, 0.05, 0.01)],
    ]
    for mech, grid, kinds in cases:
        assert assert_certify_agrees(mech, grid) == (not kinds, kinds)


def test_certify_step_flags_an_unsorted_range():
    # the teaser of criterion 5: the range falls from (1, 1) to (0, 0)
    dom = make_domain("quasilinear", 0.5, 3.0)
    mech = FiniteMechanism(
        dom, (Bundle(1.0, 1.0), ZERO_BUNDLE, Bundle(2.0, 1.0)), (1.0, 2.0))
    report = certify_step(dom, mech, 0.5, 3.0)
    mono = [v for v in report.violations if v.kind == "MONO"]
    assert [(v.truthful_r, v.gain) for v in mono] == [(1.0, 1.0)]


def test_certify_step_flags_decreasing_breakpoints():
    # a sorted diagonal range indifferent at each breakpoint, whose
    # breakpoints fall: from_range rejects it, and certify_step says why
    zs = (Bundle(0.2, 0.2), Bundle(1.0, 0.6), Bundle(1.2, 1.0))
    bps = tuple(QL.special_preference(a, b) for a, b in zip(zs, zs[1:]))
    assert bps[1] < bps[0]  # 2.0, then 0.5
    report = certify_step(QL, FiniteMechanism(QL, zs, bps), 0.1, 3.0)
    mono = [v for v in report.violations if v.kind == "MONO"]
    assert [(v.truthful_r, v.gain) for v in mono] == [
        (bps[1], pytest.approx(bps[0] - bps[1]))]
    assert not any(v.kind == "CONT" for v in report.violations)


def test_certify_step_flags_a_missing_indifference():
    lo, hi = Bundle(0.2, 0.3), Bundle(1.2, 0.8)  # indifferent at 2.0
    report = certify_step(QL, FiniteMechanism(QL, (lo, hi), (1.5,)), 1.0, 3.0)
    cont = [v for v in report.violations if v.kind == "CONT"]
    assert [(v.truthful_r, v.gain) for v in cont] == [
        (1.5, pytest.approx(0.25))]
    # the types in [1.5, 2) would rather report below 1.5
    ic = [v for v in report.violations if v.kind == "IC"]
    assert [(v.truthful_r, v.deviant_r) for v in ic] == [(1.5, 0.0)]
    assert ic[0].gain == pytest.approx(0.25)


def test_certify_step_flags_a_bottom_bundle_that_fails_ir():
    # f_r(0.5, 0.5) - f_r(0, 0) = 0.5 - r/2: every type below 1 would
    # rather walk away, the lowest one most
    mech = from_range(QL, [Bundle(0.5, 0.5), Bundle(1.5, 1.0)])
    report = certify_step(QL, mech, 0.5, 3.0)
    assert [(v.kind, v.truthful_r, v.deviant_r) for v in report.violations] \
        == [("IR", 0.5, None)]
    assert report.violations[0].gain == pytest.approx(0.25)
    assert certify_step(QL, mech, 1.0, 3.0).ok


def test_certify_step_checks_the_ends_not_a_grid():
    # indifferent at both breakpoints, but the range falls from (0.5, 0.5)
    # to (0.2, 0.25): the types above 1.2 would rather report into
    # [1, 1.2), and those in (0.8, 1) would rather report above 1.2.  A
    # grid that steps over both intervals sees nothing
    zs = (ZERO_BUNDLE, Bundle(0.5, 0.5), Bundle(0.2, 0.25))
    bad = FiniteMechanism(QL, zs, (1.0, 1.2))
    assert verify_mechanism(QL, bad, [0.5, 1.5, 2.0]).ok
    report = certify_step(QL, bad, 0.5, 2.0)
    assert [(v.kind, v.truthful_r, v.deviant_r) for v in report.violations] \
        == [("IC", 1.0, 1.2), ("MONO", 1.2, None), ("IC", 2.0, 1.0)]
    assert [v.gain for v in report.violations] == pytest.approx(
        [0.05, 0.3, 0.2])
    assert report.grid_size == 4  # 0.5, 1.0, 1.2 and 2.0


def test_certify_step_rejects_an_unaffordable_bundle():
    ra = make_domain("risk_averse")
    mech = FiniteMechanism(ra, (ZERO_BUNDLE, Bundle(1.0, 0.5)), (0.5,))
    with pytest.raises(DomainError):
        certify_step(ra, mech, 0.2, 2.0)


def _falling_breakpoints():
    zs = (Bundle(0.2, 0.2), Bundle(1.0, 0.6), Bundle(1.2, 1.0))
    return FiniteMechanism(QL, zs, tuple(QL.special_preference(a, b)
                                         for a, b in zip(zs, zs[1:])))


def _affine_steps():
    """Criterion 6's rule as a step mechanism switching at each grid point."""
    grid = np.linspace(1.0, 2.0, 101)
    return FiniteMechanism(QL12, tuple(map(linear_continuum_mech, grid)),
                           tuple(grid[1:]))


# SHA-256 of certify_step's serialized report as the code that built its
# own records, before it shared the grid checks' parts, wrote it
@pytest.mark.parametrize("mech, lo, hi, digest", [
    (FiniteMechanism(make_domain("quasilinear", 0.5, 3.0),
                     (Bundle(1.0, 1.0), ZERO_BUNDLE, Bundle(2.0, 1.0)),
                     (1.0, 2.0)), 0.5, 3.0,  # the teaser: MONO, IC, IR
     "47179b9f7b3662755f73b8e85b4c7458dbba88c8ccb34d98ff2e21f7ba0cd834"),
    (FiniteMechanism(QL, (Bundle(0.2, 0.3), Bundle(1.2, 0.8)), (1.5,)),
     0.5, 3.0,  # jumpy: CONT, IC, IR
     "8ecbc91696ef3f2d1faff0f46a650093662bec59b82b158536e336073de18bd7"),
    (_affine_steps(), 1.0, 2.0,  # 5150 records: CONT, IC
     "e1b10a0191b16b46f9f12d9c77b644d7b2a1b275072d888bf3cec557321dcb12"),
    (FiniteMechanism(make_domain("risk_averse"),
                     (ZERO_BUNDLE, Bundle(1.0, 0.5), Bundle(2.5, 1.0)),
                     (1.3, 2.6)), 0.2, 5.0,  # restricted: CONT, IC
     "338b16d63a2e4c49996352a255a8b59aa0d42453d3dacb559b19c00274b6d105"),
    (_falling_breakpoints(), 0.1, 3.0,  # MONO of the breakpoints, IC, IR
     "fe8397abaac682399489008ed4fb77524bbe374f680d31ba898b7f5ed2d63d33"),
])
def test_certify_step_reports_are_byte_identical(mech, lo, hi, digest):
    text = serialize.dumps(certify_step(mech.domain, mech, lo, hi).to_dict())
    assert hashlib.sha256(text.encode()).hexdigest() == digest


# -- the grid checks against the point-by-point reference ----------------------


def _report_or_error(check):
    """A report's dictionary, or the type and message of the error the
    check raised."""
    try:
        return check().to_dict()
    except ScmechError as exc:
        return f"{type(exc).__name__}: {exc}"


# Families whose canonical payment gives the same bits for a float parameter
# and an array of them: the factory ones take only +, -, *, / and sqrt, each
# rounded correctly by IEEE arithmetic, and power_q takes its powers through
# numpy's array loop either way.  The cubic family takes a power with **,
# which numpy's array loops and the C library's pow may round an ulp apart,
# so an array of parameters can move a gain by an ulp from the float one.
SAME_BITS_ON_ARRAYS = [*FACTORY_FAMILIES, "power_q"]


def assert_same_outcome(got, expected, exact):
    """The same error, or the same report: every record in the same order
    and spelled the same by ``repr``, which spells each float exactly.
    Unless ``exact``, a gain may be 1e-14 off, a few ulps of the canonical
    payments drawn here."""
    if isinstance(got, str) or isinstance(expected, str):
        assert got == expected
        return
    records = itertools.zip_longest(got.pop("violations"),
                                    expected.pop("violations"), fillvalue={})
    for a, b in [(got, expected), *records]:
        if (not exact and "gain" in a and "gain" in b
                and abs(a["gain"] - b["gain"]) <= 1e-14):
            a["gain"] = b["gain"]
        # record by record: pytest's diff of two long reports is slow
        assert repr(a) == repr(b)


def _wavy(a, b, c, d, e):
    """A rule that is not monotone in either coordinate."""
    def fn(r):
        return Bundle(a + b * math.sin(c * r), min(1.0, d + e * math.cos(c * r)))
    return fn


def _affine(t0, t1, q0, q1):
    def fn(r):
        return Bundle(t0 + t1 * r, q0 + q1 * r)
    return fn


@st.composite
def grid_cases(draw):
    """A domain, a rule and a grid.  Rules: a step mechanism on a drawn
    range (supportable or not), a step mechanism with free bundles and
    unsorted breakpoints, a wavy callable and an affine one.  Grids are
    unsorted, repeat points, and may be empty, hold one point, leave the
    domain interval or hold a NaN."""
    name = draw(st.sampled_from([*CERTIFY_FAMILIES, CUBIC.family.name]))
    dom, zs = draw(candidate_ranges(st.just(name)))
    lo, hi = max(dom.lo, 0.05), min(dom.hi, 4.0)
    kind = draw(st.sampled_from(["range", "steps", "wavy", "affine"]))
    if kind == "range":
        try:
            rule = from_range(dom, zs)
        except ScmechError:
            kind = "steps"
    if kind == "steps":
        m = draw(st.integers(1, 5))
        zs = draw(st.lists(st.builds(Bundle, st.floats(0.0, 2.5),
                                     st.floats(0.0, 1.0)),
                           min_size=m, max_size=m))
        bps = draw(st.lists(st.floats(lo, hi), min_size=m - 1,
                            max_size=m - 1))
        rule = FiniteMechanism(dom, tuple(zs), tuple(bps))
    elif kind == "wavy":
        b = draw(st.floats(0.0, 1.0))
        rule = _wavy(draw(st.floats(b, 2.5)), b, draw(st.floats(0.5, 20.0)),
                     draw(st.floats(0.0, 1.0)), draw(st.floats(-1.0, 1.0)))
    elif kind == "affine":
        rule = _affine(*(draw(st.floats(-1.0, 1.0)) for _ in range(4)))
    pool = draw(st.lists(st.floats(lo, hi), min_size=1, max_size=12))
    if draw(st.integers(0, 9)) == 0:  # now and then a point outside
        pool.append(dom.lo - 0.5 if dom.lo > 0.5 else
                    dom.hi + 0.5 if math.isfinite(dom.hi) else -0.5)
    if draw(st.integers(0, 9)) == 0:
        # now and then a NaN: sorted() leaves it where its comparisons put
        # it, and the first inadmissible point in that order raises
        pool.append(math.nan)
    size = draw(st.integers(0, 40))
    grid = draw(st.lists(st.sampled_from(pool), min_size=size,
                         max_size=size))
    return dom, rule, grid


@settings(max_examples=400, deadline=None)
@given(case=grid_cases(), block=st.sampled_from([1, 5, 64, verify.PAIR_BLOCK]))
# sorted() leaves [0.5, nan, 0.1, 3.0]: the loop meets the NaN first, where
# np.sort would put the NaN last and meet 3.0 first
@example(case=(make_domain("quasilinear", 0.0, 1.0),
               from_range(make_domain("quasilinear", 0.0, 1.0),
                          [ZERO_BUNDLE, Bundle(0.5, 1.0)]),
               [0.5, math.nan, 3.0, 0.1]), block=verify.PAIR_BLOCK)
# the loop meets the payment above the bound at 1.0 before the NaN: the
# participation check raises it, where the others evaluate the whole grid
# first and raise at the NaN
@example(case=(make_domain("myerson"),
               FiniteMechanism(make_domain("myerson"),
                               (Bundle(2.0, 0.0), ZERO_BUNDLE, ZERO_BUNDLE),
                               (2.0, 1.0)),
               [1.0, math.nan]), block=1)
def test_grid_checks_match_the_reference(case, block):
    dom, rule, grid = case
    fn = rule.evaluate if isinstance(rule, FiniteMechanism) else rule
    checks = [(check_strategy_proof, reference_strategy_proof, fn),
              (check_individual_rationality, reference_individual_rationality,
               fn),
              (verify_mechanism, reference_verify, rule)]
    if isinstance(rule, FiniteMechanism):
        checks += [(check_shape, reference_shape, rule),
                   (verify_mechanism, reference_verify, fn)]
    exact = dom.family.name in SAME_BITS_ON_ARRAYS
    with mock.patch.object(verify, "PAIR_BLOCK", block):
        for check, reference, arg in checks:
            with np.errstate(invalid="ignore"):  # inf - inf in the reference
                expected = _report_or_error(lambda: reference(dom, arg, grid))
            assert_same_outcome(_report_or_error(lambda: check(dom, arg, grid)),
                                expected, exact)


# -- brute force ----------------------------------------------------------------

T_GRID = np.round(np.arange(0.0, 1.0001, 0.05), 10)
Q_GRID = (0.0, 0.25, 0.5, 0.75, 1.0)


def test_brute_force_quasilinear_reserve_price():
    dom = make_domain("quasilinear", 0.0, 5.0)
    mech, rev = brute_force_optimal(dom, measure.uniform(0, 1),
                                    T_GRID, Q_GRID, max_bundles=2)
    assert rev == pytest.approx(0.25, abs=1e-12)
    assert mech.bundles == (ZERO_BUNDLE, Bundle(0.5, 1.0))


def test_brute_force_single_bundle_earns_nothing():
    dom = make_domain("quasilinear", 0.0, 5.0)
    mech, rev = brute_force_optimal(dom, measure.uniform(0, 1),
                                    T_GRID, Q_GRID, max_bundles=1)
    assert rev == 0.0
    assert mech.bundles == (ZERO_BUNDLE,)


def test_brute_force_myerson_expected_payment():
    dom = make_domain("myerson", 0.0, 5.0)
    mech, rev = brute_force_optimal(dom, measure.uniform(0, 1),
                                    T_GRID, Q_GRID, max_bundles=2,
                                    mode="expected_payment")
    assert rev == pytest.approx(0.25, abs=1e-12)


def test_brute_force_guard():
    dom = make_domain("quasilinear", 0.0, 5.0)
    with pytest.raises(TractabilityError):
        brute_force_optimal(dom, measure.uniform(0, 1),
                            np.linspace(0, 1, 300), np.linspace(0, 1, 50),
                            max_bundles=4)
