import math
import warnings

import numpy as np
import pytest

from helpers import same_bits
from scmech import measure
from scmech.domain import Bundle, ZERO_BUNDLE, make_domain
from scmech.errors import DomainError, SpecParseError
from scmech.measure import expected_revenue, from_table, revenue_upper_bound
from scmech.mechanism import FiniteMechanism, from_range

QL = make_domain("quasilinear")
MY = make_domain("myerson")

ALL_DISTS = [
    measure.uniform(0.0, 1.0),
    measure.uniform(1.0, 2.0),
    measure.truncated_exponential(2.0, 0.0, 1.5),
    measure.beta(2.0, 3.0),
    from_table([[0.0, 0.0], [0.4, 0.25], [0.7, 0.6], [1.0, 1.0]]),
]


def test_monopoly_price_at_least_the_grid_maximum():
    # exact on the piecewise-linear CDFs, never below the dense grid on
    # the smooth ones; (1 - F) theta peaks at 1/3 for beta(2, 3)
    for dist in ALL_DISTS:
        grid = np.linspace(dist.lo, dist.hi, 100001)
        best = float(np.max(grid * (1.0 - dist.cdf(grid))))
        p = measure.monopoly_price(dist)
        assert dist.lo <= p <= dist.hi
        assert p * (1.0 - dist.cdf(p)) >= best - 1e-12, dist.name
    assert measure.monopoly_price(ALL_DISTS[0]) == 0.5
    assert measure.monopoly_price(ALL_DISTS[1]) == 1.0
    assert measure.monopoly_price(ALL_DISTS[3]) == pytest.approx(1 / 3, abs=1e-7)


def test_monopoly_price_tiny_slope_does_not_warn():
    # the in-piece vertex of the subnormal slope overflows; it lies in no
    # piece, so the price is the knot 0.5 and nothing is reported
    table = from_table([[0.0, 0.0], [0.5, 5e-324], [1.0, 1.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert measure.monopoly_price(table) == 0.5


def test_table_with_an_infinite_density_is_spec_error():
    # mass 0.5 on a piece 1e-310 wide has a density beyond the floats
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SpecParseError, match="infinite density"):
            from_table([[0, 0], [1e-310, 0.5], [1, 1]])


def test_pdf_cdf_consistency_by_finite_differences():
    h = 1e-5
    for dist in ALL_DISTS:
        grid = np.linspace(dist.lo + 0.05, dist.hi - 0.05, 9)
        for x in grid:
            diff = (dist.cdf(x + h) - dist.cdf(x - h)) / (2 * h)
            assert diff == pytest.approx(float(dist.pdf(x)), abs=1e-4)


# every CDF family, with beta on both sides of its polynomial branch
CDF_CASES = [*ALL_DISTS,
             pytest.param(measure.beta(3.7, 9.1), id="beta-3.7-9.1"),
             pytest.param(measure.beta(1.0, 1.0), id="beta-1-1")]


@pytest.mark.parametrize("dist", CDF_CASES, ids=lambda d: d.name)
def test_cdf_clamps_as_np_clip(dist):
    # cdf clamps an array with np.minimum and np.maximum, half the cost of
    # np.clip on short inputs, and a float by two comparisons; both keep
    # np.clip's bits: 10k points with the support ends, +-0, infinities and
    # a NaN, as an array, np.float64 and Python floats.  A float's CDF is a
    # Python float, and mass is the difference of the array's elements.
    # pdf masks a float by two comparisons where it masks an array, and
    # gets the same bits on the same points.
    rng = np.random.default_rng(8)
    width = dist.hi - dist.lo
    x = rng.uniform(dist.lo - 0.5 * width, dist.hi + 0.5 * width, 10_000)
    x[:8] = (dist.lo, dist.hi, np.nextafter(dist.hi, np.inf), -0.0, 0.0,
             -np.inf, np.inf, np.nan)
    ref = dist._cdf(np.clip(x, dist.lo, dist.hi))
    assert same_bits(dist.cdf(x), ref)
    values = [dist.cdf(v) for v in x[:500]]
    assert all(type(v) is float for v in values)
    assert same_bits(values, ref[:500])
    assert same_bits([dist.cdf(float(v)) for v in x[:500]], ref[:500])
    pairs = zip(x[:499].tolist(), x[1:500].tolist())
    assert same_bits([dist.mass(u, v) for u, v in pairs],
                     np.where(x[1:500] <= x[:499], 0.0, np.diff(ref[:500])))
    dens = np.where((x >= dist.lo) & (x <= dist.hi),
                    dist._pdf(np.clip(x, dist.lo, dist.hi)), 0.0)
    assert same_bits(dist.pdf(x), dens)
    values = [dist.pdf(v) for v in x[:500]]
    assert all(type(v) is float for v in values)
    assert same_bits(values, dens[:500])
    assert same_bits([dist.pdf(float(v)) for v in x[:500]], dens[:500])


def test_cdf_endpoints():
    for dist in ALL_DISTS:
        assert dist.cdf(dist.lo) == pytest.approx(0.0, abs=1e-12)
        assert dist.cdf(dist.hi) == pytest.approx(1.0, abs=1e-12)


def test_ppf_round_trip():
    for dist in ALL_DISTS:
        for u in (0.05, 0.3, 0.62, 0.97):
            assert dist.cdf(dist.ppf(u)) == pytest.approx(u, abs=1e-7)


def test_expected_revenue_posted_price():
    mech = from_range(QL, [ZERO_BUNDLE, Bundle(0.5, 1.0)])
    assert expected_revenue(QL, mech, measure.uniform(0, 1)) == pytest.approx(0.25)


def test_expected_revenue_constant_zero():
    mech = from_range(QL, [ZERO_BUNDLE])
    assert expected_revenue(QL, mech, measure.uniform(0, 1)) == 0.0


def test_expected_revenue_myerson_expected_payment_mode():
    mech = from_range(MY, [ZERO_BUNDLE, Bundle(0.5, 1.0)])
    rev = expected_revenue(MY, mech, measure.uniform(0, 1), "expected_payment")
    assert rev == pytest.approx(0.25)


def test_expected_payment_mode_discounts_by_quantity():
    mech = from_range(QL, [ZERO_BUNDLE, Bundle(0.5, 0.5)])
    u = measure.uniform(0, 2)
    assert expected_revenue(QL, mech, u, "payment") == pytest.approx(
        2 * expected_revenue(QL, mech, u, "expected_payment"))


def test_bad_revenue_mode_rejected():
    mech = from_range(QL, [ZERO_BUNDLE])
    with pytest.raises(ValueError):
        expected_revenue(QL, mech, measure.uniform(0, 1), "profit")


def test_bad_revenue_mode_is_domain_error():
    mech = from_range(QL, [ZERO_BUNDLE, Bundle(0.5, 1.0)])
    with pytest.raises(DomainError, match="revenue mode"):
        expected_revenue(QL, mech, measure.uniform(0, 1), "profit")
    with pytest.raises(DomainError, match="revenue mode"):
        measure.revenue_of(Bundle(0.5, 1.0), "profit")


def test_exact_sum_matches_quadrature():
    mech = from_range(QL, [ZERO_BUNDLE, Bundle(0.3, 0.4), Bundle(0.9, 0.8),
                           Bundle(1.4, 1.0)])
    for dist in (measure.uniform(0.1, 3.0),
                 measure.truncated_exponential(1.0, 0.1, 3.0)):
        exact = expected_revenue(QL, mech, dist)
        quad = expected_revenue(QL, mech.evaluate, dist)
        assert quad == pytest.approx(exact, abs=1e-6)


def test_exact_sum_on_falling_breakpoints_matches_quadrature():
    # a step function kept for diagnostics: types are allocated by the
    # running maximum of the breakpoints, so (0.2, 0.5) is sold to no type
    dom = make_domain("quasilinear", 0.0, 1.0)
    mech = FiniteMechanism(
        dom, (ZERO_BUNDLE, Bundle(0.2, 0.5), Bundle(0.5, 1.0)), (0.6, 0.4))
    dist = measure.uniform(0.0, 1.0)
    assert expected_revenue(dom, mech, dist) == pytest.approx(0.2, abs=1e-15)
    assert expected_revenue(dom, mech.evaluate, dist) == pytest.approx(
        0.2, abs=1e-9)


def test_revenue_upper_bound():
    u = measure.uniform(1, 2)
    assert revenue_upper_bound(QL, u) == pytest.approx(2.0)
    ie = make_domain("income_effect")
    assert revenue_upper_bound(ie, u) == pytest.approx(math.sqrt(2.0))
    mech = from_range(QL, [ZERO_BUNDLE, Bundle(1.2, 0.7), Bundle(1.9, 1.0)])
    rev = expected_revenue(QL, mech, u)
    assert 0.0 <= rev <= revenue_upper_bound(QL, u)


def test_distribution_spec_round_trip():
    for dist in ALL_DISTS:
        back = measure.TypeDistribution.from_spec(dist.to_spec())
        assert back.lo == dist.lo and back.hi == dist.hi
        for x in np.linspace(dist.lo, dist.hi, 7):
            assert back.cdf(x) == pytest.approx(dist.cdf(x), abs=1e-12)


def test_table_spec_validation():
    with pytest.raises(SpecParseError):
        from_table([[0.0, 0.1], [1.0, 1.0]])  # cdf must start at 0
    with pytest.raises(SpecParseError):
        from_table([[0.0, 0.0], [0.0, 1.0]])  # theta must increase


def test_support_validation():
    with pytest.raises(DomainError):
        measure.uniform(1.0, 1.0)


# Shapes with a < 1 and b < 1 give densities unbounded at the ends; the
# integer shapes up to BETA_POLY_DEGREE take the polynomial CDF, (1, 4)
# and (4, 1) at it, and (3, 12), (7, 1) and (40, 30) lie above it.
BETA_SHAPES = [(2.0, 3.0), (0.5, 0.5), (5.0, 1.2), (1.0, 1.0), (3.7, 9.1),
               (0.3, 2.0), (3.0, 12.0), (7.0, 1.0), (40.0, 30.0), (1.0, 4.0),
               (4.0, 1.0)]


def polynomial_beta(a, b):
    return (a.is_integer() and b.is_integer()
            and a + b - 1 <= measure.BETA_POLY_DEGREE)


def beta_grid():
    ends = np.geomspace(1e-12, 0.5, 60)
    return np.concatenate([np.linspace(0.0, 1.0, 2001), ends, 1.0 - ends])


@pytest.mark.parametrize("a, b", BETA_SHAPES)
def test_beta_matches_scipy_stats(a, b):
    # scipy.stats's CDF bit for bit off the polynomial branch; its quantile
    # on every shape, and its density to 1e-12
    from scipy import stats

    ref = stats.beta(a, b)
    dist = measure.beta(a, b)
    x = beta_grid()
    if not polynomial_beta(a, b):
        assert np.array_equal(dist.cdf(x), ref.cdf(x))
        assert [dist.cdf(v) for v in x[::50]] == [float(ref.cdf(v))
                                                  for v in x[::50]]
    assert np.array_equal(dist.ppf(x), ref.ppf(x))
    assert [dist.ppf(v) for v in x[::50]] == [float(ref.ppf(v)) for v in x[::50]]
    want = ref.pdf(x)
    ok = np.isfinite(want) & (want > 0)
    assert np.all(np.abs(dist.pdf(x)[ok] - want[ok]) <= 1e-12 * want[ok])


@pytest.mark.parametrize("a, b", [s for s in BETA_SHAPES if polynomial_beta(*s)])
def test_integer_beta_cdf_matches_mpmath(a, b):
    # the binomial tail cannot match scipy's betainc bit for bit; against
    # the regularized incomplete beta at 40 digits it is within 2e-15 (it
    # reads 1.1e-16 at worst here, scipy's 2.2e-16), exact at the ends and
    # nondecreasing
    import mpmath

    dist = measure.beta(a, b)
    x = np.sort(beta_grid())
    with mpmath.workdps(40):
        ref = np.array([float(mpmath.betainc(a, b, 0, mpmath.mpf(v),
                                             regularized=True)) for v in x])
    cdf = dist.cdf(x)
    assert np.max(np.abs(cdf - ref)) <= 2e-15
    assert dist.cdf(0.0) == 0.0 and dist.cdf(1.0) == 1.0
    assert np.all(np.diff(cdf) >= 0.0)


@pytest.mark.parametrize("make, args", [
    (measure.beta, (math.nan, 2.0)),
    (measure.beta, (math.inf, 2.0)),
    (measure.beta, (2.0, math.inf)),
    (measure.truncated_exponential, (math.inf, 0.0, 1.0)),
    (measure.truncated_exponential, (1.0, 0.0, math.inf)),
    (measure.truncated_exponential, (math.nan, 0.0, 1.0)),
    (measure.uniform, (0.0, math.inf)),
    (measure.uniform, (-math.inf, 0.0)),
], ids=["beta-nan", "beta-inf", "beta-b-inf", "texp-rate-inf", "texp-hi-inf",
        "texp-rate-nan", "uniform-hi-inf", "uniform-lo-inf"])
def test_non_finite_parameters_rejected(make, args):
    with pytest.raises(DomainError):
        make(*args)


@pytest.mark.parametrize("rate, lo, hi", [(1e-17, 0.0, 1.0),
                                          (1e-300, 2.0, 3.0),
                                          (1.0, 0.0, 1e-17)])
def test_truncated_exponential_needs_a_normalizer_above_zero(rate, lo, hi):
    # 1 - exp(-rate * (hi - lo)) rounds to 0: the CDF would be NaN and the
    # density infinite
    with pytest.raises(DomainError, match=f"rate {rate} is too small for "
                                          rf"the support \[{lo}, {hi}\]"):
        measure.truncated_exponential(rate, lo, hi)
    # the smallest normalizer above 0 still builds, and its CDF reaches 1
    dist = measure.truncated_exponential(1.2e-16, 0.0, 1.0)
    assert dist.cdf(0.0) == 0.0 and dist.cdf(1.0) == 1.0


@pytest.mark.parametrize("points", [
    [[0.0, 0.0], [math.inf, 1.0]],
    [[-math.inf, 0.0], [1.0, 1.0]],
    [[0.0, 0.0], [math.nan, 1.0]],
    [[0.0, 0.0], [0.5, math.nan], [1.0, 1.0]],
], ids=["theta-inf", "theta-minus-inf", "theta-nan", "cdf-nan"])
def test_non_finite_table_rejected(points):
    with pytest.raises(SpecParseError):
        from_table(points)
