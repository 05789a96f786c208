"""Type distributions on the order parameter, posted prices, and revenue.

The probability measure over preferences is specified directly on the
order-parameter chart: the mass of a preference interval ``[r', r'']`` is
``cdf(r'') - cdf(r')``.  All built-in distributions are atomless with a
positive density on their support.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .domain import Bundle, PreferenceDomain, ZERO_BUNDLE
from .errors import DomainError, SpecParseError

REVENUE_MODES = ("payment", "expected_payment")
PRICE_GRID = 1025  # points of the revenue curve searched before refining
# Largest a + b - 1 of a beta CDF taken as a polynomial.  Against
# scipy.special.betainc the polynomial costs about as much per float at 4
# and more above it, is faster on arrays to about 5-8, and holds a + b + 4
# arrays of its input's size at its peak, against betainc's 2 (timings in
# CHANGES.md).  beta(2, 3), the README's and the benchmark's, is 4.
BETA_POLY_DEGREE = 4


def check_revenue_mode(mode: str) -> None:
    """Reject a revenue mode outside ``REVENUE_MODES``."""
    if mode not in REVENUE_MODES:
        raise DomainError(
            f"revenue mode must be one of {REVENUE_MODES}, got {mode!r}")


def revenue_of(bundle: Bundle, mode: str) -> float:
    """Seller revenue of a bundle: the payment, or the expected payment
    ``q*t`` when ``q`` is a win probability."""
    if mode == "payment":
        return bundle[0]
    check_revenue_mode(mode)
    return bundle[0] * bundle[1]


@dataclass(frozen=True)
class TypeDistribution:
    """CDF/pdf pair on a closed support ``[lo, hi]``.

    ``knots`` lists, in increasing order, the points between which the CDF
    is linear, for the piecewise-linear distributions (``uniform``,
    ``from_table``); ``None`` for a smooth CDF.

    A float argument of ``cdf`` (``np.float64`` included) is clamped by two
    comparisons and reaches ``_cdf`` as a float, skipping numpy's 0-d
    round trip; anything else reaches it as a float array.  ``pdf`` does
    the same with its mask: a float off the support gets 0.0 and one on it
    reaches ``_pdf`` as a float.  Every built-in ``_cdf`` and ``_pdf`` is
    one formula for both, so a float gets the bits its array element
    gets.
    """

    name: str
    params: dict
    lo: float
    hi: float
    _cdf: Callable = field(repr=False)
    _pdf: Callable = field(repr=False)
    _ppf: Callable = field(repr=False)
    knots: Optional[tuple] = field(default=None, repr=False)

    def cdf(self, theta):
        if isinstance(theta, float):
            # the array path's clamp: a NaN fails both tests and a tie keeps
            # theta, so NaN and -0.0 pass through
            if theta < self.lo:
                theta = self.lo
            elif theta > self.hi:
                theta = self.hi
            return float(self._cdf(theta))
        # np.clip's result at half its cost on short inputs; on a tie each
        # keeps theta, so -0.0 stays -0.0
        theta = np.asarray(theta, dtype=float)
        theta = np.minimum(self.hi, np.maximum(self.lo, theta))
        out = self._cdf(theta)
        return float(out) if np.ndim(out) == 0 else out

    def pdf(self, theta):
        if isinstance(theta, float):
            # the array path's mask: NaN and points off the support get 0.0,
            # and a point on it, -0.0 included, reaches _pdf as it is
            if self.lo <= theta <= self.hi:
                return float(self._pdf(theta))
            return 0.0
        theta = np.asarray(theta, dtype=float)
        out = np.where((theta >= self.lo) & (theta <= self.hi),
                       self._pdf(np.clip(theta, self.lo, self.hi)), 0.0)
        return float(out) if out.ndim == 0 else out

    def ppf(self, u):
        out = self._ppf(np.asarray(u, dtype=float))
        return float(out) if np.ndim(out) == 0 else out

    def mass(self, r_lo: float, r_hi: float) -> float:
        if r_hi <= r_lo:
            return 0.0
        return self.cdf(r_hi) - self.cdf(r_lo)

    def to_spec(self) -> dict:
        return {"name": self.name, "params": dict(self.params)}

    @classmethod
    def from_spec(cls, spec: dict) -> "TypeDistribution":
        """Distribution from ``{"name": ..., "params": {...}}`` (see
        ``DISTRIBUTIONS``) or ``{"table": [[theta, cdf], ...]}``.  A spec
        that cannot be built, for any reason, raises ``SpecParseError``."""
        if isinstance(spec, dict) and set(spec) == {"table"}:
            name, params = "table", {"points": spec["table"]}
        elif isinstance(spec, dict) and {"name"} <= set(spec) <= {"name", "params"}:
            name, params = spec["name"], spec.get("params", {})
        else:
            raise SpecParseError("distribution spec needs the keys name and "
                                 "params, or table alone")
        if not isinstance(name, str) or name not in DISTRIBUTIONS:
            raise SpecParseError(f"unknown distribution {name!r}; known: "
                                 f"{sorted(DISTRIBUTIONS)}")
        make, names = DISTRIBUTIONS[name]
        if not isinstance(params, dict) or set(params) != set(names):
            raise SpecParseError(f"distribution {name!r} takes the parameters "
                                 f"{list(names)}, got {params!r}")
        try:
            return make(*(params[k] for k in names))
        except SpecParseError:
            raise
        except (TypeError, ValueError) as exc:  # DomainError included
            raise SpecParseError(f"distribution {name!r}: {exc}") from None


def _finite(*params: float) -> bool:
    return all(math.isfinite(p) for p in params)


def uniform(lo: float, hi: float) -> TypeDistribution:
    lo, hi = float(lo), float(hi)
    if not (_finite(lo, hi) and lo < hi):
        raise DomainError(f"uniform needs finite lo < hi, got [{lo}, {hi}]")
    width = hi - lo
    return TypeDistribution(
        "uniform", {"lo": lo, "hi": hi}, lo, hi,
        lambda x: (x - lo) / width,
        lambda x: x * 0.0 + 1.0 / width,  # x's shape: a float gives a float
        lambda u: lo + np.asarray(u, dtype=float) * width,
        (lo, hi),
    )


def truncated_exponential(rate: float, lo: float, hi: float) -> TypeDistribution:
    rate, lo, hi = float(rate), float(lo), float(hi)
    if not (_finite(rate, lo, hi) and rate > 0 and lo < hi):
        raise DomainError("truncated exponential needs finite rate > 0 and "
                          f"finite lo < hi, got ({rate}, {lo}, {hi})")
    if rate * (hi - lo) < sys.float_info.min:  # a subnormal keeps fewer bits
        raise DomainError(f"truncated exponential rate {rate} is too small for "
                          f"the support [{lo}, {hi}]: rate * (hi - lo) is subnormal")
    z = -math.expm1(-rate * (hi - lo))
    return TypeDistribution(
        "truncated_exponential", {"rate": rate, "lo": lo, "hi": hi}, lo, hi,
        lambda x: -np.expm1(-rate * (x - lo)) / z,
        lambda x: rate * np.exp(-rate * (x - lo)) / z,
        lambda u: lo - np.log1p(-z * np.asarray(u, dtype=float)) / rate,
    )


def beta(a: float, b: float) -> TypeDistribution:
    """Beta(a, b) on [0, 1].

    For integer shapes with ``a + b - 1 <= BETA_POLY_DEGREE`` the CDF is
    the binomial tail of :func:`_integer_beta`, and no scipy is loaded
    until the first quantile; for other shapes it is the regularized
    incomplete beta function ``scipy.special.betainc``.  The quantile is
    ``scipy.special.betaincinv`` for every shape.
    """
    a, b = float(a), float(b)
    if not (_finite(a, b) and a > 0 and b > 0):
        raise DomainError(f"beta needs finite positive shapes, got ({a}, {b})")

    def ppf(u):
        from scipy import special

        return special.betaincinv(a, b, u)

    if a.is_integer() and b.is_integer() and a + b - 1 <= BETA_POLY_DEGREE:
        cdf, pdf = _integer_beta(int(a), int(b))
    else:
        from scipy import special

        log_norm = special.betaln(a, b)

        def cdf(x):
            return special.betainc(a, b, x)

        def pdf(x):
            return np.exp(special.xlogy(a - 1.0, x)
                          + special.xlog1py(b - 1.0, -x) - log_norm)

    return TypeDistribution("beta", {"a": a, "b": b}, 0.0, 1.0, cdf, pdf, ppf)


def _powers(x, n: int) -> list:
    """``[1, x, x*x, ..., x**n]`` by repeated products, which round a float
    as they round each element of an array; ``**`` does not, as numpy's
    array power and C ``pow`` can differ by an ulp."""
    out = [1.0]
    for _ in range(n):
        out.append(out[-1] * x)
    return out


def _integer_beta(a: int, b: int):
    """CDF and density of Beta(a, b) for positive integers ``a``, ``b``.

    With ``n = a + b - 1`` the CDF is the binomial tail ``P(Bin(n, x) >= a)``:
    of the Bernstein terms ``C(n, j) x^j (1 - x)^(n - j)``, the ``upper``
    ones (``j >= a``) over all of them.  The smaller tail over the whole
    is accurate to its last bits, so the CDF is ``upper / whole`` below the
    median and ``1 - lower / whole`` above it: it keeps its relative
    accuracy near 0, never passes 1, and rises through the rounding near
    1 where ``upper / whole`` wobbles by an ulp.  The density is
    ``n C(n - 1, a - 1) x^(a - 1) (1 - x)^(b - 1)``.  Both are products,
    sums in a fixed order and one choice made by arithmetic, so a float
    and an array element get the same bits.
    """
    n = a + b - 1
    coef = [float(math.comb(n, j)) for j in range(n + 1)]
    norm = float(n * math.comb(n - 1, a - 1))
    # (C(n, j), n - j) for the terms with j < a, then for those with j >= a
    lower_terms = list(zip(coef[:a], range(n, n - a, -1)))
    upper_terms = list(zip(coef[a:], range(n - a, -1, -1)))

    def tails(x):
        # the sums of the lower and upper terms in the order of j; x**j is
        # built as _powers builds it, and only the powers of 1 - x are kept
        yp = _powers(1.0 - x, n)
        xj, lower, upper = 1.0, 0.0, 0.0
        for c, k in lower_terms:  # no sum(): it is compensated from 3.12
            lower = lower + c * xj * yp[k]
            xj = xj * x
        for c, k in upper_terms:
            upper = upper + c * xj * yp[k]
            xj = xj * x
        return lower, upper

    def cdf(x):
        lower, upper = tails(x)  # the powers are freed before the quotients
        whole = lower + upper
        below = (upper <= lower) * 1.0  # exactly 1.0 or 0.0
        return below * (upper / whole) + (1.0 - below) * (1.0 - lower / whole)

    def pdf(x):
        return norm * _powers(x, a - 1)[-1] * _powers(1.0 - x, b - 1)[-1]

    return cdf, pdf


def from_table(points: Sequence[Sequence[float]]) -> TypeDistribution:
    """Tabulated CDF with monotone linear interpolation.

    ``points`` is a sequence of ``[theta, cdf]`` pairs; the first must have
    cdf 0 and the last cdf 1.
    """
    pts = sorted((float(t), float(c)) for t, c in points)
    xs = np.array([p[0] for p in pts])
    cs = np.array([p[1] for p in pts])
    if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(cs))):
        raise SpecParseError("table entries must be finite")
    if len(xs) < 2 or cs[0] != 0.0 or cs[-1] != 1.0:
        raise SpecParseError("table must run from cdf 0 to cdf 1")
    if np.any(np.diff(xs) <= 0) or np.any(np.diff(cs) < 0):
        raise SpecParseError("table must be strictly increasing in theta and "
                             "nondecreasing in cdf")
    with np.errstate(over="ignore"):
        dens = np.diff(cs) / np.diff(xs)
    if not np.all(np.isfinite(dens)):
        raise SpecParseError("table knots are too close: a piece has an "
                             "infinite density")

    inner = xs[1:-1]

    def pdf(x):
        # x lies on the support, so the inner knots at or below it count
        # the pieces below its own
        return dens[np.searchsorted(inner, x, side="right")]

    return TypeDistribution(
        "table", {"points": [[float(t), float(c)] for t, c in pts]},
        float(xs[0]), float(xs[-1]),
        lambda x: np.interp(x, xs, cs),
        pdf,
        lambda u: np.interp(np.asarray(u, float), cs, xs),
        tuple(float(x) for x in xs),
    )


# The distribution constructors by spec name, with their parameter names in
# the order the compact spec ``name:v1,v2,...`` gives them
DISTRIBUTIONS = {
    "uniform": (uniform, ("lo", "hi")),
    "truncated_exponential": (truncated_exponential, ("rate", "lo", "hi")),
    "beta": (beta, ("a", "b")),
    "table": (from_table, ("points",)),
}
DISTRIBUTIONS["texp"] = DISTRIBUTIONS["truncated_exponential"]


def monopoly_price(dist: TypeDistribution) -> float:
    """A maximizer of the revenue curve ``theta * (1 - cdf(theta))`` on the
    support.

    It is the optimal posted price to one buyer with linear value, and the
    optimal reserve of a second-price auction among i.i.d. buyers, for
    every distribution: no hazard-rate condition is needed.  For a
    piecewise-linear CDF the curve is a quadratic on each piece, concave
    or linear, so the best of the knots and the in-piece vertices is
    exact.  For a smooth CDF the best point of a ``PRICE_GRID``-point grid
    (which holds both ends of the support) is refined by a bounded scalar
    search over its two neighbouring cells; the refinement is kept only
    when it earns more, so the result is never below the grid maximum.
    """
    def revenue(theta):
        return theta * (1.0 - dist.cdf(theta))

    if dist.knots is not None:
        xs = np.asarray(dist.knots)
        cs = dist.cdf(xs)
        # on [x_i, x_i+1] the curve is theta * (1 - c_i + s (x_i - theta));
        # an infinite or NaN vertex (s zero, subnormal or huge) is dropped
        with np.errstate(all="ignore"):
            slope = np.diff(cs) / np.diff(xs)
            vertex = (1.0 - cs[:-1] + slope * xs[:-1]) / (2.0 * slope)
        inside = (slope > 0.0) & (vertex > xs[:-1]) & (vertex < xs[1:])
        cands = np.sort(np.concatenate([xs, vertex[inside]]))
    else:
        from scipy.optimize import minimize_scalar

        grid = np.linspace(dist.lo, dist.hi, PRICE_GRID)
        i = int(np.argmax(revenue(grid)))
        res = minimize_scalar(lambda v: -revenue(v), method="bounded",
                              bounds=(grid[max(i - 1, 0)],
                                      grid[min(i + 1, PRICE_GRID - 1)]),
                              options={"xatol": 1e-12})
        cands = np.array([grid[i], float(res.x)])
    return float(cands[int(np.argmax(revenue(cands)))])


# -- expected revenue ---------------------------------------------------------


def revenue_upper_bound(domain: PreferenceDomain, dist: TypeDistribution) -> float:
    """Payment making the full bundle indifferent to ``(0, 0)`` under the
    top preference of the support; no individually rational mechanism can
    collect more."""
    return domain.canonical_payment(dist.hi, ZERO_BUNDLE)


def _check_support(domain: PreferenceDomain, dist: TypeDistribution) -> None:
    """Reject a type support reaching outside the domain's parameter
    interval: mechanisms are defined only on the domain."""
    if dist.lo < domain.lo - 1e-12 or dist.hi > domain.hi + 1e-12:
        raise DomainError(
            f"distribution support [{dist.lo}, {dist.hi}] not contained in "
            f"the domain interval [{domain.lo}, {domain.hi}]"
        )


def _masses(dist: TypeDistribution, r_lo, r_hi):
    """``dist.mass`` elementwise over arrays of interval ends, with its
    bits."""
    return np.where(r_hi <= r_lo, 0.0, dist.cdf(r_hi) - dist.cdf(r_lo))


def expected_revenue(domain: PreferenceDomain, mech, dist: TypeDistribution,
                     mode: str = "payment") -> float:
    """Expected seller revenue of a mechanism under ``dist``, whose support
    must lie in the domain interval.

    Step mechanisms (anything exposing ``revenue_segments``) are summed
    exactly, segment after segment; a countable one's thousands of
    segments come as arrays (``revenue_arrays``), summed in the same order
    by ``np.cumsum``.  A finite mechanism's few segments are summed by a
    loop, which costs less than numpy's calls: for three segments 3-10 us
    against 15-50 us, over the thousands of sums of a brute-force search.
    Bare callables ``r -> Bundle`` are integrated by adaptive quadrature.
    """
    check_revenue_mode(mode)
    _check_support(domain, dist)
    if hasattr(mech, "revenue_arrays"):
        r_lo, r_hi, t, q = mech.revenue_arrays(dist)
        pay = t if mode == "payment" else t * q
        return float(np.cumsum(np.append(0.0, pay * _masses(dist, r_lo, r_hi)))[-1])
    if hasattr(mech, "revenue_segments"):
        total = 0.0
        for r_lo, r_hi, bundle in mech.revenue_segments(dist):
            total += revenue_of(bundle, mode) * dist.mass(r_lo, r_hi)
        return total
    fn = mech.evaluate if hasattr(mech, "evaluate") else mech

    def integrand(r):
        return revenue_of(fn(r), mode) * float(dist.pdf(r))

    from scipy.integrate import quad

    value, _ = quad(integrand, dist.lo, dist.hi, limit=400)
    return value
