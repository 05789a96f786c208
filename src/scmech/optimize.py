"""Revenue maximization over strategy-proof mechanisms with bounded range.

The search space is the breakpoint/quantity profile
``(theta_1..theta_m, q_1..q_m)`` with ``m = max_bundles - 1``: payments are
eliminated exactly, because at the optimum each bundle is pinned by the
binding indifference with its predecessor at its entry parameter (the same
relation that defines breakpoints).  The bottom bundle is anchored at
``(0, 0)``, which also makes every candidate individually rational.

Where the family's revenue program separates (``Family.separable_mode``:
quasilinear and sqrt_quasilinear in payments, myerson in expected
payments), the binding indifferences telescope the revenue into
``sum_k theta_k (1 - F(theta_k)) * dh_k`` with ``sum_k dh_k <= 1``, so one
posted price at the maximizer of ``theta * (1 - F(theta))`` is optimal
for every distribution, and the solver takes it directly.

Elsewhere the objective is piecewise smooth and low-dimensional, so the
solver is a multi-start local search in two stages.  Each start is swept
to convergence by coordinate-wise bounded scalar maximization with
endpoint probing; the best sweep then goes through a ridge collapse that
retries the profile with one bundle dropped and keeps the re-swept result
when it loses no revenue (the optimum frequently uses fewer bundles than
allowed, leaving flat directions the sweeps cannot tighten on their own).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .domain import Bundle, PreferenceDomain, ZERO_BUNDLE
from .errors import DomainError, ScmechError
from .measure import (REVENUE_MODES, TypeDistribution, _check_support,
                      expected_revenue, monopoly_price, revenue_of)
from .mechanism import FiniteMechanism, from_range
from .verify import verify_mechanism

COLLAPSE_TOL = 1e-6  # componentwise duplicate-bundle threshold for reporting
SWEEP_ROUNDS = 12  # coordinate sweeps per local search, at most
SWEEP_TOL = 1e-12  # a sweep stops once a whole round gains less revenue


@dataclass(frozen=True)
class OptimizeOptions:
    max_bundles: int = 2
    restarts: int = 16
    seed: int = 0

    def __post_init__(self):
        if self.max_bundles < 2:
            raise DomainError("max_bundles must be at least 2")
        if self.restarts < 1:
            raise DomainError("restarts must be at least 1")


@dataclass(frozen=True)
class Solution:
    mechanism: FiniteMechanism
    revenue: float
    active_bundles: int
    diagnostics: dict = field(default_factory=dict)

    def summary(self) -> dict:
        return {
            "revenue": self.revenue,
            "active_bundles": self.active_bundles,
            "restarts_used": self.diagnostics.get("restarts_used", 0),
        }


def payments_from_breakpoints(domain: PreferenceDomain,
                              thetas: Sequence[float],
                              qs: Sequence[float]) -> np.ndarray:
    """Payments pinned by binding indifference at each entry parameter.

    Starting from the anchor ``(0, 0)``, bundle ``k`` must be indifferent
    to bundle ``k-1`` under the preference ``thetas[k]``; with quantities
    given, that equation has a unique payment solution by money
    monotonicity, in closed form via the family's curve inverse.
    """
    thetas = [float(r) for r in thetas]
    qs = [float(q) for q in qs]
    if len(thetas) != len(qs):
        raise DomainError("thetas and qs must have equal length")
    if any(b < a - 1e-12 for a, b in zip(thetas, thetas[1:])):
        raise DomainError("thetas must be nondecreasing")
    if any(b < a - 1e-12 for a, b in zip(qs, qs[1:])):
        raise DomainError("qs must be nondecreasing")
    family, restricted = domain.family, domain.restricted
    payments = []
    prev_t = prev_q = 0.0  # the anchor (0, 0)
    for r, q in zip(thetas, qs):
        domain.check_param(r)
        if not 0.0 <= q <= 1.0:
            raise DomainError(f"quantity {q} outside [0, 1]")
        if q <= prev_q + 1e-15:
            t = prev_t  # no quantity step: the bundle repeats
        else:
            c = float(family.canonical(r, prev_t, prev_q))
            t = float(family.curve_payment(r, c, q))
            if not math.isfinite(t) or t < prev_t - 1e-9:
                raise DomainError(
                    f"no admissible payment at theta={r}, q={q} from "
                    f"{Bundle(prev_t, prev_q)}"
                )
            t = max(t, prev_t)
            # the payment bound of a restricted preference r is r itself
            if restricted and t > r:
                if t > r + 1e-7 * max(1.0, r):
                    raise DomainError(
                        f"binding payment {t:.6g} exceeds the payment bound "
                        f"{r:.6g} at theta={r}"
                    )
                t = r  # round-off above the bound at tiny quantity steps
        payments.append(t)
        prev_t, prev_q = t, q
    return np.asarray(payments)


_INFEASIBLE = -1e12  # finite, so bracketing searches stay NaN-free


def _profile_revenue(domain, dist, mode, thetas, qs) -> float:
    try:
        payments = payments_from_breakpoints(domain, thetas, qs)
    except DomainError:
        return _INFEASIBLE
    # one CDF call for all edges; each mass as dist.mass takes it, summed
    # left to right
    edges = [*thetas, dist.hi]
    cdf = dist.cdf(edges)
    total = 0.0
    for k, t in enumerate(payments):
        if edges[k + 1] > edges[k]:
            mass = float(cdf[k + 1] - cdf[k])
            if mass > 0.0:
                total += revenue_of(Bundle(t, qs[k]), mode) * mass
    return total


def _sweep(domain, dist, mode, thetas, qs):
    """Coordinate-wise bounded maximization with endpoint probing.

    The profile is one vector ``x = (theta_1..theta_m, q_1..q_m)``.  Each
    coordinate is bounded by its neighbours in its own block, and at the
    block ends by the support (thetas) or by [0, 1] (quantities).
    """
    from scipy.optimize import minimize_scalar

    m = len(thetas)
    x = [*thetas, *qs]
    ends = ((dist.lo, dist.hi), (0.0, 1.0))
    best = _profile_revenue(domain, dist, mode, thetas, qs)
    for _ in range(SWEEP_ROUNDS):
        improved = 0.0
        for i in range(2 * m):
            floor, ceil = ends[i // m]
            lo = floor if i % m == 0 else x[i - 1]
            hi = ceil if i % m == m - 1 else x[i + 1]
            if hi - lo < 1e-13:
                continue

            def revenue_at(v):
                trial = list(x)
                trial[i] = v
                return _profile_revenue(domain, dist, mode, trial[:m], trial[m:])

            res = minimize_scalar(
                lambda v: -revenue_at(v),
                bounds=(lo, hi), method="bounded", options={"xatol": 1e-11},
            )
            # probe the exact endpoints: optima frequently sit on them.
            # The revenue at Brent's final point and at x[i] is known.
            cands = [float(res.x), lo, hi, x[i]]
            vals = [-res.fun, revenue_at(lo), revenue_at(hi), best]
            j = int(np.argmax(vals))
            if vals[j] > best + 1e-15:
                improved += vals[j] - best
                best = vals[j]
                x[i] = cands[j]
        if improved < SWEEP_TOL:
            break
    return x[:m], x[m:], best


def _search(domain, dist, opts, mode):
    """Multi-start sweep and ridge collapse; returns the best profile and
    its diagnostics."""
    m = opts.max_bundles - 1
    rng = np.random.default_rng(opts.seed)

    starts = []
    ladder = [dist.ppf((k + 1) / (m + 1)) for k in range(m)]
    starts.append((list(ladder), [(k + 1) / m for k in range(m)]))
    starts.append((list(ladder), [1.0] * m))
    starts.append(([dist.ppf(0.5)] * m, [1.0] * m))
    while len(starts) < opts.restarts:
        th = sorted(dist.ppf(rng.uniform(size=m)))
        qq = sorted(rng.uniform(size=m))
        qq[-1] = 1.0 if rng.uniform() < 0.5 else qq[-1]
        starts.append((list(th), list(qq)))
    starts = starts[:opts.restarts]

    results = []
    for th, qq in starts:
        th, qq, rev = _sweep(domain, dist, mode, th, qq)
        results.append((rev, tuple(th), tuple(qq)))
    # deterministic merge: best revenue, ties broken lexicographically
    results.sort(key=lambda r: (-r[0], r[1], r[2]))
    rev, thetas, qs = results[0]
    thetas, qs = list(thetas), list(qs)
    restart_scores = sorted((r[0] for r in results), reverse=True)

    # ridge collapse: the optimum often uses fewer bundles than allowed,
    # leaving flat directions; drop one bundle at a time whenever doing so
    # costs no revenue after re-sweeping
    reduced = True
    while reduced and len(thetas) > 1:
        reduced = False
        for k in range(len(thetas)):
            cth = thetas[:k] + thetas[k + 1:]
            cq = qs[:k] + qs[k + 1:]
            cth, cq, crev = _sweep(domain, dist, mode, cth, cq)
            if crev >= rev - 1e-10:
                thetas, qs, rev = cth, cq, crev
                reduced = True
                break
    return thetas, qs, {"method": "sweep", "restarts_used": len(starts),
                        "restart_scores": restart_scores, "seed": opts.seed}


def solve_finite(domain: PreferenceDomain, dist: TypeDistribution,
                 opts: OptimizeOptions = OptimizeOptions(),
                 mode: str = "payment") -> Solution:
    """Maximize expected revenue over mechanisms with at most
    ``opts.max_bundles`` range bundles.

    In the family's separable mode the answer is the posted price
    :func:`~scmech.measure.monopoly_price`, exact for every distribution;
    otherwise the profile is searched.  ``diagnostics["method"]`` says
    which (``"posted_price"`` or ``"sweep"``).
    """
    if mode not in REVENUE_MODES:
        raise DomainError(
            f"revenue mode must be one of {REVENUE_MODES}, got {mode!r}")
    _check_support(domain, dist)
    if mode == domain.family.separable_mode:
        price = monopoly_price(dist)
        thetas, qs = [price], [1.0]
        diagnostics = {"method": "posted_price", "restarts_used": 0,
                       "price": price}
    else:
        thetas, qs, diagnostics = _search(domain, dist, opts, mode)

    payments = payments_from_breakpoints(domain, thetas, qs)
    bundles = [ZERO_BUNDLE]
    for t, q in zip(payments, qs):
        z = Bundle(float(t), float(q))
        if z.t > bundles[-1].t + 1e-12 and z.q > bundles[-1].q + 1e-12:
            bundles.append(z)
    mech = from_range(domain, bundles)
    revenue = expected_revenue(domain, mech, dist, mode)

    grid = np.linspace(dist.lo, dist.hi, 200)
    report = verify_mechanism(domain, mech, grid)
    if not report.ok:
        raise ScmechError(
            "internal error: optimizer produced a mechanism failing "
            f"verification: {report.worst()}"
        )
    active = 1 + sum(
        1 for a, b in zip(mech.bundles, mech.bundles[1:])
        if b.t - a.t > COLLAPSE_TOL or b.q - a.q > COLLAPSE_TOL)
    return Solution(
        mechanism=mech,
        revenue=float(revenue),
        active_bundles=active,
        diagnostics={**diagnostics, "mode": mode,
                     "max_bundles": opts.max_bundles},
    )


def stationarity_residuals(dist: TypeDistribution, mech: FiniteMechanism,
                           mode: str = "payment") -> np.ndarray:
    """First-order residuals of the breakpoint program at a solution.

    With the multiplier of each binding indifference fixed to the negative
    survival mass at its breakpoint, the payment equations vanish
    identically and each breakpoint equation reduces to

        (1 - cdf(theta_k)) * dq_k  -  pdf(theta_k) * drev_k

    where ``drev_k`` is the step in the revenue measure (payment, or
    expected payment) across the breakpoint.  At an exact maximizer every
    residual is zero.
    """
    res = []
    prev = mech.bundles[0]
    for k, bp in enumerate(mech.breakpoints):
        cur = mech.bundles[k + 1]
        surv = 1.0 - dist.cdf(bp)
        dens = float(dist.pdf(bp))
        drev = revenue_of(cur, mode) - revenue_of(prev, mode)
        res.append(surv * (cur.q - prev.q) - dens * drev)
        prev = cur
    return np.asarray(res)
