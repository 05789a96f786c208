"""Revenue maximization over strategy-proof mechanisms with bounded range.

The search space is the breakpoint/quantity profile
``(theta_1..theta_m, q_1..q_m)`` with ``m = max_bundles - 1``: payments are
eliminated exactly, because at the optimum each bundle is pinned by the
binding indifference with its predecessor at its entry parameter (the same
relation that defines breakpoints).  The bottom bundle is anchored at
``(0, 0)``, which also makes every candidate individually rational.

:func:`solve_finite` takes one of three paths, named by
``diagnostics["method"]``:

* ``"posted_price"``.  Where the family's revenue program separates
  (``Family.separable_mode``: quasilinear and sqrt_quasilinear in
  payments, myerson in expected payments), the binding indifferences
  telescope the revenue into ``sum_k theta_k (1 - F(theta_k)) * dh_k``
  with ``sum_k dh_k <= 1``, so one posted price at the maximizer of
  ``theta * (1 - F(theta))`` is optimal for every distribution, and the
  solver takes it directly.
* ``"exact_quantities"``.  For a classical family with ``phi(t) = t**2``
  (``Family.exact_quantities``: income_effect, payment_param, two_param)
  in payments, the quantities are exact for given breakpoints: the
  revenue is ``R(theta) = sqrt(sum_B c_B**2 / d_B)`` over the blocks that
  pool-adjacent-violators makes of the segments (:func:`_exact_profile`).
  The breakpoints come from a DP over consecutive pairs on a grid that
  holds the CDF's knots, exact on the grid (:func:`_grid_dp`), polished by
  Nelder-Mead on ``R``.  No random start is drawn, so the seed is unused.
* ``"sweep"``.  Elsewhere the objective is piecewise smooth and
  low-dimensional, so the solver is a multi-start local search in two
  stages.  Each start is swept to convergence by coordinate-wise bounded
  scalar maximization with endpoint probing; the best sweep then goes
  through a ridge collapse that retries the profile with one bundle
  dropped and keeps the re-swept result when it loses no revenue (the
  optimum frequently uses fewer bundles than allowed, leaving flat
  directions the sweeps cannot tighten on their own).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .domain import Bundle, PreferenceDomain, ZERO_BUNDLE
from .errors import DomainError, ScmechError
from .measure import (TypeDistribution, _check_support, check_revenue_mode,
                      expected_revenue, monopoly_price, revenue_of)
from .mechanism import FiniteMechanism, from_range
from .verify import verify_mechanism

COLLAPSE_TOL = 1e-6  # componentwise duplicate-bundle threshold for reporting
SWEEP_ROUNDS = 12  # coordinate sweeps per local search, at most
SWEEP_TOL = 1e-12  # a sweep stops once a whole round gains less revenue
DP_GRID = 160  # breakpoint grid of the exact path, before the CDF's knots
POLISH_XATOL = 1e-10  # Nelder-Mead stops once its simplex is this small in theta
POLISH_FATOL = 1e-15  # and its revenues spread this little
POLISH_MAXFEV = 4000  # revenue evaluations of the polish, at most


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
    # a restricted payment divides by the weight step, so a quantity step
    # up to 1e-15 repeats the bundle; a classical one divides by nothing
    floor = 1e-15 if restricted else 0.0
    payments = []
    prev_t = prev_q = 0.0  # the anchor (0, 0)
    for r, q in zip(thetas, qs):
        domain.check_param(r)
        if not 0.0 <= q <= 1.0:
            raise DomainError(f"quantity {q} outside [0, 1]")
        if q <= prev_q + floor:
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
            # r*(1 - w) + w*t keeps w*(r - t) only to an ulp of r, so at a
            # tiny w(q) the round trip can miss the indifference at r
            if restricted and abs(family.special((prev_t, prev_q), (t, q))
                                  - r) > 1e-9:
                raise DomainError(f"payment {t:.6g} at q={q:.6g} is not "
                                  f"pinned by indifference at theta={r}")
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


def _mechanism(domain, thetas, qs) -> FiniteMechanism:
    """The mechanism of a profile: its range is the anchor and each bundle
    that steps up in both coordinates from the one below.  A restricted
    family counts a step of up to 1e-12 as round-off, because its payment
    divides by the weight step; a classical family counts every positive
    step, as :func:`payments_from_breakpoints` does."""
    floor = 1e-12 if domain.restricted else 0.0
    bundles = [ZERO_BUNDLE]
    for t, q in zip(payments_from_breakpoints(domain, thetas, qs), qs):
        z = Bundle(float(t), float(q))
        if z.t > bundles[-1].t + floor and z.q > bundles[-1].q + floor:
            bundles.append(z)
    return from_range(domain, bundles)


def _inverse_a(form, thetas):
    """``1/a(theta)``: infinite where ``a`` is 0 or so small that its
    reciprocal overflows, and 0 where ``a`` is infinite (two_param at
    theta = 3)."""
    with np.errstate(divide="ignore", over="ignore"):
        return 1.0 / np.asarray(form.a(thetas), dtype=float)


def _exact_profile(form, dist, thetas):
    """Revenue-maximizing quantities at fixed breakpoints, for a classical
    form with ``phi(t) = t**2`` in payment mode.

    With ``v_k = t_k**2``, binding indifference gives
    ``v_k - v_{k-1} = a(theta_k) * dh_k``, so ``h(q_m) = sum_k d_k v_k``
    with ``d_k = 1/a(theta_k) - 1/a(theta_{k+1})`` (``1/a := 0`` above the
    last breakpoint), and the revenue is ``sum_k c_k sqrt(v_k)`` with
    ``c_k = F(theta_{k+1}) - F(theta_k)``.  Maximizing it over
    nondecreasing ``v`` with ``sum_k d_k v_k <= 1`` pools the segments into
    blocks on which ``c/d`` is nondecreasing (pool-adjacent-violators) and
    sets ``v_B = (c_B/d_B)**2 / S`` with ``S = sum_B c_B**2 / d_B``; the
    revenue is ``sqrt(S)`` (README, classical families in payment mode).
    A breakpoint where ``1/a`` is infinite sells nothing: its ``v`` and
    ``dh`` are 0.  One where ``1/a`` is 0 (the top of two_param) repeats
    the bundle below, and its mass, if any, is that bundle's.
    ``thetas`` must be sorted.  Returns the revenue and the quantities.
    """
    thetas = np.asarray(thetas, dtype=float)
    inv = _inverse_a(form, thetas)
    # a increases, so the infinite 1/a are a prefix and the zero ones a
    # suffix; the breakpoints first..last-1 are the ones that can sell
    first = int(np.count_nonzero(np.isinf(inv)))
    last = len(inv) - int(np.count_nonzero(inv == 0.0))
    inv = inv[first:last]
    c = np.diff(dist.cdf([*thetas[first:last], dist.hi]))
    d = inv - np.append(inv[1:], 0.0)
    blocks = []  # (c_B, d_B, segments)
    for ck, dk in zip(c.tolist(), d.tolist()):
        cb, db, n = ck, dk, 1
        # a zero-width block (tied breakpoints) pools with the next; a
        # block whose ratio c/d exceeds the new one's pools with it
        while blocks and (blocks[-1][1] == 0.0
                          or blocks[-1][0] * db > cb * blocks[-1][1]):
            pc, pd, pn = blocks.pop()
            cb, db, n = cb + pc, db + pd, n + pn
        blocks.append((cb, db, n))
    total = sum(cb * cb / db for cb, db, _ in blocks)
    v = np.zeros(last)
    if total > 0.0:
        v[first:] = np.repeat([(cb / db) ** 2 / total for cb, db, _ in blocks],
                              [n for _, _, n in blocks])
    dh = np.zeros(len(thetas))
    dh[first:last] = np.diff(v, prepend=0.0)[first:] * inv
    h = np.cumsum(dh)
    if h[-1] > 0.0:
        h /= h[-1]  # the budget binds: h(q_m) = 1 up to round-off, made exact
    return math.sqrt(total), np.asarray(form.h_inv(h), dtype=float)


def _grid_dp(form, dist, m):
    """Best breakpoints on a grid, exactly, by a DP over consecutive pairs.

    ``R(theta)**2`` is a sum of ``c**2/d`` over consecutive breakpoint
    pairs once pooling is done, and pooling two blocks is the same as
    dropping a breakpoint.  So the maximum over at most ``m`` grid
    breakpoints is the maximum over chains whose ratios ``c/d`` are
    nondecreasing.  A state is a segment ``(i, j)`` between grid points
    (``j = N`` is the top of the support); its predecessors ``(h, i)`` are
    those with ``ratio(h, i) <= ratio(i, j)``, found by a binary search in
    the predecessor ratios sorted by value.  Each of the ``m`` stages
    costs O(N**2 log N) time.  Segment values are computed as needed, and
    only the stages between the first and the last are stored: memory is
    O((m - 2) N**2), and O(N) for ``m <= 2``.
    """
    grid = np.sort(np.append(np.linspace(dist.lo, dist.hi, DP_GRID),
                             dist.knots or ()))
    inv = _inverse_a(form, grid)
    sells = np.isfinite(inv) & (inv > 0.0)  # see _exact_profile
    grid, inv = grid[sells], inv[sells]
    # 1/a falls along the grid; keeping it strictly falling drops repeated
    # points and makes every d > 0
    keep = np.append(True, np.diff(inv) < 0.0)
    grid, inv = grid[keep], np.append(inv[keep], 0.0)
    n = len(grid)
    cdf = np.append(dist.cdf(grid), 1.0)
    top = np.array([n])

    def segments(h, j):
        # ratio c/d and gain c**2/d of the segments (h, j), h < j
        ratio = (cdf[j] - cdf[h]) / (inv[h] - inv[j])
        return ratio, (cdf[j] - cdf[h]) * ratio

    def into(stage, i):
        # ratios of the segments into i, and the best chains ending in them
        ratio, gain = segments(np.arange(i), i)
        return ratio, gain if stage is None else stage[:i, i]

    def extend(stage, i, js):
        # best chains ending in the segments (i, js): each extends the best
        # chain into i whose last ratio is at most its own, or starts at i
        ratio, gain = segments(i, js)
        if i == 0:
            return gain
        r_in, v_in = into(stage, i)
        order = np.argsort(r_in)
        best = np.maximum.accumulate(v_in[order])
        count = np.searchsorted(r_in[order], ratio, side="right")
        return gain + np.where(count > 0, best[count - 1], 0.0)

    stages = [None]  # stage 1, the segments alone, is computed as needed
    for _ in range(m - 2):
        stage = np.full((n, n + 1), -np.inf)
        for i in range(n):
            stage[i, i + 1:] = extend(stages[-1], i, np.arange(i + 1, n + 1))
        stages.append(stage)
    if m == 1:
        ends = segments(np.arange(n), n)[1]
    else:
        ends = np.array([extend(stages[-1], i, top)[0] for i in range(n)])
    i, j = int(np.argmax(ends)), n
    total, chain = float(ends[i]), [i]
    for stage in reversed(stages[:m - 1]):
        if i == 0:
            break
        r_in, v_in = into(stage, i)
        limit = segments(i, np.array([j]))[0][0]
        cand = np.where(r_in <= limit, v_in, -np.inf)
        if cand.max() <= 0.0:
            break
        i, j = int(np.argmax(cand)), i
        chain.append(i)
    return grid[chain[::-1]], math.sqrt(total), len(grid)


def _exact_search(form, dist, m):
    """Grid DP over the breakpoints, then a Nelder-Mead polish of the
    revenue ``R(theta)`` from the DP optimum."""
    from scipy.optimize import minimize

    start, dp_revenue, size = _grid_dp(form, dist, m)

    def breakpoints(x):
        return np.sort(np.clip(x, dist.lo, dist.hi))

    def loss(x):
        return -_exact_profile(form, dist, breakpoints(x))[0]

    step = (dist.hi - dist.lo) / (DP_GRID - 1)
    simplex = np.vstack([start, start + step * np.eye(len(start))])
    res = minimize(loss, start, method="Nelder-Mead",
                   options={"initial_simplex": simplex, "xatol": POLISH_XATOL,
                            "fatol": POLISH_FATOL, "maxfev": POLISH_MAXFEV})
    thetas, revenue, evals = breakpoints(res.x), -res.fun, res.nfev
    # an optimal breakpoint may sit on a kink of a piecewise-linear CDF,
    # which the simplex approaches but need not reach
    for k in range(len(thetas) if dist.knots is not None else 0):
        trial = thetas.copy()
        trial[k] = min(dist.knots, key=lambda x: abs(x - trial[k]))
        if 0.0 < abs(trial[k] - thetas[k]) <= step:
            trial = np.sort(trial)
            trial_revenue = _exact_profile(form, dist, trial)[0]
            evals += 1
            if trial_revenue > revenue:
                thetas, revenue = trial, trial_revenue
    _, qs = _exact_profile(form, dist, thetas)
    return list(thetas), list(qs), {
        "method": "exact_quantities", "restarts_used": 0, "dp_grid": size,
        "dp_revenue": dp_revenue, "polish_evals": int(evals)}


def solve_finite(domain: PreferenceDomain, dist: TypeDistribution,
                 opts: OptimizeOptions = OptimizeOptions(),
                 mode: str = "payment") -> Solution:
    """Maximize expected revenue over mechanisms with at most
    ``opts.max_bundles`` range bundles.

    In the family's separable mode the answer is the posted price
    :func:`~scmech.measure.monopoly_price`, exact for every distribution.
    A classical family with ``phi(t) = t**2`` in payments has exact
    quantities for given breakpoints, and only the breakpoints are
    searched.  Otherwise the profile is swept from random starts.
    ``diagnostics["method"]`` says which (``"posted_price"``,
    ``"exact_quantities"`` or ``"sweep"``); the exact path also reports
    its grid size ``"dp_grid"``, the grid optimum ``"dp_revenue"`` and the
    revenue evaluations of its polish, ``"polish_evals"``.
    """
    check_revenue_mode(mode)
    _check_support(domain, dist)
    family = domain.family
    if mode == family.separable_mode:
        price = monopoly_price(dist)
        thetas, qs = [price], [1.0]
        diagnostics = {"method": "posted_price", "restarts_used": 0,
                       "price": price}
    elif mode == "payment" and family.exact_quantities is not None:
        thetas, qs, diagnostics = _exact_search(
            family.exact_quantities, dist, opts.max_bundles - 1)
    else:
        thetas, qs, diagnostics = _search(domain, dist, opts, mode)

    mech = _mechanism(domain, thetas, qs)
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
