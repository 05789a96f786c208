"""Revenue maximization over strategy-proof mechanisms with bounded range.

A mechanism is the breakpoint/quantity profile
``(theta_1..theta_m, q_1..q_m)`` with ``m = max_bundles - 1``: payments are
eliminated exactly, because at the optimum each bundle is pinned by the
binding indifference with its predecessor at its entry parameter (the same
relation that defines breakpoints), one ``Family.bind`` step each.  The
bottom bundle is anchored at ``(0, 0)``, which also makes every candidate
individually rational.  Raising ``q_m`` raises only the top payment, so
revenue never falls as ``q_m`` rises (no distortion at the top), and every
path sells ``q_m = 1``: the searched profile is
``(theta_1..theta_m, q_1..q_{m-1})``.

:func:`solve_finite` takes one of three paths, named by
``diagnostics["method"]``:

* ``"posted_price"``.  Where the family's revenue program separates
  (quasilinear and sqrt_quasilinear in payments, myerson in expected
  payments), the binding indifferences telescope the revenue into
  ``sum_k theta_k (1 - F(theta_k)) * dh_k`` with ``sum_k dh_k <= 1``, so
  one posted price at the maximizer of ``theta * (1 - F(theta))`` is
  optimal for every distribution; expected payments are at most payments,
  and equal at its ``q = 1``, so quasilinear and sqrt_quasilinear post it
  in both modes (``Family.posted_price_modes``).
* ``"exact_quantities"``.  For a classical family with ``phi(t) = t**2``
  (``Family.exact_quantities``: income_effect, payment_param, two_param)
  in payments, the quantities are exact for given breakpoints: the
  revenue is ``R(theta) = sqrt(sum_B c_B**2 / d_B)`` over the blocks that
  pool-adjacent-violators makes of the segments (:func:`_exact_profile`).
  The breakpoints come from the best chain of segments on a grid of
  quantiles, even points and knots, exact on the grid (:func:`_grid_dp`),
  and from the same DP on grids zoomed in around them, which keep the
  knots.
* ``"sweep"``.  Elsewhere the objective is piecewise smooth and
  low-dimensional.  The revenue of a range is a chain over consecutive
  bundles, so the best range of at most ``n`` bundles on a grid of
  ``CHAIN_GRID**2`` bundles is the best chain of bundle pairs, exactly,
  for every ``n`` at once (:func:`_chain_dp`).  One sweep
  (coordinate-wise bounded scalar maximization with endpoint probing)
  starts from each of these ranges and from the posted price, which the
  grid can miss, and the fewest-bundle result within ``RIDGE_TOL`` of the
  best goes on: the optimum often uses fewer bundles than allowed,
  leaving flat directions a sweep cannot tighten.  Bundle insertion tries
  a new bundle in each gap while fewer than allowed are used, and one
  Nelder-Mead polish of the whole profile moves along ridges the
  coordinates do not follow.

Both DPs are one, :func:`_best_chain`: the revenue of a range is a sum over
consecutive pairs whose keys do not decrease, the pooled ratio ``c/d`` of
a breakpoint segment or the indifference parameter of a bundle pair.  No
path draws a random start, so ``OptimizeOptions.seed`` is unused.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .domain import Bundle, PreferenceDomain, ZERO_BUNDLE, _bisect_special
from .errors import DomainError, ScmechError
from .measure import (TypeDistribution, _check_support, check_revenue_mode,
                      expected_revenue, monopoly_price, revenue_of)
from .mechanism import FiniteMechanism, from_range
from .verify import certify_step

COLLAPSE_TOL = 1e-6  # componentwise duplicate-bundle threshold for reporting
STEP_FLOOR = 1e-12  # steps a restricted family's range counts as round-off
SWEEP_ROUNDS = 12  # coordinate sweeps per local search, at most
SWEEP_TOL = 1e-12  # a sweep stops once a whole round gains less revenue
RIDGE_TOL = 1e-10  # revenue fewer bundles may lose and an insertion must gain
DP_GRID = 160  # quantiles, and even points, of the exact path's first grid
ZOOM = 4  # points either side of a breakpoint on a zoomed grid, and its shrink
ZOOM_TOL = 1e-11  # the zoom stops at a step this small, per unit support
CHAIN_GRID = 14  # payment and quantity steps of the sweep path's bundle grid
POLISH_STEP = 1e-3  # first simplex of the sweep path's polish, per unit range
POLISH_XATOL = 1e-10  # Nelder-Mead stops once its simplex is this small in theta
POLISH_FATOL = 1e-15  # and its revenues spread this little
POLISH_MAXFEV = 4000  # revenue evaluations of the polish, at most


@dataclass(frozen=True)
class OptimizeOptions:
    """``max_bundles`` bounds the range, the anchor included.  ``seed`` is
    accepted for compatibility and unused: no solver path draws a random
    start."""

    max_bundles: int = 2
    seed: int = 0

    def __post_init__(self):
        if self.max_bundles < 2:
            raise DomainError("max_bundles must be at least 2")


@dataclass(frozen=True)
class Solution:
    mechanism: FiniteMechanism
    revenue: float
    active_bundles: int
    diagnostics: dict = field(default_factory=dict)

    def summary(self) -> dict:
        return {"revenue": self.revenue, "active_bundles": self.active_bundles}


def payments_from_breakpoints(domain: PreferenceDomain,
                              thetas: Sequence[float],
                              qs: Sequence[float]) -> np.ndarray:
    """Payments pinned by binding indifference at each entry parameter.

    Starting from the anchor ``(0, 0)``, bundle ``k`` must be indifferent
    to bundle ``k-1`` under the preference ``thetas[k]``; with quantities
    given, that equation has a unique payment solution by money
    monotonicity, one binding step ``Family.bind`` in closed form, or,
    for a family without it, the round trip through the canonical payment
    and the curve inverse.
    """
    thetas = [float(r) for r in thetas]
    qs = [float(q) for q in qs]
    if len(thetas) != len(qs):
        raise DomainError("thetas and qs must have equal length")
    if any(b < a - 1e-12 for a, b in zip(thetas, thetas[1:])):
        raise DomainError("thetas must be nondecreasing")
    if any(b < a - 1e-12 for a, b in zip(qs, qs[1:])):
        raise DomainError("qs must be nondecreasing")
    family = domain.family
    # a quantity step up to STEP_FLOOR repeats a restricted bundle, as in
    # the solver's range (see _mechanism)
    floor = STEP_FLOOR if domain.restricted else 0.0
    payments = []
    prev_t = prev_q = 0.0  # the anchor (0, 0)
    for r, q in zip(thetas, qs):
        domain.check_param(r)
        if not 0.0 <= q <= 1.0:
            raise DomainError(f"quantity {q} outside [0, 1]")
        if q <= prev_q + floor:
            t = prev_t  # no quantity step: the bundle repeats
        else:
            if family.bind is not None:
                t = float(family.bind(r, prev_t, prev_q, q))
            else:
                c = float(family.canonical(r, prev_t, prev_q))
                t = float(family.curve_payment(r, c, q))
            if not math.isfinite(t) or t < prev_t - 1e-9:
                raise DomainError(
                    f"no admissible payment at theta={r}, q={q} from "
                    f"{Bundle(prev_t, prev_q)}"
                )
            t = max(t, prev_t)
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

    The profile is one vector ``x = (theta_1..theta_m, q_1..q_{m-1})``, and
    the top quantity is 1.  Each coordinate is bounded by its neighbours in
    its own block, and at the block ends by the support (thetas) or by
    [0, 1] (quantities).
    """
    from scipy.optimize import minimize_scalar

    m = len(thetas)
    x = [*thetas, *qs[:-1]]
    best = _profile_revenue(domain, dist, mode, x[:m], [*x[m:], 1.0])
    for _ in range(SWEEP_ROUNDS):
        improved = 0.0
        for i in range(2 * m - 1):
            ends = [dist.lo, *x[:m], dist.hi] if i < m else [0.0, *x[m:], 1.0]
            lo, hi = ends[i % m], ends[i % m + 2]
            if hi - lo < 1e-13:
                continue

            def revenue_at(v):
                trial = list(x)
                trial[i] = v
                return _profile_revenue(domain, dist, mode, trial[:m],
                                        [*trial[m:], 1.0])

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
    return x[:m], [*x[m:], 1.0], best


def _best_chain(key, gain, m):
    """Best chains ``0 -> v_1 -> ... -> v_n`` of at most ``1..m`` edges
    whose keys do not decrease, exactly, by a DP over consecutive edges.

    An edge ``(u, v)`` exists where ``gain[u, v] > -inf``; its key is
    ``key[u, v]``, NaN for a missing edge.  A state is an edge ``(v, w)``,
    and its predecessors are the edges ``(h, v)`` whose key is at most its
    own: the best of them is a running maximum down column ``v`` sorted by
    key, where a NaN key sorts last and is never at most another.  Stage
    ``s`` holds the best chain of at most ``s + 1`` edges ending in each
    edge, so a chain ends anywhere.  Each of the ``m`` stages costs
    O(N**2) time and is kept for the backtrack, O(m N**2) memory.  Returns
    each best chain's nodes ``v_1..v_n`` and total gain.
    """
    n = len(gain)
    gain = np.where(gain > -np.inf, gain, -np.inf)  # a NaN gain is no edge
    order, cols = np.argsort(key, axis=0), np.arange(n)
    # count[v, w]: how many edges (h, v) have a key at most key[v, w]
    count = np.array([np.searchsorted(key[order[:, v], v], key[v],
                                      side="right") for v in cols])
    first = np.full((n, n), -np.inf)
    first[0] = gain[0]  # a chain starts at node 0
    stages = [first]
    for _ in range(m - 1):
        best = np.maximum.accumulate(
            np.take_along_axis(stages[-1], order, axis=0), axis=0)
        best = np.vstack([np.full(n, -np.inf), best])
        stage = gain + best[count, cols[:, None]]
        stage[0] = gain[0]
        stages.append(stage)
    chains = []
    for s, stage in enumerate(stages):
        v, w = divmod(int(np.argmax(stage)), n)
        total, chain = float(stage[v, w]), [w]
        while v != 0:
            s -= 1
            cand = np.where(key[:, v] <= key[v, w], stages[s][:, v], -np.inf)
            v, w = int(np.argmax(cand)), v
            chain.append(w)
        chains.append((chain[::-1], total))
    return chains


def _pair_specials(family, dist, za, zb):
    """Indifference parameters of the diagonal pairs ``za < zb``, each a
    pair of arrays ``(t, q)``, clipped to the support: a family without a
    closed form is bisected on the support, where a root outside it
    converges to the nearer end."""
    if family.special is not None:
        return np.clip(family.special(za, zb), dist.lo, dist.hi)
    return _bisect_special(family, za, zb, dist.lo, dist.hi)


def _bundle_grid(family, dist):
    """Payments and quantities of the chain DP's grid: ``CHAIN_GRID`` steps
    each, up to the payment that makes the full bundle indifferent to
    ``(0, 0)`` at the top of the support, or, where that is infinite
    (two_param at r = 3), at the quantile ``1 - 1/CHAIN_GRID``."""
    top = float(family.canonical(dist.hi, 0.0, 0.0))
    if not math.isfinite(top):
        top = float(family.canonical(dist.ppf(1.0 - 1.0 / CHAIN_GRID), 0.0, 0.0))
    steps = np.linspace(0.0, 1.0, CHAIN_GRID + 1)[1:]
    return top * steps, steps


def _chain_dp(domain, dist, mode, m, t_grid, q_grid):
    """Best range of at most ``m`` bundles from a grid, exactly, by a DP
    over consecutive pairs.

    The grid bundles are the products of the positive entries of
    ``t_grid`` and ``q_grid``.  A range ``(0, 0) = z_0 < z_1 < ... < z_n``
    earns ``sum_k (rev(z_k) - rev(z_{k-1})) (1 - F(theta_k))`` with
    ``theta_k = special(z_{k-1}, z_k)``, and it is supportable when the
    ``theta_k`` are nondecreasing.  Clipped to the support they may also
    tie where they decrease beyond one of its ends; such a chain earns what
    a supportable one with those bundles dropped earns.  So, as in
    :func:`_grid_dp`, the best range is the best chain of pairs with
    nondecreasing keys from the anchor, node 0 (:func:`_best_chain`).
    Returns the profile ``(thetas, qs)`` and revenue of the best chain of
    at most ``n`` bundles for each ``n = 1..m``, and the grid size.
    """
    t_grid, q_grid = np.asarray(t_grid, float), np.asarray(q_grid, float)
    ts, qs = np.meshgrid(t_grid[t_grid > 0.0], q_grid[q_grid > 0.0],
                         indexing="ij")
    t, q = np.append(0.0, ts.ravel()), np.append(0.0, qs.ravel())
    n = len(t)
    i, j = np.nonzero((t[:, None] < t) & (q[:, None] < q))
    key = np.full((n, n), np.nan)
    key[i, j] = _pair_specials(domain.family, dist, (t[i], q[i]), (t[j], q[j]))
    rev = t if mode == "payment" else t * q
    gain = np.full((n, n), -np.inf)
    gain[i, j] = (rev[j] - rev[i]) * (1.0 - dist.cdf(key[i, j]))
    starts = [(([float(key[a, b]) for a, b in zip([0, *chain], chain)],
                [float(q[b]) for b in chain]), total)
              for chain, total in _best_chain(key, gain, m)]
    return starts, n - 1


def _insert(domain, dist, mode, m, thetas, qs, rev):
    """Bundle insertion: while fewer than ``m`` bundles are used, try a
    new one in each gap, its breakpoint at the gap's midpoint and its
    quantity 1% of the way up the gap, and keep the best re-swept one that
    earns more than ``RIDGE_TOL``."""
    while len(thetas) < m:
        th, q = [dist.lo, *thetas, dist.hi], [0.0, *qs, 1.0]
        trials = [_sweep(domain, dist, mode,
                         [*thetas[:k], 0.5 * (th[k] + th[k + 1]), *thetas[k:]],
                         [*qs[:k], q[k] + 0.01 * (q[k + 1] - q[k]), *qs[k:]])
                  for k in range(len(thetas) + 1)]
        best = max(trials, key=lambda trial: trial[2])
        if best[2] <= rev + RIDGE_TOL:
            break
        thetas, qs, rev = best
    return thetas, qs, rev


def _search(domain, dist, m, mode):
    """The sweep path: a sweep from each distinct range of the chain DP and
    from the posted price, bundle insertion from the fewest-bundle result
    within ``RIDGE_TOL`` of the best, and a Nelder-Mead polish, re-swept
    when it gains.  Returns the profile and its diagnostics."""
    from scipy.optimize import minimize

    grid = _bundle_grid(domain.family, dist)
    starts, size = _chain_dp(domain, dist, mode, m, *grid)
    profiles = [p for p, _ in starts] + [([monopoly_price(dist)], [1.0])]
    results = [_sweep(domain, dist, mode, *p)
               for k, p in enumerate(profiles) if p not in profiles[:k]]
    best = max(rev for _, _, rev in results)
    thetas, qs, rev = min((r for r in results if r[2] >= best - RIDGE_TOL),
                          key=lambda r: (len(r[0]), -r[2]))
    thetas, qs, rev = _insert(domain, dist, mode, m, thetas, qs, rev)

    n = len(thetas)

    def profile(x):
        return (list(np.sort(np.clip(x[:n], dist.lo, dist.hi))),
                [*np.sort(np.clip(x[n:], 0.0, 1.0)), 1.0])

    def loss(x):
        return -_profile_revenue(domain, dist, mode, *profile(x))

    start = np.array([*thetas, *qs[:-1]])
    steps = [POLISH_STEP * (dist.hi - dist.lo)] * n + [POLISH_STEP] * (n - 1)
    simplex = np.vstack([start, start + np.diag(steps)])
    res = minimize(loss, start, method="Nelder-Mead",
                   options={"initial_simplex": simplex, "xatol": POLISH_XATOL,
                            "fatol": POLISH_FATOL, "maxfev": POLISH_MAXFEV})
    if -res.fun > rev:
        thetas, qs, rev = _sweep(domain, dist, mode, *profile(res.x))
    return thetas, qs, {"method": "sweep", "dp_grid": size,
                        "dp_revenue": starts[-1][1],
                        "polish_evals": int(res.nfev)}


def _mechanism(domain, thetas, qs) -> FiniteMechanism:
    """The mechanism of a profile: its range is the anchor and each bundle
    that steps up in both coordinates from the one below.  A restricted
    family counts a step of up to ``STEP_FLOOR`` as round-off, because its
    breakpoint divides by the weight step; a classical family counts every
    positive step, as :func:`payments_from_breakpoints` does."""
    floor = STEP_FLOOR if domain.restricted else 0.0
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


def _grid_dp(form, dist, m, grid):
    """Best breakpoints among the points of the sorted ``grid``, exactly,
    by a DP over consecutive pairs.

    ``R(theta)**2`` is a sum of ``c**2/d`` over consecutive breakpoint
    pairs once pooling is done, and pooling two blocks is the same as
    dropping a breakpoint.  So the maximum over at most ``m`` grid
    breakpoints is the maximum over chains whose ratios ``c/d`` are
    nondecreasing.  The chain runs down from the top of the support, node
    0, through the breakpoints from the highest, keyed by the negated
    ratios, so that it ends at any lowest breakpoint (:func:`_best_chain`).
    """
    inv = _inverse_a(form, grid)
    sells = np.isfinite(inv) & (inv > 0.0)  # see _exact_profile
    grid, inv = grid[sells], inv[sells]
    # 1/a falls along the grid; keeping it strictly falling drops repeated
    # points and makes every d > 0
    keep = np.append(True, np.diff(inv) < 0.0)
    grid = grid[keep]
    # node k >= 1 is grid[-k], and the segment (u, v) runs from node v up
    # to node u
    cdf = np.append(1.0, dist.cdf(grid[::-1]))
    inv = np.append(0.0, inv[keep][::-1])
    n = len(cdf)
    u, v = np.triu_indices(n, 1)
    key, gain = np.full((n, n), np.nan), np.full((n, n), -np.inf)
    ratio = (cdf[u] - cdf[v]) / (inv[v] - inv[u])
    key[u, v], gain[u, v] = -ratio, (cdf[u] - cdf[v]) * ratio
    chain, total = _best_chain(key, gain, m)[-1]
    return grid[-np.array(chain[::-1])], math.sqrt(total), len(grid)


def _exact_search(form, dist, m):
    """Grid DP over the breakpoints, then the same DP on grids zoomed in
    around its breakpoints.

    The first grid is ``DP_GRID`` quantiles, evenly spaced in level,
    ``DP_GRID`` even points of the support, which cover the pieces with
    less mass than a quantile step, and the CDF's knots.
    A zoomed grid holds the breakpoints, ``ZOOM`` points one step apart on
    either side of each, and the knots, so revenue never falls and a
    breakpoint at a kink lands on it exactly.  The step shrinks by ``ZOOM``
    unless a breakpoint gained revenue at the edge of its window, where the
    window recentres at the same step, until it is ``ZOOM_TOL`` of the
    support."""
    width, knots = dist.hi - dist.lo, dist.knots or ()
    levels = np.linspace(0.0, 1.0, DP_GRID)
    grid = np.unique(np.concatenate([dist.ppf(levels),
                                     dist.lo + width * levels, knots]))
    thetas, dp_revenue, size = _grid_dp(form, dist, m, grid)
    revenue, step, rounds = dp_revenue, width / (DP_GRID - 1), 0
    while step > ZOOM_TOL * width:
        window = step * np.arange(-ZOOM, ZOOM + 1)
        grid = np.unique(np.clip(np.append(np.add.outer(thetas, window), knots),
                                 dist.lo, dist.hi))
        trial, trial_revenue, _ = _grid_dp(form, dist, m, grid)
        rounds += 1
        # a breakpoint past the inner points of every window sits on an
        # edge (or a knot), and may gain more beyond it
        moved = np.abs(np.subtract.outer(trial, thetas)).min(axis=1)
        gained = trial_revenue > revenue
        if gained:
            thetas, revenue = trial, trial_revenue
        if not (gained and np.any(moved > (ZOOM - 0.5) * step)):
            step /= ZOOM
    _, qs = _exact_profile(form, dist, thetas)
    return list(thetas), list(qs), {
        "method": "exact_quantities", "dp_grid": size,
        "dp_revenue": dp_revenue, "zoom_rounds": rounds}


def solve_finite(domain: PreferenceDomain, dist: TypeDistribution,
                 opts: OptimizeOptions = OptimizeOptions(),
                 mode: str = "payment") -> Solution:
    """Maximize expected revenue over mechanisms with at most
    ``opts.max_bundles`` range bundles.

    In the family's posted-price modes the answer is the posted price
    :func:`~scmech.measure.monopoly_price`, exact for every distribution.
    A classical family with ``phi(t) = t**2`` in payments has exact
    quantities for given breakpoints, and only the breakpoints are
    searched.  Otherwise the profile is swept from the best range of a
    bundle grid.  Both searches start from the same DP, the best chain of
    consecutive pairs on a grid of breakpoints or of bundles.
    ``diagnostics["method"]`` says which path ran (``"posted_price"``,
    ``"exact_quantities"`` or ``"sweep"``); the last two also report their
    first DP's grid size ``"dp_grid"`` (breakpoints, or bundles) and grid
    optimum ``"dp_revenue"``.  The exact path reports its zoomed DPs,
    ``"zoom_rounds"``, and the sweep path the revenue evaluations of its
    polish, ``"polish_evals"``.  The mechanism is certified for every type
    of the support by :func:`~scmech.verify.certify_step`, and a failure
    raises :class:`ScmechError`.
    """
    check_revenue_mode(mode)
    _check_support(domain, dist)
    family = domain.family
    if mode in family.posted_price_modes:
        price = monopoly_price(dist)
        thetas, qs = [price], [1.0]
        diagnostics = {"method": "posted_price", "price": price}
    elif mode == "payment" and family.exact_quantities is not None:
        thetas, qs, diagnostics = _exact_search(
            family.exact_quantities, dist, opts.max_bundles - 1)
    else:
        thetas, qs, diagnostics = _search(domain, dist, opts.max_bundles - 1,
                                          mode)

    mech = _mechanism(domain, thetas, qs)
    revenue = expected_revenue(domain, mech, dist, mode)

    report = certify_step(domain, mech, dist.lo, dist.hi)
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
