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

:func:`solve_finite` takes one of two paths.  Where the family's revenue
program separates (quasilinear and sqrt_quasilinear in payments, myerson
in expected payments), the binding indifferences telescope the revenue
into ``sum_k theta_k (1 - F(theta_k)) * dh_k`` with ``sum_k dh_k <= 1``,
so one posted price at the maximizer of ``theta * (1 - F(theta))`` is
optimal for every distribution; expected payments are at most payments,
and equal at its ``q = 1``, so quasilinear and sqrt_quasilinear post it in
both modes (``Family.posted_price_modes``), and ``diagnostics["method"]``
is ``"posted_price"``.  Everywhere else one search (:func:`_search`) runs
one rule on one of three programs, and the method names its kind:

* ``"exact_quantities"``.  In a family's ``Family.exact_quantity_modes``
  the quantities are exact for given breakpoints.  For a classical family
  with ``phi(t) = t**2`` (income_effect, payment_param, two_param) in
  payments, the revenue is ``R(theta) = sqrt(sum_B c_B**2 / d_B)`` over
  the blocks that pool-adjacent-violators makes of the segments
  (:func:`_exact_profile`), and its best chain of segments on a grid is
  exact (:func:`_grid_dp`).  For a restricted family with ``w(q) = q**2``
  (risk_averse) in expected payments, the revenue is concave in the
  quantities, which an active-set Newton method gives exactly
  (:func:`_square_weight_profile`).  Both revenues are C1 between the
  kinks of the CDF (and of ``a``), with their gradients in closed form,
  so the breakpoints alone ascend, cell by cell (:func:`_cell_ascent`).
* ``"sweep"``.  Elsewhere the objective is piecewise smooth and
  low-dimensional, and the whole profile is swept coordinate-wise with
  endpoint probing (:func:`_sweep`), then finished by a Nelder-Mead
  polish (:func:`_polish`), which moves along ridges the coordinates do
  not follow.

The rule starts each program from the best chains of a DP and inserts
breakpoints while fewer than allowed are used.  The revenue of a range is
a chain over consecutive bundles, so the best range of at most ``n``
bundles on a grid of ``CHAIN_GRID**2`` bundles is the best chain of
bundle pairs, exactly, for every ``n`` at once (:func:`_chain_dp`); it
seeds risk_averse and the sweep.  Both DPs are one, :func:`_best_chain`:
the revenue of a range is a sum over consecutive pairs whose keys do not
decrease, the pooled ratio ``c/d`` of a breakpoint segment or the
indifference parameter of a bundle pair.  No path draws a random start,
so ``OptimizeOptions.seed`` is unused.
"""

from __future__ import annotations

import bisect
import math
import numbers
from dataclasses import dataclass, field
from functools import partial
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
RIDGE_TOL = 1e-10  # revenue an insertion must gain
DP_GRID = 160  # quantiles, and even points, of the classical form's grid DP
CHAIN_GRID = 14  # payment and quantity steps of the chain DP's bundle grid
POLISH_STEP = 1e-3  # first simplex of the sweep path's polish, per unit range
POLISH_XATOL = 1e-10  # Nelder-Mead stops once its simplex is this small in theta
POLISH_FATOL = 1e-15  # and its revenues spread this little
POLISH_MAXFEV = 4000  # revenue evaluations of the polish, at most
NEWTON_TOL = 1e-7  # a quantity step of Newton's method this small is its last
KKT_TOL = 1e-13  # a tie splits once its gradient is this far below 0, per
#                  unit of the top breakpoint
SELL_TOL = 1e-18  # a segment worth less, per unit of the top breakpoint,
#                   sells what the one below it sells
ASCENT_FTOL = 1e-15  # an ascent stops once a step gains this little, relative
ASCENT_GTOL = 1e-10  # or once its free gradient times the box's width is
#                      this small, relative to the value
SPLIT_STEP = 1e-9  # a breakpoint inserted beside another starts this far
#                    from it, per unit of the support


@dataclass(frozen=True)
class OptimizeOptions:
    """``max_bundles`` bounds the range, the anchor included.  ``seed`` is
    accepted for compatibility and unused: no solver path draws a random
    start."""

    max_bundles: int = 2
    seed: int = 0

    def __post_init__(self):
        if (not isinstance(self.max_bundles, numbers.Integral)
                or self.max_bundles < 2):
            raise DomainError("max_bundles must be an integer of at least 2, "
                              f"got {self.max_bundles!r}")


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


def _newton_blocks(P, M, D, top, v):
    """Newton's method for the free blocks of the square-weight program
    (:func:`_square_weight_profile`), from ``v``, until a step is at most
    ``NEWTON_TOL`` or a block would pass the one above it, or 1.

    Block ``b`` starts at the breakpoint ``P[b]``, holds the mass ``M[b]``
    and reaches ``D[b]`` up to the next block; ``top`` is the mass sold the
    whole good.  Above its diagonal the Hessian is ``x_a y_b``, with
    ``x_a = 2 D_a v_a`` and ``y_b = M_b / v_b**2``; each Newton system is
    solved as a matrix, with pivoting.  (Eliminating through the sum
    ``sum_b y_b w_b`` takes one pass, but subtracts ``x_b y_b = 2 D_b M_b
    / v_b`` on the diagonal, and a block near 0 then drowns the others in
    its round-off.)  A step that would pass a neighbour stops on it; one
    that would reach 0 goes half way.  Returns the quantities and the
    block that met the one above it, or None.  One block is the lowest, so
    ``S = 0`` and the revenue is a parabola in its quantity: one step lands
    on its vertex ``M P / (2 D top)``, or on the top.
    """
    p = len(v)
    if p == 1:
        vertex = M[0] * P[0] / (2.0 * D[0] * top)
        return ([1.0], 0) if vertex >= 1.0 else ([vertex], None)
    P, M, D = (np.array(a, dtype=float) for a in (P, M, D))
    above = np.triu(np.ones((p, p)), 1)
    for _ in range(100):  # a cap no solve has reached
        va = np.array(v)
        y, x = M / (va * va), 2.0 * D * va
        s2 = np.concatenate(([0.0], np.cumsum(x * va)[:-1]))  # 2 S_b
        # U_b: the mass above block b, each over its quantity, and the top
        u = top + np.concatenate((np.cumsum((M / va)[::-1])[-2::-1], [0.0]))
        grad = M * P + 0.5 * y * s2 - x * u
        hess = np.outer(x, y) * above
        hess += hess.T
        hess[np.diag_indices(p)] = -(y * s2 + x * u) / va
        try:
            newton = np.linalg.solve(hess, grad)
        except np.linalg.LinAlgError:
            newton = None
        if newton is None or not grad @ newton <= 0.0:
            # (nearly) no mass above: the revenue is nearly linear along v,
            # and the highest block would rise without bound
            return v, p - 1
        w = (va - newton).tolist()
        alpha, hit, step, hv, hw = 1.0, None, 0.0, 1.0, 1.0
        for b in range(p - 1, -1, -1):
            wb, vb = w[b], v[b]
            if wb > hw and hv - vb < alpha * ((hv - vb) - (hw - wb)):
                alpha, hit = (hv - vb) / ((hv - vb) - (hw - wb)), b
            step = max(step, abs(wb - vb))
            hv, hw = vb, wb
        if hw <= 0.0 and hv < 2.0 * alpha * (hv - hw):
            alpha, hit = 0.5 * hv / (hv - hw), None
        if alpha < 1.0:
            v = [a + alpha * (b - a) for a, b in zip(v, w)]
            if hit is not None:
                return v, hit
        elif step <= NEWTON_TOL:
            return w, None
        else:
            v = w
    return v, None


def _square_weight_profile(dist, thetas):
    """Revenue-maximizing quantities at fixed breakpoints for a restricted
    form with ``w(q) = q**2`` in expected payments.

    Binding indifference gives ``t_k q_k = theta_k q_k - S_k / q_k`` with
    ``S_k = sum_{j<k} dtheta_j q_j**2``, so the revenue
    ``sum_k c_k (theta_k q_k - S_k / q_k)``, ``c_k = F(theta_{k+1}) -
    F(theta_k)``, is concave on ``0 <= q_1 <= ... <= q_m = 1`` (README).
    A segment worth ``c_k theta_k <= SELL_TOL * theta_m`` pools with the
    one below it or, among the lowest, sells nothing.  The others form
    blocks of equal quantity, each a segment of a pooled profile, and an
    active set settles them: Newton's method on the free blocks
    (:func:`_newton_blocks`) merges a block into the one it meets, and a
    tie splits where the segments below it would sell less.  With one
    free block the revenue is a parabola, and the first step lands on its
    vertex: two breakpoints sell
    ``q_1 = min(1, c_1 theta_1 / (2 c_2 dtheta_1))``.
    ``thetas`` must be sorted and nonnegative.  Plain float arithmetic
    after one CDF call.

    The constraints on the quantities do not depend on the breakpoints, so
    the revenue's gradient is its partial derivative at these quantities
    (Danskin): with ``g_k`` the expected payment of segment ``k`` and
    ``T_k = sum_{j>=k} c_j / q_j`` over the segments that sell,
    ``dR/dtheta_k = f(theta_k) (g_{k-1} - g_k) + c_k q_k
    - q_{k-1}**2 T_k + q_k**2 T_{k+1}`` with ``g_0 = q_0 = 0``.  It is
    continuous where the active set changes (README).  Returns the
    revenue, the quantities and the gradient."""
    m = len(thetas)
    cdf = dist.cdf([*thetas, dist.hi]).tolist()
    floor = SELL_TOL * thetas[-1]
    seg = [k for k in range(m - 1)
           if (cdf[k + 1] - cdf[k]) * thetas[k] > floor]
    # free block b runs from the breakpoint starts[b] to the next start, or
    # to top, where the block sold the whole good begins
    starts, top, v = seg[:], m - 1, None
    if seg and cdf[-1] == cdf[-2]:
        top = starts.pop()  # no mass above pays for a step below the top
    for rounds in range(4 * m, -1, -1):  # a cap no solve has reached
        P, M, D = [], [], []
        for k, e in zip(starts, [*starts[1:], top]):
            P.append(thetas[k])
            M.append(cdf[e] - cdf[k])
            D.append(thetas[e] - thetas[k])
        mt = cdf[-1] - cdf[top]
        if v is None:
            # each block's best quantity with nothing sold below it and the
            # blocks above at these, kept strictly increasing; the first
            # step from it solves one free block exactly
            v, u, up = P[:], mt, 1.0
            for b in range(len(v) - 1, -1, -1):
                v[b] = up = min(M[b] * P[b] / (2.0 * D[b] * u),
                                up * (1.0 - 1e-3))
                u += M[b] / up
        if not rounds:
            break
        v, hit = _newton_blocks(P, M, D, mt, v) if starts else (v, None)
        if hit is not None:  # block hit meets the next one, or the top
            if hit + 1 < len(starts):
                del starts[hit + 1], v[hit + 1]
            else:
                top = starts.pop()
                v.pop()
            continue
        if len(starts) == len(seg):
            break  # no tie
        # a tie holds while the segments below it, in its block, would not
        # sell less: the gradient summed over them is not negative
        q = [1.0 if k >= top else v[sum(1 for i in starts if i <= k) - 1]
             for k in seg]
        ends = [*seg[1:], m - 1]
        g, s2, u = [0.0] * len(seg), 0.0, cdf[-1] - cdf[-2]
        for j, (k, e) in enumerate(zip(seg, ends)):
            g[j] = (cdf[e] - cdf[k]) * (thetas[k] + s2 / (q[j] * q[j]))
            s2 += (thetas[e] - thetas[k]) * q[j] * q[j]
        for j in range(len(seg) - 1, -1, -1):
            k, e = seg[j], ends[j]
            g[j] -= 2.0 * (thetas[e] - thetas[k]) * q[j] * u
            u += (cdf[e] - cdf[k]) / q[j]
        worst, at, below = -KKT_TOL * thetas[-1], None, 0.0
        for j, (k, e) in enumerate(zip(seg, ends)):
            below = g[j] + (0.0 if k in starts or k == top else below)
            tied = k >= top or e not in (top, *starts)
            if tied and below < worst:
                worst, at = below, e
        if at is None:
            break
        if at > top:  # the lowest segments of the top block go free
            starts.append(top)
            v.append(1.0)
            top = at
        else:
            b = sum(1 for i in starts if i < at)
            starts.insert(b, at)
            v.insert(b, v[b - 1])
    qs, revenue, s2 = [0.0] * m, 0.0, 0.0
    for k, e, u, mb, d in zip(starts, [*starts[1:], top], v, M, D):
        qs[k:e] = [u] * (e - k)
        revenue += mb * (thetas[k] * u - s2 / u)
        s2 += d * u * u
    qs[top:] = [1.0] * (m - top)
    revenue += mt * (thetas[top] - s2)
    # g[k] and t[k] are g_k and T_k; g[-1] and t[m] stay 0
    g, t, s2 = [0.0] * (m + 1), [0.0] * (m + 1), 0.0
    for k, q in enumerate(qs):
        if q > 0.0:
            g[k] = thetas[k] * q - s2 / q
        if k + 1 < m:
            s2 += (thetas[k + 1] - thetas[k]) * q * q
    for k in range(m - 1, -1, -1):
        t[k] = t[k + 1] + ((cdf[k + 1] - cdf[k]) / qs[k] if qs[k] > 0.0
                           else 0.0)
    dens = dist.pdf(thetas).tolist()
    grad = [dens[k] * (g[k - 1] - g[k]) + (cdf[k + 1] - cdf[k]) * q
            - p * p * t[k] + q * q * t[k + 1]
            for k, (p, q) in enumerate(zip([0.0, *qs], qs))]
    return revenue, qs, grad


def _sweep(revenue, x, lo, hi):
    """Coordinate-wise bounded maximization with endpoint probing.

    The searched vector ``x`` is ``n`` breakpoints in ``[lo, hi]``, then
    ``q_1..q_{n-1}`` (the top quantity is 1).  Each coordinate is bounded
    by its neighbours in its own block, and at the block ends by the
    support (breakpoints) or by [0, 1] (quantities).
    """
    from scipy.optimize import minimize_scalar

    n = (len(x) + 1) // 2
    x = list(x)
    best = revenue(x)
    for _ in range(SWEEP_ROUNDS):
        improved = 0.0
        for i in range(len(x)):
            ends = ([lo, *x[:n], hi] if i < n
                    else [0.0, *x[n:], 1.0])
            a, b = ends[i % n], ends[i % n + 2]
            if b - a < 1e-13:
                continue

            def revenue_at(v):
                trial = list(x)
                trial[i] = float(v)
                return revenue(trial)

            res = minimize_scalar(
                lambda v: -revenue_at(v),
                bounds=(a, b), method="bounded", options={"xatol": 1e-11},
            )
            # probe the exact endpoints: optima frequently sit on them.
            # The revenue at Brent's final point and at x[i] is known.
            cands = [float(res.x), a, b, x[i]]
            vals = [-res.fun, revenue_at(a), revenue_at(b), best]
            j = max(range(len(vals)), key=vals.__getitem__)  # the first
            if vals[j] > best + 1e-15:
                improved += vals[j] - best
                best = vals[j]
                x[i] = cands[j]
        if improved < SWEEP_TOL:
            break
    return x, best


def _best_chain(key, gain, m):
    """Best chains ``0 -> v_1 -> ... -> v_n`` of at most ``1..m`` edges
    whose keys do not decrease, exactly, by a DP over consecutive edges.

    An edge ``(u, v)`` exists where ``gain[u, v] > -inf``; its key is
    ``key[u, v]``, NaN for a missing edge.  A state is an edge ``(v, w)``,
    and its predecessors are the edges ``(h, v)`` whose key is at most its
    own, where a NaN key is never at most another.  Stage ``s`` holds the
    best chain of at most ``s + 1`` edges ending in each edge, so a chain
    ends anywhere.  A chain starts at node 0, so the second stage has one
    candidate predecessor per edge, ``(0, v)``, and is direct.  From the
    third on, the best predecessor is a running maximum down column ``v``
    sorted by key, where a NaN key sorts last.  Each stage costs O(N**2)
    time, and the O(N**2 log N) sort is paid once, only from the third
    stage.  Every stage is kept for the backtrack, O(m N**2) memory.
    Returns each best chain's nodes ``v_1..v_n`` and total gain.
    """
    n = len(gain)
    gain = np.where(gain > -np.inf, gain, -np.inf)  # a NaN gain is no edge
    first = np.full((n, n), -np.inf)
    first[0] = gain[0]  # a chain starts at node 0
    stages = [first]
    if m >= 2:
        stage = gain + np.where(key[0][:, None] <= key, gain[0][:, None],
                                -np.inf)
        stage[0] = gain[0]
        stages.append(stage)
    if m >= 3:
        order, cols = np.argsort(key, axis=0), np.arange(n)
        # count[v, w]: how many edges (h, v) have a key at most key[v, w]
        count = np.array([np.searchsorted(key[order[:, v], v], key[v],
                                          side="right") for v in cols])
        count[np.isnan(key)] = 0
    for _ in range(m - 2):
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


def _bfgs_ascent(fun, x, lo, hi):
    """Maximize ``fun`` on the box ``lo <= x <= hi`` (lists, a bound per
    coordinate) from ``x`` by projected BFGS (Bertsekas 1982), on floats.

    ``fun`` maps a list to its value and gradient, a list.  A coordinate
    on a bound whose gradient points out of the box is fixed; the others
    are free, and the inverse Hessian is kept for them alone, reset to a
    multiple of the identity whenever the free set changes.  A step goes
    along the free coordinates' quasi-Newton direction, projected onto the
    box, and shrinks until it gains a ten-thousandth of what the gradient
    predicts (Armijo).  The first step moves no coordinate more than the
    box's largest width over ``n + 1``.  The ascent stops once a step
    gains at most ``ASCENT_FTOL`` of the value, or once the free gradient
    times that width is at most ``ASCENT_GTOL`` of it.  Returns the point,
    its value and the evaluations of ``fun``."""
    width = max(b - a for a, b in zip(lo, hi))
    x = [min(max(v, a), b) for v, a, b in zip(x, lo, hi)]
    f, g = fun(x)
    evals, free, inv_h, gamma = 1, None, None, None
    for _ in range(100 * len(x) + 100):  # a cap no solve has reached
        now = [i for i, (v, d) in enumerate(zip(x, g))
               if not (v <= lo[i] and d < 0.0 or v >= hi[i] and d > 0.0)]
        gf = [g[i] for i in now]
        top = max(map(abs, gf), default=0.0)
        if top * width <= ASCENT_GTOL * abs(f):
            break
        if now != free:
            free, inv_h = now, None
        if inv_h is None:
            scale = gamma if gamma is not None else width / top / (len(x) + 1)
            step = [scale * d for d in gf]
        else:
            step = [math.fsum(h * d for h, d in zip(row, gf)) for row in inv_h]
        t = 1.0
        while True:
            trial = list(x)
            for i, d in zip(free, step):
                trial[i] = min(max(x[i] + t * d, lo[i]), hi[i])
            predicted = math.fsum(g[i] * (trial[i] - x[i]) for i in free)
            if not predicted > ASCENT_FTOL * abs(f):
                return x, f, evals
            f_new, g_new = fun(trial)
            evals += 1
            if f_new >= f + 1e-4 * predicted:
                break
            # the maximizer of the parabola through f, its slope and f_new,
            # kept within a tenth and a half of the step
            t *= min(max(0.5 * predicted / (f + predicted - f_new), 0.1), 0.5)
        s = [trial[i] - x[i] for i in free]
        y = [g[i] - g_new[i] for i in free]
        done = f_new - f <= ASCENT_FTOL * abs(f_new)
        x, f, g = trial, f_new, g_new
        if done:
            break
        sy = math.fsum(a * b for a, b in zip(s, y))
        if sy <= 0.0:
            continue  # no curvature along the step: keep the matrix
        gamma = sy / math.fsum(b * b for b in y)
        if inv_h is None:
            inv_h = [[gamma if i == j else 0.0 for j in range(len(free))]
                     for i in range(len(free))]
        # H + c s s' - (s (Hy)' + Hy s') / sy, c = (1 + y'Hy / sy) / sy
        hy = [math.fsum(h * b for h, b in zip(row, y)) for row in inv_h]
        c = (1.0 + math.fsum(a * b for a, b in zip(y, hy)) / sy) / sy
        inv_h = [[h + c * si * sj - (si * hyj + hyi * sj) / sy
                  for h, sj, hyj in zip(row, s, hy)]
                 for row, si, hyi in zip(inv_h, s, hy)]
    return x, f, evals


def _sorted_call(profile, x):
    """``profile`` of the sorted breakpoints ``x``, a revenue and its
    gradient, with the gradient put back in the order of ``x``: the
    objective is symmetric in the breakpoints."""
    order = sorted(range(len(x)), key=x.__getitem__)
    revenue, grad = profile([x[i] for i in order])
    out = [0.0] * len(x)
    for i, d in zip(order, grad):
        out[i] = d
    return revenue, out


def _cell_ascent(fun, x, lo, hi, kinks):
    """Maximize ``fun`` over the breakpoints ``x`` in ``[lo, hi]``, smooth
    only between the sorted ``kinks`` inside it, cell by cell.

    All breakpoints ascend by one :func:`_bfgs_ascent`, each boxed in its
    cell one ulp inside an inner kink, so that every derivative comes from
    inside the cell (a breakpoint on a kink starts in the cell above it).
    Then each breakpoint tries the cells beside its own, ascending alone
    from their midpoints, and a move is kept only if it gains; the ascent
    restarts from the result until a round gains nothing.  Last, a
    breakpoint one ulp from a kink moves onto it where that loses nothing.
    Without kinks this is one :func:`_bfgs_ascent` on the support.
    Returns the point, its value and the evaluations of ``fun``."""
    if not kinks:
        return _bfgs_ascent(fun, x, [lo] * len(x), [hi] * len(x))
    edges, last = [lo, *kinks, hi], len(kinks)
    floors = [lo, *(math.nextafter(k, math.inf) for k in kinks)]
    ceilings = [*(math.nextafter(k, -math.inf) for k in kinks), hi]

    def ascend(x, cells, alone=None):
        # a cell narrower than its two margins is the one point floors[j];
        # with ``alone`` set, every other breakpoint is held where it is
        boxes = [(floors[j], max(floors[j], ceilings[j]))
                 if alone in (None, i) else (v, v)
                 for i, (j, v) in enumerate(zip(cells, x))]
        return _bfgs_ascent(fun, x, *map(list, zip(*boxes)))

    cells = [min(bisect.bisect(edges, v) - 1, last) for v in x]
    x, f, evals = ascend(x, cells)
    start = -math.inf
    while f > start:
        start = f
        for i in range(len(x)):
            for j in (cells[i] - 1, cells[i] + 1):
                if 0 <= j <= last:
                    trial, moved = list(x), list(cells)
                    trial[i], moved[i] = 0.5 * (edges[j] + edges[j + 1]), j
                    y, g, e = ascend(trial, moved, i)
                    evals += e
                    if g > f:
                        x, f, cells = y, g, moved
        y, g, e = ascend(x, cells)
        evals += e
        if g > f:
            x, f = y, g
    for i, v in enumerate(x):
        k = min(kinks, key=lambda k: abs(k - v))
        if math.nextafter(v, k) == k != v:
            trial = [*x[:i], k, *x[i + 1:]]
            g, _ = fun(trial)
            evals += 1
            if g >= f:
                x, f = trial, g
    return x, f, evals


def _gap_trials(lo, hi, thetas):
    """The sorted breakpoints ``thetas`` with a new one at the midpoint of
    each gap between them and the ends ``lo`` and ``hi``, gap by gap."""
    ends = [lo, *thetas, hi]
    return [[*thetas[:k], 0.5 * (ends[k] + ends[k + 1]), *thetas[k:]]
            for k in range(len(thetas) + 1)]


def _polish(revenue, x, rev, lo, hi):
    """Nelder-Mead on the sweep's vector ``x`` (see :func:`_sweep`) from a
    first simplex ``POLISH_STEP`` of the support and of [0, 1] wide,
    re-swept when it gains.  Returns the vector, its revenue and the
    polish's evaluations."""
    from scipy.optimize import minimize

    n = (len(x) + 1) // 2

    def clip(x):
        x = x.tolist()
        return [*sorted([min(max(t, lo), hi) for t in x[:n]]),
                *sorted([min(max(t, 0.0), 1.0) for t in x[n:]])]

    def loss(x):
        return -revenue(clip(x))

    start = np.array(x)
    steps = [POLISH_STEP * (hi - lo)] * n + [POLISH_STEP] * (len(x) - n)
    simplex = np.vstack([start, start + np.diag(steps)])
    res = minimize(loss, start, method="Nelder-Mead",
                   options={"initial_simplex": simplex, "xatol": POLISH_XATOL,
                            "fatol": POLISH_FATOL, "maxfev": POLISH_MAXFEV})
    if -res.fun > rev:
        x, rev = _sweep(revenue, clip(res.x), lo, hi)
    return x, rev, int(res.nfev)


def _mechanism(domain, thetas, qs) -> FiniteMechanism:
    """The mechanism of a profile: its range is the anchor and each bundle
    that steps up in both coordinates from the one below.  A restricted
    family counts a step of up to ``STEP_FLOOR`` as round-off, because its
    breakpoint divides by the weight step; a classical family counts every
    positive step, as :func:`payments_from_breakpoints` does.  A bundle
    whose breakpoint ties the next one is held by no type, and is dropped:
    the bundles on either side of it are indifferent at that breakpoint
    too."""
    floor = STEP_FLOOR if domain.restricted else 0.0
    bundles = [ZERO_BUNDLE]
    pays = payments_from_breakpoints(domain, thetas, qs)
    for t, q, r, up in zip(pays, qs, thetas, [*thetas[1:], math.inf]):
        z = Bundle(float(t), float(q))
        if (up > r and z.t > bundles[-1].t + floor
                and z.q > bundles[-1].q + floor):
            bundles.append(z)
    return from_range(domain, bundles)


def _inverse_a(form, thetas):
    """``1/a(theta)``: infinite where ``a`` is 0 or so small that its
    reciprocal overflows, and 0 where ``a`` is infinite (two_param at
    theta = 3)."""
    with np.errstate(divide="ignore", over="ignore"):
        return 1.0 / np.asarray(form.a(thetas), dtype=float)


def _exact_blocks(form, dist, thetas):
    """The segments of :func:`_exact_profile` pooled into blocks.

    Segment ``k`` runs from ``thetas[k]`` up to the next breakpoint, or to
    the top of the support, with mass ``c_k`` and weight ``d_k =
    1/a(theta_k) - 1/a(theta_{k+1})`` (``1/a := 0`` above the last).
    Pool-adjacent-violators merges them into blocks on which ``c/d`` is
    nondecreasing; a zero-width block (tied breakpoints) pools with the
    next.  Returns the first breakpoint that sells, ``1/a`` from it on to
    the last that sells, and the blocks ``(c_B, d_B, segments)``.
    """
    inv = _inverse_a(form, thetas)
    # a increases, so the infinite 1/a are a prefix and the zero ones a
    # suffix; the breakpoints first..last-1 are the ones that can sell
    first = int(np.count_nonzero(np.isinf(inv)))
    last = len(inv) - int(np.count_nonzero(inv == 0.0))
    inv = inv[first:last]
    c = np.diff(dist.cdf([*thetas[first:last], dist.hi]))
    d = inv - np.append(inv[1:], 0.0)
    blocks = []
    for cb, db in zip(c.tolist(), d.tolist()):
        n = 1
        # a block whose ratio c/d exceeds the new one's pools with it
        while blocks and (blocks[-1][1] == 0.0
                          or blocks[-1][0] * db > cb * blocks[-1][1]):
            pc, pd, pn = blocks.pop()
            cb, db, n = cb + pc, db + pd, n + pn
        blocks.append((cb, db, n))
    return first, inv, blocks


def _exact_profile(form, dist, thetas):
    """Revenue-maximizing quantities at fixed breakpoints, for a classical
    form with ``phi(t) = t**2`` in payment mode.

    With ``v_k = t_k**2``, binding indifference gives
    ``v_k - v_{k-1} = a(theta_k) * dh_k``, so ``h(q_m) = sum_k d_k v_k``
    with ``d_k = 1/a(theta_k) - 1/a(theta_{k+1})`` (``1/a := 0`` above the
    last breakpoint), and the revenue is ``sum_k c_k sqrt(v_k)`` with
    ``c_k = F(theta_{k+1}) - F(theta_k)``.  Maximizing it over
    nondecreasing ``v`` with ``sum_k d_k v_k <= 1`` pools the segments into
    blocks on which ``c/d`` is nondecreasing (:func:`_exact_blocks`) and
    sets ``v_B = (c_B/d_B)**2 / S`` with ``S = sum_B c_B**2 / d_B``; the
    revenue is ``sqrt(S)`` (README, classical families in payment mode).
    A breakpoint where ``1/a`` is infinite sells nothing: its ``v`` and
    ``dh`` are 0.  One where ``1/a`` is 0 (the top of two_param) repeats
    the bundle below, and its mass, if any, is that bundle's.
    ``thetas`` must be sorted.  Returns the revenue and the quantities.
    """
    thetas = np.asarray(thetas, dtype=float)
    first, inv, blocks = _exact_blocks(form, dist, thetas)
    last = first + len(inv)
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


def _exact_gradient(form, dist, thetas):
    """The revenue ``R`` of :func:`_exact_profile` and its gradient in the
    sorted breakpoints ``thetas``.

    With ``b = 1/a`` and ``rho_B = c_B/d_B``, ``d(c**2/d) = 2 rho dc -
    rho**2 dd`` gives, for the first breakpoint ``theta_i`` of block B
    after block A (``rho_A = 0`` below the first block),
    ``dS/dtheta_i = (rho_A - rho_B)(2 f(theta_i) + b'(theta_i)(rho_A +
    rho_B))``; a breakpoint inside a block has gradient 0, and so has one
    that sells nothing (README).  ``dR = dS / (2R)``.
    """
    thetas = np.asarray(thetas, dtype=float)
    first, _, blocks = _exact_blocks(form, dist, thetas)
    total = sum(cb * cb / db for cb, db, _ in blocks)
    grad = [0.0] * len(thetas)
    if not total > 0.0:
        return 0.0, grad
    starts = np.cumsum([first, *(n for _, _, n in blocks[:-1])])
    dens = dist.pdf(thetas[starts]).tolist()
    slope = form.inv_a_slope(thetas[starts]).tolist()
    revenue, below = math.sqrt(total), 0.0
    for k, f, b, (cb, db, _) in zip(starts.tolist(), dens, slope, blocks):
        rho = cb / db
        grad[k] = ((below - rho) * (2.0 * f + b * (below + rho))
                   / (2.0 * revenue))
        below = rho
    return revenue, grad


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
    Returns, as :func:`_chain_dp` does, the breakpoints and revenue of the
    best chain of at most ``n`` breakpoints for each ``n = 1..m``, and the
    grid size.
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
    return [(grid[-np.array(chain[::-1])].tolist(), math.sqrt(total))
            for chain, total in _best_chain(key, gain, m)], len(grid)


def _search(domain, dist, m, mode):
    """One search rule for the three programs of a range of at most ``m``
    breakpoints.

    Each program supplies its searched vector, local step, insertion
    trials, finish and starts, the best chains of a DP of at most ``1..m``
    breakpoints.  The exact-quantity programs search the breakpoints: the
    local step is an ascent cell by cell between the kinks
    (:func:`_cell_ascent`) on the revenue's gradient, after which a
    breakpoint that sells no more than the one below it is dropped, and the
    finish does nothing.  A classical form ascends :func:`_exact_gradient`
    and starts from :func:`_grid_dp` on ``DP_GRID`` quantiles, evenly
    spaced in level, ``DP_GRID`` even points of the support, which cover
    the pieces with less mass than a quantile step, and the CDF's knots;
    ``a``'s kinks are kinks too.  risk_averse ascends
    :func:`_square_weight_profile` and starts from :func:`_chain_dp`.  The
    trials are a new breakpoint at each gap's midpoint (:func:`_gap_trials`),
    each ascended, and one ``SPLIT_STEP`` of the support to either side of
    each placed breakpoint, where only the trial that earns most ascends:
    the piece a split cuts off has the ratio of the density to the slope of
    ``1/a`` on that side, not its block's, so it can gain in a window
    narrower than the grid's steps.  The profile sweep searches
    ``(theta_1..theta_n, q_1..q_{n-1})``: its local step is :func:`_sweep`,
    its trials :func:`_gap_trials` with a quantity each, its starts the
    ranges of :func:`_chain_dp` and its finish :func:`_polish`.

    The rule: the CDF's knots inside the support are kinks too.  Without a
    kink the local step runs from the DP's best chain.  With kinks the
    revenue can peak inside any cell, and it runs from the best chain of
    each length and, for the programs seeded from the bundle grid, from the
    posted price, which the grid misses on a table with all its mass in a
    sliver.  Insertion runs the local step from each trial while fewer
    than ``m`` breakpoints are used, and keeps the best result if it earns
    more than ``RIDGE_TOL``; the finish follows.  Both run from the best
    result and from the best with one breakpoint fewer than ``m``, and the
    better is kept.  Returns the profile and its diagnostics;
    ``"ascent_evals"`` counts the revenue evaluations of the ascents and
    the split trials, and ``"polish_evals"`` those of both polishes."""
    family, lo, hi = domain.family, dist.lo, dist.hi
    form, exact = family.exact_quantities, mode in family.exact_quantity_modes
    classical, kinks, evals = exact and form is not None, (), []
    if classical:
        gradient = partial(_exact_gradient, form, dist)

        def quantities(thetas):
            return _exact_profile(form, dist, thetas)[1].tolist()

        levels = np.linspace(0.0, 1.0, DP_GRID)
        grid = np.unique(np.concatenate([
            dist.ppf(levels), lo + (hi - lo) * levels, dist.knots or ()]))
        chains, size = _grid_dp(form, dist, m, grid)
        kinks = form.kinks
    else:
        ranges, size = _chain_dp(domain, dist, mode, m,
                                 *_bundle_grid(family, dist))
        chains = [(thetas if exact else [*thetas, *qs[:-1]], total)
                  for (thetas, qs), total in ranges]
    if exact:
        if not classical:
            def gradient(thetas):
                revenue, _, grad = _square_weight_profile(dist, thetas)
                return revenue, grad

            def quantities(thetas):
                return _square_weight_profile(dist, thetas)[1]

        fun, sold, count = partial(_sorted_call, gradient), {}, len
        step = SPLIT_STEP * (hi - lo)

        def local(x):
            x, revenue, e = _cell_ascent(fun, x, lo, hi, kinks)
            evals.append(e)
            x = sorted(x)
            qs = quantities(x)
            kept = [(t, q) for t, p, q in zip(x, [0.0, *qs], qs) if q > p]
            x = [t for t, _ in kept]
            sold[tuple(x)] = [q for _, q in kept]
            return x, revenue

        def trials(x):
            splits = [[*x, min(max(t + d, lo), hi)]
                      for t in x for d in (-step, step)]
            evals.append(len(splits))
            gaps = _gap_trials(lo, hi, x)
            if splits:
                gaps.append(max(splits, key=lambda y: fun(y)[0]))
            return gaps

        def finish(x, rev):
            return x, rev

        def profile(x):
            return x, sold[tuple(x)]
    else:
        def count(x):
            return (len(x) + 1) // 2

        def revenue(x):
            n = count(x)
            return _profile_revenue(domain, dist, mode, x[:n], [*x[n:], 1.0])

        local = partial(_sweep, revenue, lo=lo, hi=hi)

        def trials(x):
            # the new bundle's quantity is 1% of the way up its gap
            n = count(x)
            qs = [*x[n:], 1.0]
            q = [0.0, *qs, 1.0]
            gaps = _gap_trials(lo, hi, x[:n])
            for k, trial in enumerate(gaps):
                trial += [*qs[:k], q[k] + 0.01 * (q[k + 1] - q[k]),
                          *qs[k:]][:-1]
            return gaps

        def finish(x, rev):
            x, rev, e = _polish(revenue, x, rev, lo, hi)
            evals.append(e)
            return x, rev

        def profile(x):
            n = count(x)
            return x[:n], [*x[n:], 1.0]

    def extend(x, rev):
        while count(x) < m:
            best = max(map(local, trials(x)), key=lambda r: r[1])
            if best[1] <= rev + RIDGE_TOL:
                break
            x, rev = best
        return finish(x, rev)

    kinks = sorted({k for k in (*(dist.knots or ()), *kinks) if lo < k < hi})
    starts = [x for x, _ in chains] if kinks else [chains[-1][0]]
    if kinks and not classical:
        starts.append([monopoly_price(dist)])
    results = [local(x) for k, x in enumerate(starts) if x not in starts[:k]]
    best = max(results, key=lambda r: r[1])
    x, rev = extend(*best)
    fewer = [r for r in results if count(r[0]) == m - 1]
    if fewer and best not in fewer:
        y, y_rev = extend(*max(fewer, key=lambda r: r[1]))
        if y_rev > rev:
            x = y
    return (*profile(x), {
        "method": "exact_quantities" if exact else "sweep", "dp_grid": size,
        "dp_revenue": chains[-1][1],
        "ascent_evals" if exact else "polish_evals": sum(evals)})


def solve_finite(domain: PreferenceDomain, dist: TypeDistribution,
                 opts: OptimizeOptions = OptimizeOptions(),
                 mode: str = "payment") -> Solution:
    """Maximize expected revenue over mechanisms with at most
    ``opts.max_bundles`` range bundles.

    Two paths.  In the family's posted-price modes the answer is the
    posted price :func:`~scmech.measure.monopoly_price`, exact for every
    distribution.  Otherwise one search rule runs (:func:`_search`): from
    a DP, the best chain of consecutive pairs on a grid of breakpoints or
    of bundles, a local step, then insertion and a finish.  In the
    family's ``exact_quantity_modes`` the quantities are exact for given
    breakpoints and the breakpoints ascend on the revenue's gradient;
    otherwise the whole profile is swept and polished.
    ``diagnostics["method"]`` says which ran (``"posted_price"``,
    ``"exact_quantities"`` or ``"sweep"``); the last two also report their
    DP's grid size ``"dp_grid"`` (breakpoints, or bundles) and grid
    optimum ``"dp_revenue"``.  The exact programs report the revenue
    evaluations of their ascents, ``"ascent_evals"``, and the sweep those
    of its polishes, ``"polish_evals"``.  The mechanism
    is certified for every type of the support by
    :func:`~scmech.verify.certify_step`, and a failure raises
    :class:`ScmechError`.
    """
    check_revenue_mode(mode)
    _check_support(domain, dist)
    family = domain.family
    if mode in family.posted_price_modes:
        price = monopoly_price(dist)
        thetas, qs = [price], [1.0]
        diagnostics = {"method": "posted_price", "price": price}
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
    expected payment) across the breakpoint.  Only for the separable,
    posted-price program (quasilinear) is every residual zero at an exact
    maximizer; other programs have other conditions (at ``max_bundles=4``
    on U[0.1, 1] income_effect in payments reads -0.107, -0.127, 0.217).
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
